//! `train_vgg`: closed-loop SGD training of VGG-A, one caller.
//!
//! Set-up (compile, lower, instantiate, one warm-up forward+backward) is
//! repeated [`SETUPS`] times and its median reported; the last executor
//! trains. The warm-up step is checked against a single-threaded
//! unoptimised executor before the timed loop starts, and every loss in
//! the loop must be finite.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use latte_baselines::{caffe, spec};
use latte_core::{compile, CompiledNet, OptLevel};
use latte_ir::Stmt;
use latte_nn::models::{self, ModelConfig};
use latte_runtime::pool::{self, WorkerPool};
use latte_runtime::registry::KernelRegistry;
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::{CompiledProgram, Executor};
use latte_tensor::gemm::{Gemm, Transpose};

use crate::stats::{median, ms, percentile};
use crate::{exec_cfg, splitmix64, trace, unit, E2e, Metrics, Run};

const BATCH: usize = 8;
const IMAGE: usize = 32;
const CLASSES: usize = 100;
const CHANNEL_DIV: usize = 4;
const THREADS: usize = 2;
const SETUPS: usize = 5;
/// Distinct seeded batches the loop cycles through.
const BATCH_POOL: usize = 8;
const CAFFE_STEPS: usize = 6;

/// The nine compiler passes, in pipeline order.
const PASSES: [&str; 9] = [
    "shared-buffers",
    "inplace-activation",
    "skip-data-grad",
    "pattern-match",
    "fusion",
    "tiling",
    "parallelize",
    "vectorize-mark",
    "step-share",
];

/// VGG-A stages that group times are reported by. Keyed by stage rather
/// than by compiled group name, because group names change whenever
/// fusion decisions do while the per-layer metric set must stay fixed.
const STAGES: [&str; 7] = ["conv1", "conv2", "conv3", "conv4", "conv5", "fc", "loss"];

/// The layers whose GEMMs the tensor probe reports.
const GEMM_LAYERS: [&str; 11] = [
    "conv1_1", "conv2_1", "conv3_1", "conv3_2", "conv4_1", "conv4_2", "conv5_1", "conv5_2", "fc6",
    "fc7", "fc8",
];

fn model_cfg() -> ModelConfig {
    ModelConfig {
        batch: BATCH,
        input_size: IMAGE,
        channel_div: CHANNEL_DIV,
        classes: CLASSES,
        with_loss: true,
        seed: 42,
    }
}

struct Batch {
    data: Vec<f32>,
    labels: Vec<f32>,
}

fn batches(seed: u64) -> Vec<Batch> {
    let mut state = seed ^ 0x7472_6169_6e5f_7667; // "train_vg"
    (0..BATCH_POOL)
        .map(|_| Batch {
            data: (0..BATCH * IMAGE * IMAGE * 3)
                .map(|_| unit(&mut state))
                .collect(),
            labels: (0..BATCH)
                .map(|_| (splitmix64(&mut state) % CLASSES as u64) as f32)
                .collect(),
        })
        .collect()
}

fn feed(exec: &mut Executor, b: &Batch) {
    let _s = trace::span("runtime.feed");
    exec.set_input("data", &b.data).expect("feed data");
    exec.set_input("label", &b.labels).expect("feed labels");
}

struct SetupTimes {
    compile_ms: f64,
    lower_ms: f64,
    instantiate_ms: f64,
}

/// Compile, lower, instantiate and run the warm-up forward+backward on
/// `first`: everything before the executor is ready to step.
fn set_up(first: &Batch) -> (Executor, SetupTimes) {
    let _s = trace::span("bench.setup");
    let model = models::vgg_a(&model_cfg());
    let t = Instant::now();
    let compiled = {
        let _s = trace::span("core.compile");
        compile(&model.net, &OptLevel::full()).expect("vgg_a compiles")
    };
    let compile_ms = ms(t.elapsed());
    let t = Instant::now();
    let program = {
        let _s = trace::span("runtime.lower");
        CompiledProgram::lower(
            compiled,
            &KernelRegistry::with_builtins(),
            exec_cfg(THREADS),
        )
        .expect("vgg_a lowers")
    };
    let lower_ms = ms(t.elapsed());
    let t = Instant::now();
    let mut exec = {
        let _s = trace::span("runtime.instantiate");
        program
            .instantiate(Arc::new(WorkerPool::new(THREADS)))
            .expect("vgg_a instantiates")
    };
    let instantiate_ms = ms(t.elapsed());
    feed(&mut exec, first);
    {
        let _s = trace::span("runtime.forward");
        exec.forward();
    }
    {
        let _s = trace::span("runtime.backward");
        exec.backward();
    }
    (
        exec,
        SetupTimes {
            compile_ms,
            lower_ms,
            instantiate_ms,
        },
    )
}

/// Compares the warm-up step's loss and every parameter gradient with a
/// single-threaded executor compiled at `OptLevel::none()`, within the
/// differential harness's default budget (the optimised program only
/// reassociates sums). Returns the number of mismatching values.
fn check_first_step(exec: &Executor, first: &Batch) -> usize {
    let net = models::vgg_a(&model_cfg()).net;
    let reference = compile(&net, &OptLevel::none()).expect("vgg_a compiles unoptimised");
    let mut reference =
        Executor::with_registry(reference, &KernelRegistry::with_builtins(), exec_cfg(1))
            .expect("reference executor");
    feed(&mut reference, first);
    reference.forward();
    reference.backward();
    let close = |a: f32, b: f32| {
        let diff = (a - b).abs();
        a == b || diff <= 1e-5 || diff <= 1e-4 * a.abs().max(b.abs())
    };
    let mut bad = usize::from(!close(exec.loss(), reference.loss()));
    for p in exec.params() {
        let got = exec.read_buffer(&p.grad).expect("param grad");
        let want = reference
            .read_buffer(&p.grad)
            .expect("reference param grad");
        bad += got.len().abs_diff(want.len());
        bad += got
            .iter()
            .zip(&want)
            .filter(|(a, b)| !close(**a, **b))
            .count();
    }
    bad
}

/// `conv3_2` → `conv3`, `relu6` → `fc`, `loss` → `loss`.
fn stage(ensemble: &str) -> &'static str {
    let digits: String = ensemble
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    match digits.parse::<usize>() {
        Ok(n @ 1..=5) => STAGES[n - 1],
        Ok(_) => "fc",
        Err(_) => "loss",
    }
}

/// The stage of a timed group (`pool4+relu4_2+conv4_2.bwd` → `conv4`).
fn group_stage(group: &str) -> &'static str {
    stage(group.split(['+', '.']).next().unwrap_or(group))
}

pub fn run(seed: u64, budget: Duration) -> Run {
    let traced = trace::enabled();
    let batches = batches(seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        let (exec, st) = set_up(&batches[0]);
        setups.push(t.elapsed().as_secs_f64());
        times.push(st);
        ready = Some(exec);
    }
    let mut exec = ready.expect("at least one set-up");
    let mut run = Run {
        attempted: 1,
        failed: 0,
        correct: true,
        e2e: E2e {
            setup_s: median(&setups),
            throughput_per_s: 0.0,
            p50_ms: 0.0,
        },
        layer: Metrics::new(),
    };
    let bad = check_first_step(&exec, &batches[0]);
    if bad > 0 {
        run.failed += 1;
        run.fail_check(&format!(
            "first step: {bad} values differ from the unoptimised reference"
        ));
    }
    let mut sgd = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.01 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    });
    sgd.step(&mut exec);

    let mut step_ms = Vec::new();
    // Share of each step that the timed parts (feed, every group, the
    // solver) account for.
    let mut covered_over_step = Vec::new();
    let mut stage_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut nonfinite = 0u64;
    let spawned_before = pool::total_threads_spawned();
    let start = Instant::now();
    let mut i = 1;
    while start.elapsed() < budget {
        let t = Instant::now();
        let mut covered = 0.0;
        {
            let _s = trace::span("bench.step");
            feed(&mut exec, &batches[i % BATCH_POOL]);
            covered += ms(t.elapsed());
            if traced {
                let fwd = {
                    let _s = trace::span("runtime.forward");
                    exec.forward_timed()
                };
                let bwd = {
                    let _s = trace::span("runtime.backward");
                    exec.backward_timed()
                };
                for (phase, groups) in [("fwd", fwd), ("bwd", bwd)] {
                    for (name, g_ms) in groups {
                        covered += g_ms;
                        *stage_ms
                            .entry(format!("{phase}.{}", group_stage(&name)))
                            .or_insert(0.0) += g_ms;
                    }
                }
            } else {
                exec.forward();
                exec.backward();
            }
            let solver = Instant::now();
            let _s = trace::span("runtime.solver");
            sgd.step(&mut exec);
            covered += ms(solver.elapsed());
        }
        let dt = ms(t.elapsed());
        step_ms.push(dt);
        covered_over_step.push(covered / dt);
        if !exec.loss().is_finite() {
            nonfinite += 1;
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let spawned = pool::total_threads_spawned() - spawned_before;
    let steps = step_ms.len() as u64;
    run.attempted += steps;
    run.failed += nonfinite;
    if nonfinite > 0 {
        run.fail_check(&format!("{nonfinite} steps had a non-finite loss"));
    }
    run.e2e.throughput_per_s = (BATCH as u64 * steps) as f64 / wall;
    run.e2e.p50_ms = median(&step_ms);
    let step_p95_ms = percentile(&step_ms, 95.0);
    eprintln!(
        "train_vgg: {steps} steps in {wall:.2} s, {:.1} img/s, step p50 {:.2} ms p95 {:.2} ms, set-up {:.3} s",
        run.e2e.throughput_per_s, run.e2e.p50_ms, step_p95_ms, run.e2e.setup_s
    );

    if traced {
        let layer = &mut run.layer;
        for (metric, span) in [
            ("runtime.feed_ms", "runtime.feed"),
            ("runtime.forward_ms", "runtime.forward"),
            ("runtime.backward_ms", "runtime.backward"),
            ("runtime.solver_ms", "runtime.solver"),
        ] {
            // Timed-loop spans only: set-up spans have no `bench.step` parent.
            layer.insert(
                metric.into(),
                (median(&trace::durations_ms(span, "bench.step")), "ms"),
            );
        }
        let step_total: f64 = step_ms.iter().sum();
        for phase in ["fwd", "bwd"] {
            for s in STAGES {
                let total = stage_ms
                    .get(&format!("{phase}.{s}"))
                    .copied()
                    .unwrap_or(0.0);
                layer.insert(
                    format!("runtime.group_ms.{phase}.{s}"),
                    (total / steps as f64, "ms"),
                );
                layer.insert(
                    format!("runtime.group_share.{phase}.{s}"),
                    (total / step_total, "ratio"),
                );
            }
        }
        layer.insert("runtime.step_p95_ms".into(), (step_p95_ms, "ms"));
        layer.insert(
            "runtime.groups_sum_over_step".into(),
            (median(&covered_over_step), "ratio"),
        );
        layer.insert("runtime.pool.spawned".into(), (spawned as f64, "count"));
        layer.insert(
            "runtime.lower_ms".into(),
            (
                median(&times.iter().map(|t| t.lower_ms).collect::<Vec<_>>()),
                "ms",
            ),
        );
        layer.insert(
            "runtime.instantiate_ms".into(),
            (
                median(&times.iter().map(|t| t.instantiate_ms).collect::<Vec<_>>()),
                "ms",
            ),
        );
        core_metrics(exec.compiled(), &times, layer);
        gemm_probe(exec.compiled(), layer);
        let caffe_ms = caffe_step_ms(&batches);
        layer.insert("baselines.caffe.step_ms".into(), (caffe_ms, "ms"));
        layer.insert(
            "baselines.latte_over_caffe".into(),
            (caffe_ms / run.e2e.p50_ms, "ratio"),
        );
    }
    run
}

fn core_metrics(compiled: &CompiledNet, times: &[SetupTimes], layer: &mut Metrics) {
    let stats = &compiled.stats;
    let compile_ms = median(&times.iter().map(|t| t.compile_ms).collect::<Vec<_>>());
    let mut passes_ms = 0.0;
    for name in PASSES {
        let pass_ms = stats
            .passes
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.wall_micros as f64 / 1e3)
            .sum::<f64>();
        passes_ms += pass_ms;
        layer.insert(format!("core.pass_ms.{name}"), (pass_ms, "ms"));
    }
    layer.insert("core.compile_ms".into(), (compile_ms, "ms"));
    layer.insert("core.synth_ms".into(), (compile_ms - passes_ms, "ms"));
    let stmts = stats.passes.last().map_or(0, |p| p.stmts_after);
    layer.insert("core.ir_stmts".into(), (stmts as f64, "count"));
    let groups = compiled.forward.len() + compiled.backward.len();
    layer.insert("core.groups".into(), (groups as f64, "count"));
}

/// `(m, n, k, ta, tb)` of one GEMM call.
type Shape = (usize, usize, usize, bool, bool);

fn collect_gemms(stmts: &[Stmt], calls: usize, out: &mut Vec<(Shape, usize)>) {
    for s in stmts {
        match s {
            Stmt::For(l) => collect_gemms(&l.body, calls * l.extent, out),
            Stmt::Gemm(g) => out.push(((g.m, g.n, g.k, g.ta, g.tb), calls)),
            _ => {}
        }
    }
}

/// Times every GEMM shape the compiled VGG-A issues with
/// `Gemm::compute_parallel` on a 2-thread pool, and reports GFLOP/s per
/// `(phase, layer)` plus the step's GEMM work. Groups run once per
/// batch item, so a step issues `BATCH` times each group's calls.
fn gemm_probe(compiled: &CompiledNet, layer: &mut Metrics) {
    let mut by_layer: BTreeMap<(&str, &str), Vec<(Shape, usize)>> = BTreeMap::new();
    for (phase, groups) in [("fwd", &compiled.forward), ("bwd", &compiled.backward)] {
        for g in groups.iter() {
            let Some(name) = g
                .ensembles
                .iter()
                .find(|e| e.starts_with("conv") || e.starts_with("fc"))
            else {
                continue;
            };
            let Some(&key) = GEMM_LAYERS.iter().find(|l| *l == name) else {
                continue;
            };
            collect_gemms(&g.stmts, 1, by_layer.entry((phase, key)).or_default());
        }
    }
    let pool = WorkerPool::new(THREADS);
    let mut per_call_s: BTreeMap<Shape, f64> = BTreeMap::new();
    for &(shape, _) in by_layer.values().flatten() {
        per_call_s
            .entry(shape)
            .or_insert_with(|| time_gemm(&pool, shape));
    }
    let flops = |(m, n, k, _, _): Shape| 2.0 * (m * n * k) as f64;
    let bytes = |(m, n, k, _, _): Shape| 4.0 * (m * k + k * n + 2 * m * n) as f64;
    let (mut step_flops, mut step_bytes, mut step_s) = (0.0, 0.0, 0.0);
    for phase in ["fwd", "bwd"] {
        for l in GEMM_LAYERS {
            let calls = by_layer.get(&(phase, l)).map_or(&[][..], Vec::as_slice);
            let f: f64 = calls.iter().map(|&(s, c)| c as f64 * flops(s)).sum();
            let t: f64 = calls.iter().map(|&(s, c)| c as f64 * per_call_s[&s]).sum();
            step_flops += BATCH as f64 * f;
            step_bytes +=
                BATCH as f64 * calls.iter().map(|&(s, c)| c as f64 * bytes(s)).sum::<f64>();
            step_s += BATCH as f64 * t;
            let gflops = if t > 0.0 { f / t / 1e9 } else { 0.0 };
            layer.insert(
                format!("tensor.gemm.gflops.{phase}.{l}"),
                (gflops, "GFLOP/s"),
            );
        }
    }
    layer.insert(
        "tensor.gemm.gflops".into(),
        (step_flops / step_s / 1e9, "GFLOP/s"),
    );
    layer.insert("tensor.gemm.flops_per_step".into(), (step_flops, "flop"));
    layer.insert("tensor.gemm.bytes_per_step".into(), (step_bytes, "B"));
}

/// Median seconds per call of one GEMM shape, over at least 5 calls and
/// about 20 ms.
fn time_gemm(pool: &WorkerPool, (m, n, k, ta, tb): Shape) -> f64 {
    let mut state = (m * 31 + n * 17 + k) as u64;
    let a: Vec<f32> = (0..m * k).map(|_| unit(&mut state)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| unit(&mut state)).collect();
    let mut c = vec![0.0f32; m * n];
    let op = |t: bool| if t { Transpose::Yes } else { Transpose::No };
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5
        || (start.elapsed() < Duration::from_millis(20) && samples.len() < 10_000)
    {
        let t = Instant::now();
        {
            let _s = trace::span("tensor.gemm");
            Gemm::compute_parallel(pool, op(ta), op(tb), m, n, k, &a, &b, &mut c);
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    median(&samples)
}

/// Median step time of the Caffe-style baseline on the same stack
/// (`vgg_a_specs`, 32×32, batch 8): forward, backward, SGD update.
fn caffe_step_ms(batches: &[Batch]) -> f64 {
    let mut net = caffe::build(
        (3, IMAGE, IMAGE),
        BATCH,
        &spec::vgg_a_specs(CHANNEL_DIV, CLASSES),
        42,
    );
    let mut samples = Vec::new();
    for (i, b) in batches.iter().cycle().take(CAFFE_STEPS + 1).enumerate() {
        let t = Instant::now();
        {
            let _s = trace::span("baselines.caffe.step");
            net.set_input(&b.data);
            net.set_labels(&b.labels);
            net.forward();
            net.backward();
            net.sgd_step(0.01);
        }
        if i > 0 {
            samples.push(ms(t.elapsed()));
        }
    }
    median(&samples)
}
