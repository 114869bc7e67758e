//! Throughput harness: GEMM GFLOP/s and end-to-end images/sec across
//! thread counts, written as machine-readable `BENCH_throughput.json`.
//!
//! This starts the performance trajectory the ROADMAP asks for ("as fast
//! as the hardware allows"): every run records
//!
//! * **GEMM** — for each shape, the *seed* serial kernel (the axpy-style
//!   blocked loop this PR replaced, reproduced below as the labelled
//!   baseline), the new register-blocked serial [`Gemm::compute`], and
//!   [`Gemm::compute_parallel`] on a persistent [`WorkerPool`] at each
//!   requested thread count;
//! * **weight-stationary GEMM** — VGG-A's small-`m` conv shapes, per-call
//!   [`Gemm::compute`] (which re-packs `B` every call) against
//!   [`Gemm::compute_packed`] over a `B` packed once, the saving the
//!   executor's stationary conv operands bank;
//! * **end-to-end** — images/sec of full training iterations
//!   (forward+backward) for the Figure-13 nets at each thread count.
//!
//! A `host` block records the core count and the ISA the micro-kernel
//! dispatched on, so rows from different machines are not compared.
//!
//! Numbers are honest medians on whatever machine runs this; speedup
//! ratios are recorded alongside the raw throughput so regressions are
//! visible without a reference machine. The tuned-vs-default and
//! per-call-vs-packed ratios each come from one [`measure_paired`] run
//! of both sides.
//!
//! Flags: `--smoke` (tiny shapes, CI-fast), `--out <path>` (default
//! `BENCH_throughput.json`), `--validate <path>` (parse an existing
//! artifact, check its schema, and exit — the CI bench-smoke step).

use latte_bench::json::Json;
use latte_bench::schema::{STATIONARY_SHAPES, THROUGHPUT};
use latte_bench::{
    artifact_main, compile_or_die, measure, measure_paired, print_compile_stats, seeded,
};
use latte_core::OptLevel;
use latte_nn::models::{self, ModelConfig};
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::tune::Tuner;
use latte_runtime::{ExecConfig, Executor};
use latte_tensor::gemm::{cpu_features, Gemm, PackedB, Transpose};

/// The serial GEMM this PR replaced (the seed's packed axpy macro-kernel
/// with its default blocking), kept verbatim as the labelled baseline so
/// `parallel_gflops / seed_serial_gflops` measures exactly the
/// acceptance-criterion speedup.
fn seed_gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (kc, nc, mc) = (256, 512, 64);
    for jc in (0..n).step_by(nc) {
        let nb = nc.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            for ic in (0..m).step_by(mc) {
                let mb = mc.min(m - ic);
                for i in ic..ic + mb {
                    let c_row = &mut c[i * n + jc..i * n + jc + nb];
                    for p in pc..pc + kb {
                        let av = a[i * k + p];
                        let b_row = &b[p * n + jc..p * n + jc + nb];
                        for (cv, bv) in c_row.iter_mut().zip(b_row) {
                            *cv += av * bv;
                        }
                    }
                }
            }
        }
    }
}

fn gemm_section(smoke: bool, threads: &[usize]) -> Json {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(24, 32, 40), (48, 48, 48)]
    } else {
        &[
            (128, 128, 128),
            (256, 256, 256),
            (512, 512, 512),
            (512, 1024, 256),
            (31, 97, 113),
        ]
    };
    // One persistent pool per thread count, built once outside the timed
    // region — workers are never spawned inside an iteration.
    let pools: Vec<WorkerPool> = threads.iter().map(|&t| WorkerPool::new(t)).collect();
    let iters = if smoke { 2 } else { 3 };
    let mut entries = Vec::new();
    for &(m, n, k) in shapes {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let (a, b) = (seeded(m * k, 11), seeded(k * n, 13));
        let mut c = vec![0.0f32; m * n];

        let t_seed = measure(iters, || {
            c.fill(0.0);
            seed_gemm(m, n, k, &a, &b, &mut c);
        });
        let mut engine = Gemm::new();
        let t_serial = measure(iters, || {
            c.fill(0.0);
            engine.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c);
        });
        let seed_gflops = flops / t_seed / 1e9;
        let serial_gflops = flops / t_serial / 1e9;

        let mut parallel = Vec::new();
        for (pool, &t) in pools.iter().zip(threads) {
            let t_par = measure(iters, || {
                c.fill(0.0);
                Gemm::compute_parallel(pool, Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c);
            });
            let gflops = flops / t_par / 1e9;
            println!(
                "gemm {m}x{n}x{k}  threads={t}  {gflops:.2} GFLOP/s  ({:.2}x vs seed serial)",
                gflops / seed_gflops
            );
            parallel.push(Json::obj([
                ("threads", Json::Num(t as f64)),
                ("gflops", Json::Num(gflops)),
                ("speedup_vs_seed_serial", Json::Num(gflops / seed_gflops)),
                ("speedup_vs_blocked_serial", Json::Num(gflops / serial_gflops)),
            ]));
        }
        entries.push(Json::obj([
            ("m", Json::Num(m as f64)),
            ("n", Json::Num(n as f64)),
            ("k", Json::Num(k as f64)),
            ("seed_serial_gflops", Json::Num(seed_gflops)),
            ("blocked_serial_gflops", Json::Num(serial_gflops)),
            ("parallel", Json::Arr(parallel)),
        ]));
    }
    Json::Arr(entries)
}

/// Per-call packing against packed-once `B` (VGG-A's small-`m` conv
/// shapes, [`STATIONARY_SHAPES`]) on the serial engine. Both sides
/// compute the same bits; the gap is the strided `B` gather the
/// stationary path pays once per group run instead of once per call.
fn stationary_section(smoke: bool) -> Json {
    let (rounds, reps) = if smoke { (3, 20) } else { (15, 200) };
    let mut entries = Vec::new();
    for (m, n, k, tb) in STATIONARY_SHAPES {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let (a, b) = (seeded(m * k, 17), seeded(k * n, 19));
        let (mut c_call, mut c_packed) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let (mut per_call, mut stationary) = (Gemm::new(), Gemm::new());
        let mut packed = PackedB::default();
        stationary.pack_b(tb, k, n, &b, &mut packed);
        let (t_call, t_packed) = measure_paired(
            rounds,
            reps,
            || {
                per_call.compute(Transpose::No, tb, m, n, k, &a, &b, &mut c_call);
                std::hint::black_box(&mut c_call);
            },
            || {
                stationary
                    .compute_packed(Transpose::No, m, &a, &packed, &mut c_packed)
                    .expect("packed under this engine's blocking");
                std::hint::black_box(&mut c_packed);
            },
        );
        let (call_gflops, packed_gflops) = (flops / t_call / 1e9, flops / t_packed / 1e9);
        println!(
            "stationary gemm {m}x{n}x{k} tb={tb:?}  per-call {call_gflops:.2} GFLOP/s  \
             packed-once {packed_gflops:.2} GFLOP/s  ({:.2}x)",
            packed_gflops / call_gflops
        );
        entries.push(Json::obj([
            ("m", Json::Num(m as f64)),
            ("n", Json::Num(n as f64)),
            ("k", Json::Num(k as f64)),
            ("tb", Json::Bool(tb == Transpose::Yes)),
            ("per_call_gflops", Json::Num(call_gflops)),
            ("packed_once_gflops", Json::Num(packed_gflops)),
            ("speedup_vs_per_call", Json::Num(packed_gflops / call_gflops)),
        ]));
    }
    Json::Arr(entries)
}

/// Builds the Figure-13 nets sized for the mode.
fn fig13_nets(smoke: bool) -> Vec<(&'static str, models::Model)> {
    let mut out = Vec::new();
    if smoke {
        let cfg = ModelConfig {
            batch: 4,
            input_size: 12,
            channel_div: 8,
            classes: 10,
            with_loss: true,
            seed: 5,
        };
        out.push(("lenet", models::lenet(&cfg)));
    } else {
        let cfg = ModelConfig {
            batch: 8,
            input_size: 32,
            channel_div: 4,
            classes: 100,
            with_loss: true,
            seed: 5,
        };
        out.push(("vgg_prefix2", models::vgg_prefix(&cfg, 2)));
        out.push(("lenet", models::lenet(&ModelConfig { input_size: 28, ..cfg })));
    }
    out
}

/// Feeds every data ensemble the net declares (image data plus whatever
/// drives the loss — labels or an L2 target) with deterministic values.
fn feed_inputs(exec: &mut Executor, batch: usize) {
    let feeds: Vec<(String, usize)> = exec
        .compiled()
        .inputs
        .iter()
        .map(|i| (i.ensemble.clone(), i.len))
        .collect();
    for (seed_idx, (ensemble, len)) in feeds.iter().enumerate() {
        let values = seeded(batch * len, 17 + seed_idx as u32);
        exec.set_input(ensemble, &values).expect("input");
    }
}

/// End-to-end training throughput. Each thread count is measured as one
/// paired run of two schedules: the **default** (plain `compile`, every
/// eligible group dispatched to the pool) and the **tuned** one (the
/// autotuner's per-group parallel/serial decisions, GEMM blocking, and
/// tile override from `cache`). The headline `images_per_sec` and
/// `speedup_4t_vs_1t` are the tuned numbers — that is what `LATTE_TUNE=1`
/// users get. Every value in a result row comes from that row's run.
fn e2e_section(smoke: bool, threads: &[usize], cache: &std::path::Path) -> Json {
    let rounds = if smoke { 3 } else { 25 };
    let mut entries = Vec::new();
    for (name, model) in fig13_nets(smoke) {
        let batch = {
            let compiled = compile_or_die(&model.net, &OptLevel::full(), name);
            print_compile_stats(&compiled, name);
            compiled.batch
        };
        let mut results = Vec::new();
        let mut tuned_ips = Vec::new();
        let mut default_ips = Vec::new();
        for &t in threads {
            let mut tuner = Tuner::with_path(cache, t)
                .unwrap_or_else(|e| panic!("opening tuning cache: {e}"));
            let (schedule, compiled) = tuner
                .tune_net(&model.net, &OptLevel::full())
                .unwrap_or_else(|e| panic!("tuning {name}: {e}"));
            println!(
                "e2e {name}  threads={t}  tuned schedule: {} parallel, {} serial, tile={:?}, blocking={:?}",
                compiled.stats.groups_parallel,
                compiled.stats.groups_serial,
                schedule.tile_size,
                schedule.gemm_blocking
            );
            let mut tuned_exec = tuner
                .executor_for(compiled, &schedule)
                .unwrap_or_else(|e| panic!("lowering tuned {name}: {e}"));
            feed_inputs(&mut tuned_exec, batch);
            let mut default_exec = Executor::with_registry(
                compile_or_die(&model.net, &OptLevel::full(), name),
                &KernelRegistry::with_builtins(),
                ExecConfig { threads: t, arena: false, gemm_blocking: None },
            )
            .unwrap_or_else(|e| panic!("lowering {name}: {e}"));
            feed_inputs(&mut default_exec, batch);
            let (d_s, t_s) = measure_paired(
                rounds,
                1,
                || {
                    default_exec.forward();
                    default_exec.backward();
                },
                || {
                    tuned_exec.forward();
                    tuned_exec.backward();
                },
            );
            let (ips, d_ips) = (batch as f64 / t_s, batch as f64 / d_s);
            println!(
                "e2e {name}  threads={t}  tuned {ips:.1} images/sec  default {d_ips:.1}  (paired delta {:.3}x)",
                d_s / t_s
            );
            tuned_ips.push((t, ips));
            default_ips.push((t, d_ips));
            results.push(Json::obj([
                ("threads", Json::Num(t as f64)),
                ("images_per_sec", Json::Num(ips)),
                ("iter_ms", Json::Num(t_s * 1e3)),
                ("default_images_per_sec", Json::Num(d_ips)),
                ("tuned_speedup_vs_default", Json::Num(d_s / t_s)),
            ]));
        }
        let ratio = |pairs: &[(usize, f64)]| {
            let at = |want: usize| pairs.iter().find(|(t, _)| *t == want).map(|&(_, v)| v);
            match (at(4), at(1)) {
                (Some(four), Some(one)) if one > 0.0 => Json::Num(four / one),
                _ => Json::Null,
            }
        };
        entries.push(Json::obj([
            ("net", Json::Str(name.to_string())),
            ("batch", Json::Num(batch as f64)),
            ("results", Json::Arr(results)),
            ("speedup_4t_vs_1t", ratio(&tuned_ips)),
            ("default_speedup_4t_vs_1t", ratio(&default_ips)),
        ]));
    }
    Json::Arr(entries)
}

/// Tuned-vs-default GEMM deltas plus the tuning-cache counters. For each
/// shape the autotuner picks a blocking (kc pinned — tuning never
/// reassociates the k-sum), then the winner and the default blocking are
/// timed in one paired run.
fn tuned_section(smoke: bool, cache: &std::path::Path) -> Json {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(48, 48, 48)]
    } else {
        &[(256, 256, 256), (512, 512, 512)]
    };
    let (rounds, reps) = if smoke { (3, 5) } else { (15, 10) };
    let mut tuner =
        Tuner::with_path(cache, 1).unwrap_or_else(|e| panic!("opening tuning cache: {e}"));
    let mut entries = Vec::new();
    for &(m, n, k) in shapes {
        let (kc, nc, mc) = tuner
            .tune_gemm(m, n, k)
            .unwrap_or_else(|e| panic!("tuning gemm {m}x{n}x{k}: {e}"));
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let (a, b) = (seeded(m * k, 11), seeded(k * n, 13));
        let (mut c_default, mut c_tuned) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let mut default = Gemm::new();
        let mut tuned = Gemm::with_blocking(kc, nc, mc).expect("tuned blocking validates");
        let (t_default, t_tuned) = measure_paired(
            rounds,
            reps,
            || {
                c_default.fill(0.0);
                default.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c_default);
            },
            || {
                c_tuned.fill(0.0);
                tuned.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c_tuned);
            },
        );
        let (default_gflops, tuned_gflops) = (flops / t_default / 1e9, flops / t_tuned / 1e9);
        println!(
            "tuned gemm {m}x{n}x{k}  blocking kc={kc} nc={nc} mc={mc}  \
             {tuned_gflops:.2} GFLOP/s  ({:.3}x vs default blocking)",
            tuned_gflops / default_gflops
        );
        entries.push(Json::obj([
            ("m", Json::Num(m as f64)),
            ("n", Json::Num(n as f64)),
            ("k", Json::Num(k as f64)),
            (
                "tuned_blocking",
                Json::obj([
                    ("kc", Json::Num(kc as f64)),
                    ("nc", Json::Num(nc as f64)),
                    ("mc", Json::Num(mc as f64)),
                ]),
            ),
            ("default_gflops", Json::Num(default_gflops)),
            ("tuned_gflops", Json::Num(tuned_gflops)),
            ("speedup_vs_default", Json::Num(tuned_gflops / default_gflops)),
        ]));
    }
    // Warm-reuse proof in the artifact itself: re-tuning every shape must
    // answer from the cache without a single new measurement.
    let before = tuner.stats();
    for &(m, n, k) in shapes {
        tuner.tune_gemm(m, n, k).expect("warm gemm tune");
    }
    let after = tuner.stats();
    assert_eq!(
        after.measurements, before.measurements,
        "warm tune_gemm re-measured — cache replay is broken"
    );
    Json::obj([
        ("gemm", Json::Arr(entries)),
        (
            "cache",
            Json::obj([
                ("entries", Json::Num(tuner.len() as f64)),
                ("measurements", Json::Num(after.measurements as f64)),
                ("cache_hits", Json::Num(after.cache_hits as f64)),
                ("cache_misses", Json::Num(after.cache_misses as f64)),
                (
                    "warm_extra_measurements",
                    Json::Num((after.measurements - before.measurements) as f64),
                ),
            ]),
        ),
    ])
}

fn main() {
    artifact_main(&THROUGHPUT, |smoke| {
        let threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
        println!(
            "throughput harness ({} mode), thread counts {threads:?}, LATTE_THREADS={}",
            if smoke { "smoke" } else { "full" },
            ExecConfig::env_threads(),
        );

        // The tuning cache for this run: start cold so the artifact records
        // a full campaign (the warm-replay proof runs inside tuned_section).
        let mut cache = std::env::temp_dir();
        cache.push(format!("latte_bench_tune_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&cache);

        let gemm = gemm_section(smoke, threads);
        let gemm_stationary = stationary_section(smoke);
        let e2e = e2e_section(smoke, threads, &cache);
        let tuned = tuned_section(smoke, &cache);
        let _ = std::fs::remove_file(&cache);

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        vec![
            ("threads", Json::Arr(threads.iter().map(|&t| Json::Num(t as f64)).collect())),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(nproc as f64)),
                    ("cpu_features", Json::Str(cpu_features().into())),
                ]),
            ),
            ("gemm", gemm),
            ("gemm_stationary", gemm_stationary),
            ("e2e", e2e),
            ("tuned", tuned),
        ]
    });
}
