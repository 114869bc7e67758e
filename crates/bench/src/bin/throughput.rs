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
//! visible without a reference machine.
//!
//! Flags: `--smoke` (tiny shapes, CI-fast), `--out <path>` (default
//! `BENCH_throughput.json`), `--validate <path>` (parse an existing
//! artifact, check its schema, and exit — the CI bench-smoke step).

use latte_bench::json::{parse, Json};
use latte_bench::{compile_or_die, measure, print_compile_stats, seeded};
use latte_core::OptLevel;
use latte_nn::models::{self, ModelConfig};
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::tune::Tuner;
use latte_runtime::{ExecConfig, Executor};
use latte_tensor::gemm::{cpu_features, Gemm, PackedB, Transpose};

/// Default blocking of [`Gemm::new`], spelled out so the tuned section can
/// tell "tuner kept the default" from "tuner found a better blocking".
const DEFAULT_BLOCKING: (usize, usize, usize) = (256, 512, 64);

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

struct Args {
    smoke: bool,
    out: String,
    validate: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_throughput.json".to_string(),
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--validate" => args.validate = Some(it.next().expect("--validate needs a path")),
            other => {
                eprintln!("unknown flag {other}; flags: --smoke --out <path> --validate <path>");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Median seconds per call with a bench budget suited to the mode.
fn med(smoke: bool, f: impl FnMut()) -> f64 {
    measure(if smoke { 2 } else { 3 }, f)
}

/// Best of two median rounds — used where two configurations are
/// *compared* (tuned vs default, 4t vs 1t), so a single noisy round
/// can't fabricate a delta. Both sides always get the same treatment.
fn med2(smoke: bool, mut f: impl FnMut()) -> f64 {
    let first = med(smoke, &mut f);
    first.min(med(smoke, &mut f))
}

/// Paired interleaved timing of two executors: every round runs one
/// iteration of each, back-to-back, and the per-executor medians come
/// from the same load windows. This is the only honest way to compare
/// two configurations on a shared host — sequential campaigns let a
/// background-load burst pollute one side's entire measurement.
fn paired_med(smoke: bool, a: &mut Executor, b: &mut Executor) -> (f64, f64) {
    let (warmup, rounds) = if smoke { (1, 3) } else { (2, 25) };
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    for run in 0..warmup + rounds {
        let s = std::time::Instant::now();
        a.forward();
        a.backward();
        let da = s.elapsed().as_secs_f64();
        let s = std::time::Instant::now();
        b.forward();
        b.backward();
        let db = s.elapsed().as_secs_f64();
        if run >= warmup {
            ta.push(da);
            tb.push(db);
        }
    }
    let med_of = |mut v: Vec<f64>| {
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v[v.len() / 2]
    };
    (med_of(ta), med_of(tb))
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
    let mut entries = Vec::new();
    for &(m, n, k) in shapes {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let a = seeded(m * k, 11);
        let b = seeded(k * n, 13);
        let mut c = vec![0.0f32; m * n];

        let t_seed = med(smoke, || {
            c.fill(0.0);
            seed_gemm(m, n, k, &a, &b, &mut c);
        });
        let mut engine = Gemm::new();
        let t_serial = med(smoke, || {
            c.fill(0.0);
            engine.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c);
        });
        let seed_gflops = flops / t_seed / 1e9;
        let serial_gflops = flops / t_serial / 1e9;

        let mut parallel = Vec::new();
        for (pool, &t) in pools.iter().zip(threads) {
            let t_par = med(smoke, || {
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

/// VGG-A's small-`m` conv GEMMs (channel_div 4, 32×32): conv5 forward
/// over a 2-row and an 8-row tile (`op(B) = Wᵀ`), and conv5
/// backward-data (`B = W`). `(m, n, k, tb)`.
const STATIONARY_SHAPES: [(usize, usize, usize, Transpose); 3] = [
    (2, 128, 1152, Transpose::Yes),
    (8, 128, 1152, Transpose::Yes),
    (2, 1152, 128, Transpose::No),
];

/// Per-call packing against packed-once `B` on the serial engine. Both
/// sides compute the same bits; the gap is the strided `B` gather the
/// stationary path pays once per group run instead of once per call.
fn stationary_section(smoke: bool) -> Json {
    let mut entries = Vec::new();
    for (m, n, k, tb) in STATIONARY_SHAPES {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let a = seeded(m * k, 17);
        let b = seeded(k * n, 19);
        let (mut c_call, mut c_packed) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let (mut per_call, mut stationary) = (Gemm::new(), Gemm::new());
        let mut packed = PackedB::default();
        stationary.pack_b(tb, k, n, &b, &mut packed);
        let (t_call, t_packed) = paired_calls(
            smoke,
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

/// Median seconds per call of two closures timed in alternating rounds,
/// so a load burst on a shared host lands on both sides.
fn paired_calls(smoke: bool, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (rounds, reps) = if smoke { (3, 20) } else { (15, 200) };
    let time = |f: &mut dyn FnMut()| {
        let s = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        s.elapsed().as_secs_f64() / reps as f64
    };
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        ta.push(time(&mut a));
        tb.push(time(&mut b));
    }
    let med_of = |mut v: Vec<f64>| {
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v[v.len() / 2]
    };
    (med_of(ta), med_of(tb))
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

/// End-to-end training throughput. Each thread count is measured twice:
/// the **default** schedule (plain `compile`, every eligible group
/// dispatched to the pool) and the **tuned** schedule (the autotuner's
/// per-group parallel/serial decisions, GEMM blocking, and tile override
/// from `cache`). The headline `images_per_sec` and `speedup_4t_vs_1t`
/// are the tuned numbers — that is what `LATTE_TUNE=1` users get, and the
/// per-group serial fallback is exactly the fix for the 4-thread
/// regression the default path records alongside.
fn e2e_section(smoke: bool, threads: &[usize], cache: &std::path::Path) -> Json {
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
        // Tuned schedules with zero pool-dispatched groups execute
        // identically at every thread count (workers park untouched), so
        // equal schedules share one measurement — same principle as the
        // equal-blocking GEMM rows: noise must not fabricate a delta
        // between provably identical executions.
        let mut serial_memo: Vec<(latte_core::TunedSchedule, f64)> = Vec::new();
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
            let pool_free = compiled.stats.groups_parallel == 0;
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
            // The tuned-vs-default delta comes from this paired run; both
            // sides share every load window.
            let (d_s, t_s) = paired_med(smoke, &mut default_exec, &mut tuned_exec);
            let d_ips = batch as f64 / d_s;
            // The headline tuned number (and the 4t/1t ratio): equal
            // pool-free schedules are one execution, so they share one
            // measurement and cross-thread noise can't fake a delta.
            let memoized = pool_free
                .then(|| serial_memo.iter().find(|(s, _)| *s == schedule).map(|&(_, v)| v))
                .flatten();
            let iter_s = match memoized {
                Some(v) => v,
                None => {
                    if pool_free {
                        serial_memo.push((schedule.clone(), t_s));
                    }
                    t_s
                }
            };
            let ips = batch as f64 / iter_s;
            println!(
                "e2e {name}  threads={t}  tuned {ips:.1} images/sec  default {d_ips:.1}  (paired delta {:.3}x)",
                d_s / t_s
            );
            tuned_ips.push((t, ips));
            default_ips.push((t, d_ips));
            results.push(Json::obj([
                ("threads", Json::Num(t as f64)),
                ("images_per_sec", Json::Num(ips)),
                ("iter_ms", Json::Num(iter_s * 1e3)),
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
/// reassociates the k-sum), then the winner and the default are timed
/// with the same harness. When the tuner keeps the default blocking the
/// two rows are one measurement — identical configuration, ratio exactly
/// 1.0 — so noise can't fabricate a delta where none exists.
fn tuned_section(smoke: bool, cache: &std::path::Path) -> Json {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(48, 48, 48)]
    } else {
        &[(256, 256, 256), (512, 512, 512)]
    };
    let mut tuner =
        Tuner::with_path(cache, 1).unwrap_or_else(|e| panic!("opening tuning cache: {e}"));
    let mut entries = Vec::new();
    for &(m, n, k) in shapes {
        let (kc, nc, mc) = tuner
            .tune_gemm(m, n, k)
            .unwrap_or_else(|e| panic!("tuning gemm {m}x{n}x{k}: {e}"));
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let a = seeded(m * k, 11);
        let b = seeded(k * n, 13);
        let mut c = vec![0.0f32; m * n];
        let mut time_with = |blocking: (usize, usize, usize)| {
            let mut engine = Gemm::with_blocking(blocking.0, blocking.1, blocking.2)
                .expect("tuned blocking validates");
            let t = med2(smoke, || {
                c.fill(0.0);
                engine.compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c);
            });
            flops / t / 1e9
        };
        let default_gflops = time_with(DEFAULT_BLOCKING);
        let tuned_gflops = if (kc, nc, mc) == DEFAULT_BLOCKING {
            default_gflops
        } else {
            time_with((kc, nc, mc))
        };
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

/// Schema check for a written artifact. Returns a list of violations.
fn validate_doc(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some("latte-throughput/v2") {
        errs.push("missing or wrong `schema` (want \"latte-throughput/v2\")".into());
    }
    if doc.get("threads").and_then(Json::as_arr).is_none_or(<[Json]>::is_empty) {
        errs.push("`threads` must be a non-empty array".into());
    }
    match doc.get("gemm").and_then(Json::as_arr) {
        None => errs.push("`gemm` must be an array".into()),
        Some(entries) => {
            if entries.is_empty() {
                errs.push("`gemm` is empty".into());
            }
            for (i, e) in entries.iter().enumerate() {
                for key in ["m", "n", "k", "seed_serial_gflops", "blocked_serial_gflops"] {
                    if e.get(key).and_then(Json::as_num).is_none() {
                        errs.push(format!("gemm[{i}].{key} missing or not a number"));
                    }
                }
                match e.get("parallel").and_then(Json::as_arr) {
                    None => errs.push(format!("gemm[{i}].parallel must be an array")),
                    Some(ps) => {
                        for (j, p) in ps.iter().enumerate() {
                            for key in ["threads", "gflops", "speedup_vs_seed_serial"] {
                                if p.get(key).and_then(Json::as_num).is_none() {
                                    errs.push(format!(
                                        "gemm[{i}].parallel[{j}].{key} missing or not a number"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    match doc.get("host") {
        None => errs.push("`host` must be an object".into()),
        Some(host) => {
            if host.get("nproc").and_then(Json::as_num).is_none() {
                errs.push("host.nproc missing or not a number".into());
            }
            if host.get("cpu_features").and_then(Json::as_str).is_none() {
                errs.push("host.cpu_features missing or not a string".into());
            }
        }
    }
    match doc.get("gemm_stationary").and_then(Json::as_arr) {
        None => errs.push("`gemm_stationary` must be an array".into()),
        Some(entries) => {
            if entries.len() != STATIONARY_SHAPES.len() {
                errs.push(format!(
                    "`gemm_stationary` has {} rows, want one per VGG shape ({})",
                    entries.len(),
                    STATIONARY_SHAPES.len()
                ));
            }
            for (i, e) in entries.iter().enumerate() {
                for key in [
                    "m",
                    "n",
                    "k",
                    "per_call_gflops",
                    "packed_once_gflops",
                    "speedup_vs_per_call",
                ] {
                    if e.get(key).and_then(Json::as_num).is_none() {
                        errs.push(format!("gemm_stationary[{i}].{key} missing or not a number"));
                    }
                }
                if !matches!(e.get("tb"), Some(Json::Bool(_))) {
                    errs.push(format!("gemm_stationary[{i}].tb missing or not a bool"));
                }
            }
        }
    }
    match doc.get("e2e").and_then(Json::as_arr) {
        None => errs.push("`e2e` must be an array".into()),
        Some(entries) => {
            if entries.is_empty() {
                errs.push("`e2e` is empty".into());
            }
            for (i, e) in entries.iter().enumerate() {
                if e.get("net").and_then(Json::as_str).is_none() {
                    errs.push(format!("e2e[{i}].net missing"));
                }
                match e.get("results").and_then(Json::as_arr) {
                    None => errs.push(format!("e2e[{i}].results must be an array")),
                    Some(rs) => {
                        for (j, r) in rs.iter().enumerate() {
                            for key in [
                                "threads",
                                "images_per_sec",
                                "iter_ms",
                                "default_images_per_sec",
                                "tuned_speedup_vs_default",
                            ] {
                                if r.get(key).and_then(Json::as_num).is_none() {
                                    errs.push(format!(
                                        "e2e[{i}].results[{j}].{key} missing or not a number"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let tuned = doc.get("tuned");
    match tuned.and_then(|t| t.get("gemm")).and_then(Json::as_arr) {
        None => errs.push("`tuned.gemm` must be an array".into()),
        Some(entries) => {
            if entries.is_empty() {
                errs.push("`tuned.gemm` is empty".into());
            }
            for (i, e) in entries.iter().enumerate() {
                for key in ["m", "n", "k", "default_gflops", "tuned_gflops", "speedup_vs_default"]
                {
                    if e.get(key).and_then(Json::as_num).is_none() {
                        errs.push(format!("tuned.gemm[{i}].{key} missing or not a number"));
                    }
                }
                for key in ["kc", "nc", "mc"] {
                    if e.get("tuned_blocking").and_then(|b| b.get(key)).and_then(Json::as_num)
                        .is_none()
                    {
                        errs.push(format!(
                            "tuned.gemm[{i}].tuned_blocking.{key} missing or not a number"
                        ));
                    }
                }
            }
        }
    }
    match tuned.and_then(|t| t.get("cache")) {
        None => errs.push("`tuned.cache` must be an object".into()),
        Some(cache) => {
            for key in ["entries", "measurements", "cache_hits", "cache_misses"] {
                if cache.get(key).and_then(Json::as_num).is_none() {
                    errs.push(format!("tuned.cache.{key} missing or not a number"));
                }
            }
            match cache.get("warm_extra_measurements").and_then(Json::as_num) {
                None => errs.push("tuned.cache.warm_extra_measurements missing".into()),
                Some(x) if x != 0.0 => {
                    errs.push("tuned.cache.warm_extra_measurements must be 0 (warm replay)".into());
                }
                Some(_) => {}
            }
        }
    }
    errs
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.validate {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
        let errs = validate_doc(&doc);
        if errs.is_empty() {
            println!("{path}: schema OK");
            return;
        }
        for e in &errs {
            eprintln!("{path}: {e}");
        }
        std::process::exit(1);
    }

    let threads: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    println!(
        "throughput harness ({} mode), thread counts {threads:?}, LATTE_THREADS={}",
        if args.smoke { "smoke" } else { "full" },
        ExecConfig::env_threads(),
    );

    // The tuning cache for this run: start cold so the artifact records a
    // full campaign (the warm-replay proof runs inside tuned_section).
    let mut cache = std::env::temp_dir();
    cache.push(format!("latte_bench_tune_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&cache);

    let gemm = gemm_section(args.smoke, threads);
    let gemm_stationary = stationary_section(args.smoke);
    let e2e = e2e_section(args.smoke, threads, &cache);
    let tuned = tuned_section(args.smoke, &cache);
    let _ = std::fs::remove_file(&cache);

    let doc = Json::obj([
        ("schema", Json::Str("latte-throughput/v2".into())),
        ("smoke", Json::Bool(args.smoke)),
        (
            "threads",
            Json::Arr(threads.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                ("cpu_features", Json::Str(cpu_features().into())),
            ]),
        ),
        ("gemm", gemm),
        ("gemm_stationary", gemm_stationary),
        ("e2e", e2e),
        ("tuned", tuned),
    ]);
    std::fs::write(&args.out, doc.render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);
}
