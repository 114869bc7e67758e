//! End-to-end benchmark of the latte workspace.
//!
//! One command runs one of three workloads, each on a different part of
//! the stack:
//!
//! * `train_vgg` — closed-loop SGD training of the paper's VGG-A (the
//!   Fig. 13 net): fused conv groups, GEMMs, pooling, the solver.
//! * `serve_lenet` — open-loop LeNet inference over loopback TCP: the
//!   framed protocol, the dynamic batcher and forward-only execution at
//!   micro-batches 1..=8, with zero compiles after warm-up.
//! * `cold_dynshape` — repeated cold starts of the variable-length LSTM
//!   bucket server: every plan is compiled and lowered on demand.
//!
//! `BENCHMARK.json` gates `train_vgg` and `cold_dynshape`; `serve_lenet`
//! is measured by every traced run (see `README.md` for why it is not
//! gated end to end).
//!
//! Usage: `latte-e2e-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. The seed fixes every generated input. With
//! `--trace 0` the last stdout line reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run (see
//! [`traced`]). Outputs are checked against references outside the timed
//! windows; every failed or wrong operation is counted.

mod cold;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// splitmix64: the seeded generator behind every benchmark input.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in [-1, 1).
pub fn unit(state: &mut u64) -> f32 {
    ((splitmix64(state) >> 40) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0
}

/// An executor configuration with `threads` workers and the defaults
/// otherwise (no arena, default GEMM blocking).
pub fn exec_cfg(threads: usize) -> latte_runtime::ExecConfig {
    latte_runtime::ExecConfig {
        threads,
        arena: false,
        gemm_blocking: None,
    }
}

/// Per-layer metrics by name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Environment variables that would silently change the program under
/// test (thread count, tuned schedules, sentinel scans, IR dumps).
const REFUSED_ENV: [&str; 5] = [
    "LATTE_THREADS",
    "LATTE_TUNE",
    "LATTE_SENTINEL_MODE",
    "LATTE_DUMP_IR",
    "LATTE_VERIFY_IR",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    Serve,
    Cold,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Train, Workload::Serve, Workload::Cold];

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train_vgg",
            Workload::Serve => "serve_lenet",
            Workload::Cold => "cold_dynshape",
        }
    }

    fn run(self, seed: u64, budget: Duration) -> Run {
        match self {
            Workload::Train => train::run(seed, budget),
            Workload::Serve => serve::run(seed, budget),
            Workload::Cold => cold::run(seed, budget),
        }
    }
}

/// The end-to-end metrics every workload reports, each read the way its
/// workload defines it (see `README.md`).
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Median time from workload start to ready, over several set-ups.
    pub setup_s: f64,
    /// Training images/s, serving capacity (requests/s) or cold-start
    /// requests/s over whole episodes.
    pub throughput_per_s: f64,
    /// Median training step, serving request or cold-start burst time.
    pub p50_ms: f64,
}

impl E2e {
    fn metrics(&self) -> [(&'static str, f64, &'static str); 3] {
        [
            ("setup_s", self.setup_s, "s"),
            ("throughput_per_s", self.throughput_per_s, "1/s"),
            ("p50_ms", self.p50_ms, "ms"),
        ]
    }
}

/// One workload run.
#[derive(Debug)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed and every timed phase was valid.
    pub correct: bool,
    pub e2e: E2e,
    /// Filled only while tracing is enabled.
    pub layer: Metrics,
}

impl Run {
    /// Records a failed check: the run is no longer correct.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.correct = false;
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let isa = [
        ("avx2", std::is_x86_feature_detected!("avx2")),
        ("fma", std::is_x86_feature_detected!("fma")),
        ("avx512f", std::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let isa = [("avx2", false), ("fma", false), ("avx512f", false)];
    let isa: Vec<String> = isa.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"isa\":{{{}}},\"rustc\":\"{}\",\"commit\":\"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        isa.join(","),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_GIT_COMMIT"),
    )
}

/// The traced run: the selected workload untraced, then all three
/// workloads with span recording on, so every per-layer metric is
/// measured whichever workload is selected. Tracing overhead is the
/// selected workload's traced end-to-end figures minus its untraced ones
/// over the same run length. Spans are written to
/// `.bench_out/trace-<workload>-seed<seed>.jsonl`.
fn traced(workload: Workload, seed: u64, budget: Duration) -> Run {
    let half = budget / 2;
    let base = workload.run(seed, half);
    trace::set_enabled(true);
    let mut out = Run {
        attempted: base.attempted,
        failed: base.failed,
        correct: base.correct,
        e2e: base.e2e,
        layer: Metrics::new(),
    };
    let mut traced_e2e = base.e2e;
    for w in Workload::ALL {
        let r = w.run(seed, if w == workload { half } else { budget / 4 });
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.correct &= r.correct;
        out.layer.extend(r.layer);
        if w == workload {
            traced_e2e = r.e2e;
        }
    }
    trace::set_enabled(false);
    for ((name, untraced, unit), (_, with, _)) in
        base.e2e.metrics().into_iter().zip(traced_e2e.metrics())
    {
        out.layer
            .insert(format!("trace.overhead.{name}"), (with - untraced, unit));
    }
    let spans = trace::take();
    let self_ms = trace::layer_self_ms(&spans);
    for layer in ["bench", "tensor", "core", "runtime", "serve", "baselines"] {
        let v = self_ms.get(layer).copied().unwrap_or(0.0);
        out.layer
            .insert(format!("trace.self_ms.{layer}"), (v, "ms"));
    }
    let path =
        PathBuf::from(".bench_out").join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    if let Err(e) = trace::write(&path, &spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: latte-e2e-bench --workload <train_vgg|serve_lenet|cold_dynshape> --seed <n> --seconds <1..=60> --trace <0|1>");
        exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!("refusing to run: build with --release");
        exit(2);
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run: {var} is set and would change the program under test");
        exit(2);
    }
    println!("{}", provenance(&args));
    let budget = Duration::from_secs(args.seconds);
    let run = if args.trace {
        traced(args.workload, args.seed, budget)
    } else {
        args.workload.run(args.seed, budget)
    };
    let mut correct = run.correct;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        run.layer.into_iter().map(|(k, (v, u))| (k, v, u)).collect()
    } else {
        run.e2e
            .metrics()
            .into_iter()
            .map(|(k, v, u)| (k.to_string(), v, u))
            .collect()
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("metric {name} is not finite");
                correct = false;
                -1.0
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(",")
    );
}
