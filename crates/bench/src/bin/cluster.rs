//! Cluster harness for the real transport: overlap efficiency of the
//! layer-by-layer streamed ring all-reduce, synchronized step time, and
//! the degraded-mode (post-eviction, lossy) step time, written as
//! machine-readable `BENCH_cluster.json`.
//!
//! Everything runs in-process over the channel transport — real frames,
//! real CRCs, real deadlines — so the numbers measure the communicator,
//! not the kernel of the day. The fault section injects a genuine node
//! crash through `FaultyTransport` and times the survivors before and
//! after the ring heals.
//!
//! Flags: `--smoke` (tiny model, CI-fast), `--out <path>` (default
//! `BENCH_cluster.json`), `--validate <path>` (parse an existing
//! artifact, check its schema, and exit — the CI bench-smoke step).

use std::sync::Arc;

use latte_bench::artifact_main;
use latte_bench::json::Json;
use latte_bench::schema::CLUSTER;
use latte_core::{compile, OptLevel};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::data::Batch;
use latte_runtime::dist::{DistStats, DistTrainer};
use latte_runtime::fault::{Fault, FaultPlan, FaultyTransport};
use latte_runtime::ring::{CommPolicy, SyncMode};
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::transport::{channel_group, channel_group_with};
use latte_runtime::Executor;

struct Shape {
    batch: usize,
    input: usize,
    classes: usize,
    hidden: Vec<usize>,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape { batch: 4, input: 6, classes: 3, hidden: vec![8] }
    } else {
        Shape { batch: 8, input: 24, classes: 10, hidden: vec![64, 48, 32] }
    }
}

fn build_executor(sh: &Shape) -> Executor {
    let cfg = ModelConfig {
        batch: sh.batch,
        input_size: sh.input,
        channel_div: 1,
        classes: sh.classes,
        with_loss: true,
        seed: 7,
    };
    Executor::new(compile(&mlp(&cfg, &sh.hidden).net, &OptLevel::full()).expect("compile"))
        .expect("executor")
}

fn solver() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.05 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    })
}

fn shard(sh: &Shape, step: u32, rank: usize) -> Batch {
    let mut inputs = Vec::with_capacity(sh.batch * sh.input);
    let mut labels = Vec::with_capacity(sh.batch);
    for item in 0..sh.batch {
        let g = 7u64
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((step as u64) << 24)
            .wrapping_add((rank as u64) << 12)
            .wrapping_add(item as u64);
        let class = (g % sh.classes as u64) as usize;
        for j in 0..sh.input {
            let base = if j % sh.classes == class { 1.0 } else { 0.1 };
            inputs.push(base + ((g >> 8).wrapping_add(j as u64) % 7) as f32 * 0.01);
        }
        labels.push(class as f32);
    }
    vec![("data".into(), inputs), ("label".into(), labels)]
}

struct RankOutcome {
    stats: DistStats,
    /// Mean step wall-clock before the first lossy step, ms.
    sync_step_ms: f64,
    /// Mean step wall-clock of the lossy steps, ms (NaN when none ran).
    lossy_step_ms: f64,
}

/// The arithmetic mean; NaN for no values.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `steps` distributed steps on every rank of `endpoints` and
/// returns the per-rank timing outcomes (ranks whose trainer errored —
/// e.g. the crashed one — are dropped).
fn run_world<W: latte_runtime::transport::Wire>(
    endpoints: Vec<latte_runtime::transport::Endpoint<W>>,
    policy: CommPolicy,
    sh: Arc<Shape>,
    steps: u32,
) -> Vec<RankOutcome> {
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || {
                let exec = build_executor(&sh);
                let mut trainer = DistTrainer::new(exec, Box::new(ep), policy).ok()?;
                let mut solver = solver();
                let mut sync = Vec::new();
                let mut lossy = Vec::new();
                for step in 0..steps {
                    let batch = shard(&sh, step, rank);
                    let t = std::time::Instant::now();
                    match trainer.step(&batch, &mut |e| solver.step(e)) {
                        Ok(rep) => {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            if rep.mode == SyncMode::LossyDegraded {
                                lossy.push(ms);
                            } else {
                                sync.push(ms);
                            }
                        }
                        Err(_) => return None,
                    }
                }
                Some(RankOutcome {
                    stats: trainer.stats(),
                    sync_step_ms: mean(&sync),
                    lossy_step_ms: mean(&lossy),
                })
            })
        })
        .collect();
    handles
        .into_iter()
        .filter_map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

fn overlap_section(smoke: bool, world: usize, steps: u32) -> Json {
    let sh = Arc::new(shape(smoke));
    let endpoints = channel_group(world).expect("channel group");
    let outs = run_world(endpoints, CommPolicy::default(), sh, steps);
    assert_eq!(outs.len(), world, "a clean run must not lose ranks");
    let agg = outs.iter().fold(DistStats::default(), |mut a, o| {
        a.steps += o.stats.steps;
        a.comm_ms += o.stats.comm_ms;
        a.exposed_ms += o.stats.exposed_ms;
        a.backward_ms += o.stats.backward_ms;
        a
    });
    let sync_ms = outs.iter().map(|o| o.sync_step_ms).sum::<f64>() / outs.len() as f64;
    let eff = {
        let mut s = agg;
        s.steps /= world as u64;
        s.overlap_efficiency()
    };
    println!(
        "overlap: world={world} steps={steps}  comm={:.2}ms exposed={:.2}ms  efficiency={:.3}  step={:.2}ms",
        agg.comm_ms, agg.exposed_ms, eff, sync_ms
    );
    Json::obj([
        ("world", Json::Num(world as f64)),
        ("steps", Json::Num(steps as f64)),
        ("comm_ms", Json::Num(agg.comm_ms)),
        ("exposed_ms", Json::Num(agg.exposed_ms)),
        ("backward_ms", Json::Num(agg.backward_ms)),
        ("overlap_efficiency", Json::Num(eff)),
        ("sync_step_ms", Json::Num(sync_ms)),
    ])
}

fn degraded_section(smoke: bool, world: usize, steps: u32) -> Json {
    let sh = Arc::new(shape(smoke));
    let crash_at = 1u32;
    let plan = FaultPlan::new(vec![Fault::NodeCrash { node: world - 1, iter: crash_at as usize }]);
    let endpoints = channel_group_with(world, |rank, wire| {
        let p = if rank == world - 1 { plan.clone() } else { FaultPlan::none() };
        FaultyTransport::new(rank, p, wire)
    })
    .expect("faulty channel group");
    let policy = CommPolicy {
        op_timeout_ms: 500,
        max_retries: 2,
        lossy_timeout_ms: 150,
        ..CommPolicy::default()
    };
    let outs = run_world(endpoints, policy, sh, steps);
    assert!(
        outs.len() >= world - 1,
        "survivors must finish the degraded run"
    );
    let survivors: Vec<&RankOutcome> =
        outs.iter().filter(|o| o.stats.lossy_steps > 0).collect();
    assert!(!survivors.is_empty(), "the crash must degrade someone");
    let finite_mean = |f: fn(&RankOutcome) -> f64| {
        mean(&survivors.iter().map(|o| f(o)).filter(|v| v.is_finite()).collect::<Vec<_>>())
    };
    let sync_ms = finite_mean(|o| o.sync_step_ms);
    let lossy_ms = finite_mean(|o| o.lossy_step_ms);
    println!(
        "degraded: world={world} crash_at={crash_at}  sync_step={sync_ms:.2}ms  lossy_step={lossy_ms:.2}ms"
    );
    Json::obj([
        ("world", Json::Num(world as f64)),
        ("steps", Json::Num(steps as f64)),
        ("crash_at_step", Json::Num(crash_at as f64)),
        ("sync_step_ms", Json::Num(sync_ms)),
        ("lossy_step_ms", Json::Num(lossy_ms)),
        (
            "lossy_steps",
            Json::Num(survivors.iter().map(|o| o.stats.lossy_steps).sum::<u64>() as f64),
        ),
    ])
}

fn main() {
    artifact_main(&CLUSTER, |smoke| {
        let (world, steps) = if smoke { (4, 4) } else { (4, 12) };
        println!(
            "cluster harness ({} mode), world {world}, {steps} steps",
            if smoke { "smoke" } else { "full" }
        );
        vec![
            ("overlap", overlap_section(smoke, world, steps)),
            ("degraded", degraded_section(smoke, world, steps)),
        ]
    });
}
