//! Fault-tolerant training: a 4-rank ring all-reduce over real frames
//! surviving a dropped gradient transfer, a straggler, and a node crash,
//! then a single-node training run killed mid-epoch and resumed from the
//! supervisor's checkpoint.
//!
//! ```text
//! cargo run --release --example fault_tolerance [--seed N]
//! ```
//!
//! With `--seed N` the ring faults are sampled randomly (but
//! reproducibly) from `FaultRates` instead of the scripted plan. The
//! ring runs on real threads, so its timings and retry counts vary from
//! run to run; the plan and the supervised run do not.

use std::time::Duration;

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::MemoryDataSource;
use latte::runtime::fault::{Fault, FaultPlan, FaultRates, FaultyTransport};
use latte::runtime::metrics::FaultMetrics;
use latte::runtime::ring::{BucketReport, CommPolicy, RingComm};
use latte::runtime::solver::{LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig};
use latte::runtime::transport::{channel_group_with, Transport};
use latte::runtime::Executor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed = match args.next().as_deref() {
        Some("--seed") => {
            let v = args
                .next()
                .ok_or("--seed requires a value, e.g. --seed 7")?;
            Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?)
        }
        Some(other) => {
            return Err(
                format!("unknown argument {other:?}; usage: fault_tolerance [--seed N]").into(),
            )
        }
        None => None,
    };

    // --- 1. Ring under fire -------------------------------------------
    let ranks = 4;
    let steps = 12u32;
    let plan = match seed {
        Some(s) => {
            println!("random fault plan, seed {s}:");
            FaultPlan::random(s, ranks, steps as usize, 1, &FaultRates::default())
        }
        None => {
            println!("scripted fault plan:");
            FaultPlan::new(vec![
                Fault::TransferDrop {
                    node: 0,
                    iter: 2,
                    layer: 0,
                },
                Fault::Straggler {
                    node: 1,
                    from_iter: 4,
                    to_iter: 7,
                    factor: 4.0,
                },
                Fault::NodeCrash { node: 2, iter: 8 },
            ])
        }
    };
    for f in plan.faults() {
        println!("  {f:?}");
    }

    let policy = CommPolicy {
        op_timeout_ms: 400,
        max_retries: 2,
        backoff_base_ms: 1.0,
        backoff_cap_ms: 5.0,
        jitter: 0.1,
        lossy_timeout_ms: 200,
        ..CommPolicy::default()
    };
    let endpoints = channel_group_with(ranks, |rank, wire| {
        FaultyTransport::new(rank, plan.clone(), wire).with_straggle_unit(Duration::from_millis(20))
    })?;
    // Each rank all-reduces one 4096-float bucket per step on its own
    // thread, as the distributed trainer's comm thread would.
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            std::thread::spawn(move || {
                let metrics = std::sync::Arc::clone(ep.metrics());
                let mut ring = RingComm::new(Box::new(ep), policy)?;
                let mut reports: Vec<BucketReport> = Vec::new();
                for step in 0..steps {
                    let mut grad: Vec<f32> =
                        (0..4096).map(|i| ((i + rank) % 17) as f32 * 0.01).collect();
                    match ring.allreduce(step, 0, &mut grad) {
                        Ok(rep) => reports.push(rep),
                        Err(e) => {
                            println!("  rank {rank} left the ring at step {step}: {e}");
                            break;
                        }
                    }
                }
                Ok::<_, latte::runtime::error::RuntimeError>((reports, metrics.snapshot()))
            })
        })
        .collect();
    let mut runs = Vec::with_capacity(ranks);
    for h in handles {
        runs.push(h.join().map_err(|_| "rank thread panicked")??);
    }

    println!("\n{ranks}-rank channel ring, {steps} steps, as seen by each rank:");
    for step in 0..steps as usize {
        let cells: Vec<String> = runs
            .iter()
            .map(|(reports, _)| match reports.get(step) {
                Some(r) => {
                    let mut cell = format!("{:>6.1} ms {:?}/{}", r.elapsed_ms, r.mode, r.live);
                    if !r.evicted.is_empty() {
                        cell.push_str(&format!(" evicted {:?}", r.evicted));
                    }
                    cell
                }
                None => "-".to_string(),
            })
            .collect();
        println!("  step {step:>2}: {}", cells.join(" | "));
    }
    for (rank, (reports, snap)) in runs.iter().enumerate() {
        // A crashed rank keeps running blind: its view is its own.
        let crashed = if plan.crashed_by(rank, steps as usize) {
            " (crashed)"
        } else {
            ""
        };
        println!(
            "  rank {rank}{crashed}: {} step(s) reduced; {snap}",
            reports.len()
        );
    }

    // --- 2. Supervisor recovering a mid-epoch process death ------------
    println!("\nsupervised training, process killed after iteration 16:");
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 5,
    };
    let items: Vec<(Vec<f32>, f32)> = (0..40)
        .map(|i| {
            let class = i % 3;
            let x: Vec<f32> = (0..8)
                .map(|j| {
                    let base = if j % 3 == class { 1.0 } else { 0.05 };
                    base + ((i * 8 + j) % 11) as f32 * 0.01
                })
                .collect();
            (x, class as f32)
        })
        .collect();
    let mut source = MemoryDataSource::try_new("data", "label", items, 4)?;
    let mut exec = Executor::new(compile(&mlp(&cfg, &[10]).net, &OptLevel::full())?)?;
    let mut solver = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.1 },
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    });
    let ckpt = std::env::temp_dir().join("latte_fault_tolerance_example.ckpt");
    let sup_cfg = SupervisorConfig {
        checkpoint_every: 6,
        ..SupervisorConfig::new(&ckpt)
    };
    let mut death = FaultPlan::new(vec![Fault::ProcessDeath { iter: 16 }]);
    let sup_metrics = FaultMetrics::new();
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut source,
        &sup_cfg,
        &mut death,
        &sup_metrics,
    )?;
    println!(
        "  loss {:.4} -> {:.4} over {} iterations, {} restart(s), resumed from {:?}",
        report.initial_loss,
        report.final_loss,
        report.iterations,
        report.restarts,
        report.resumed_from
    );
    println!("  fault counters: {}", sup_metrics.snapshot());
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}
