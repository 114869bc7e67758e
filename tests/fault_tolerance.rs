//! End-to-end fault-tolerance acceptance tests (tier-1): a 4-rank ring
//! all-reduce over real frames surviving a dropped transfer, a straggler
//! and a node crash, and a single-node training run surviving a process
//! death mid-epoch by resuming from the supervisor's checkpoint.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::data::MemoryDataSource;
use latte::runtime::fault::{Fault, FaultPlan, FaultyTransport};
use latte::runtime::metrics::{FaultMetrics, FaultMetricsSnapshot};
use latte::runtime::ring::{reference_allreduce, BucketReport, CommPolicy, RingComm, SyncMode};
use latte::runtime::solver::{solve, LrPolicy, MomPolicy, Sgd, SolverParams};
use latte::runtime::supervisor::{supervise, SupervisorConfig};
use latte::runtime::transport::{channel_group_with, Transport};
use latte::runtime::Executor;

const RANKS: usize = 4;
const STEPS: u32 = 12;
const CRASH_STEP: u32 = 8;

/// Rank `rank`'s gradient bucket at `step`: uneven across ranks and
/// steps, 13 floats so every ring size gets ragged chunks.
fn grad_at(rank: usize, step: u32) -> Vec<f32> {
    (0..13)
        .map(|i| (i as f32 + 1.0) * (rank as f32 + 1.0) + 0.25 * step as f32 - 0.5 * rank as f32)
        .collect()
}

/// What one rank saw, per completed step (until its first error): the
/// merged bucket, the report, and its transport counters afterwards.
struct RankLog {
    merged: Vec<Vec<f32>>,
    reports: Vec<BucketReport>,
    snaps: Vec<FaultMetricsSnapshot>,
}

/// A 4-rank in-process ring hit by a dropped gradient transfer, a
/// straggler phase and a mid-run node crash recovers on real frames:
/// the drop is timed out and re-sent without leaving synchronized mode,
/// the straggler is flagged by the EWMA detector without being evicted,
/// and the crash evicts exactly its rank, after which the survivors run
/// every step in the lossy degraded mode — with every event visible in
/// the fault counters.
#[test]
fn cluster_survives_crash_straggler_and_dropped_transfer() {
    let plan = FaultPlan::new(vec![
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
        Fault::NodeCrash {
            node: 2,
            iter: CRASH_STEP as usize,
        },
    ]);
    let policy = CommPolicy {
        op_timeout_ms: 400,
        max_retries: 2,
        backoff_base_ms: 1.0,
        backoff_cap_ms: 5.0,
        jitter: 0.1,
        lossy_timeout_ms: 200,
        ..CommPolicy::default()
    };
    let endpoints = channel_group_with(RANKS, |rank, wire| {
        FaultyTransport::new(rank, plan.clone(), wire).with_straggle_unit(Duration::from_millis(20))
    })
    .unwrap();
    let logs: Vec<RankLog> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            std::thread::spawn(move || {
                let metrics: Arc<FaultMetrics> = Arc::clone(ep.metrics());
                let mut ring = RingComm::new(Box::new(ep), policy).unwrap();
                let mut log = RankLog {
                    merged: Vec::new(),
                    reports: Vec::new(),
                    snaps: Vec::new(),
                };
                for step in 0..STEPS {
                    let mut g = grad_at(rank, step);
                    match ring.allreduce(step, 0, &mut g) {
                        Ok(rep) => {
                            log.merged.push(g);
                            log.reports.push(rep);
                            log.snaps.push(metrics.snapshot());
                        }
                        Err(_) => break,
                    }
                }
                log
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect();
    let survivors = [0usize, 1, 3];

    for &rank in &survivors {
        let log = &logs[rank];
        assert_eq!(
            log.reports.len(),
            STEPS as usize,
            "survivor {rank} stopped early"
        );

        // Before the crash every step is the synchronized 4-rank mean,
        // bit for bit — the drop and the straggler cost time, not bits.
        for step in 0..CRASH_STEP {
            let parts: Vec<Vec<f32>> = (0..RANKS).map(|r| grad_at(r, step)).collect();
            assert_eq!(
                log.merged[step as usize],
                reference_allreduce(&parts),
                "rank {rank} step {step} diverged from the serial fold"
            );
            let rep = &log.reports[step as usize];
            assert_eq!(rep.mode, SyncMode::Synchronized, "rank {rank} step {step}");
            assert_eq!(rep.live, RANKS);
            assert!(
                rep.evicted.is_empty(),
                "rank {rank} evicted {:?} at step {step}",
                rep.evicted
            );
        }

        // The crash shrinks the ring to the three survivors, and every
        // later step runs lossy over them.
        for step in CRASH_STEP..STEPS {
            let rep = &log.reports[step as usize];
            assert_eq!(rep.mode, SyncMode::LossyDegraded, "rank {rank} step {step}");
            assert_eq!(rep.live, 3, "rank {rank} step {step}");
            assert!(log.merged[step as usize].iter().all(|v| v.is_finite()));
        }
        let evicted: BTreeSet<usize> = log.reports.iter().flat_map(|r| r.evicted.clone()).collect();
        assert!(
            evicted.is_subset(&BTreeSet::from([2])),
            "rank {rank} evicted {evicted:?}"
        );

        // Each survivor learns of exactly one failure — rank 2 — whether
        // it evicted it itself or adopted a peer's eviction broadcast.
        let m = log.snaps.last().expect("survivor finished every step");
        assert_eq!(m.peers_evicted, 1, "rank {rank}: {m}");
        assert_eq!(m.nodes_failed, 1, "rank {rank}: {m}");
        let text = m.to_string();
        assert!(
            text.contains("nodes_failed=1") && text.contains("peers_evicted=1"),
            "{text}"
        );
    }
    let any_evicted: BTreeSet<usize> = survivors
        .iter()
        .flat_map(|&r| logs[r].reports.iter().flat_map(|rep| rep.evicted.clone()))
        .collect();
    assert_eq!(
        any_evicted,
        BTreeSet::from([2]),
        "the crash evicts exactly rank 2"
    );

    // Counter growth over every rank while `steps` ran (all four ranks
    // complete the steps before the crash).
    let grew = |steps: std::ops::RangeInclusive<usize>, f: fn(&FaultMetricsSnapshot) -> u64| {
        logs.iter()
            .map(|l| f(&l.snaps[*steps.end()]) - f(&l.snaps[*steps.start() - 1]))
            .sum::<u64>()
    };
    // The dropped frame timed out and was re-sent during its step; the
    // straggler was flagged while it was slow.
    assert!(
        grew(2..=2, |m| m.timeouts) >= 1,
        "the dropped frame must time out"
    );
    assert!(
        grew(2..=2, |m| m.send_retries) >= 1,
        "the resend request must be serviced"
    );
    assert!(
        grew(4..=6, |m| m.stragglers_detected) >= 1,
        "the 4x straggler must be flagged"
    );
}

fn build_exec(seed: u64) -> Executor {
    let cfg = ModelConfig {
        batch: 4,
        input_size: 8,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed,
    };
    Executor::new(compile(&mlp(&cfg, &[10]).net, &OptLevel::full()).unwrap()).unwrap()
}

fn training_source() -> MemoryDataSource {
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
    MemoryDataSource::try_new("data", "label", items, 4).unwrap()
}

fn training_params() -> SolverParams {
    SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.1 },
        // No momentum: the update rule is a pure function of weights and
        // gradients, so recovery from a checkpoint is bit-exact.
        mom_policy: MomPolicy::None,
        regu_coef: 0.0,
        max_epoch: 3,
    }
}

/// Training killed mid-epoch resumes from the supervisor's checkpoint
/// and reaches the same final loss as the fault-free run.
#[test]
fn supervisor_recovers_process_death_mid_epoch() {
    // Fault-free baseline with the plain training loop.
    let mut exec_base = build_exec(5);
    let mut solver_base = Sgd::new(training_params());
    let baseline = solve(&mut solver_base, &mut exec_base, &mut training_source()).unwrap();
    assert!(
        baseline.final_loss < baseline.initial_loss,
        "baseline must learn: {baseline:?}"
    );

    // Supervised run killed mid-epoch (iteration 16 of 30; 10 iterations
    // per epoch, checkpoints every 6).
    let dir = std::env::temp_dir().join("latte_e2e_fault_tolerance");
    let _ = std::fs::create_dir_all(&dir);
    let cfg = SupervisorConfig {
        checkpoint_every: 6,
        ..SupervisorConfig::new(dir.join("ckpt.bin"))
    };
    let mut plan = FaultPlan::new(vec![Fault::ProcessDeath { iter: 16 }]);
    let mut exec = build_exec(5);
    let mut solver = Sgd::new(training_params());
    let metrics = FaultMetrics::new();
    let report = supervise(
        &mut solver,
        &mut exec,
        &mut training_source(),
        &cfg,
        &mut plan,
        &metrics,
    )
    .unwrap();

    assert_eq!(report.restarts, 1);
    // Last checkpoint before the death at 16 was at iteration 12, which
    // is mid-epoch (epoch 1, iteration 2 of 10).
    assert_eq!(report.resumed_from, vec![12]);
    // 30 productive iterations plus the 5 replayed ones (12..=16).
    assert_eq!(report.iterations, 35);

    let rel = (report.final_loss - baseline.final_loss).abs() / baseline.final_loss.abs();
    assert!(
        rel < 1e-5,
        "recovered loss {} must match fault-free loss {} (rel err {rel})",
        report.final_loss,
        baseline.final_loss
    );

    let snap = metrics.snapshot();
    assert_eq!(snap.restores, 1);
    assert!(snap.checkpoints_saved >= 5, "{snap:?}");
    assert_eq!(snap.io_errors, 0);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
}
