//! Distributed data-parallel training over a real [`Transport`]: the
//! paper's overlapped ring all-reduce, layer by layer.
//!
//! [`DistTrainer`] owns one replica's [`Executor`] plus a background
//! comm thread driving a [`RingComm`]. Each training step runs forward,
//! then [`Executor::backward_hooked`]: the moment a backward group's
//! gradient-lane fold completes, that group's parameter gradients (its
//! [`GradBucket`]) are handed to the comm thread, which ring-reduces
//! them **while the remaining backward groups still execute** — the
//! paper's comm/compute overlap. After backward, the trainer waits only
//! for whatever communication is still exposed, writes the merged
//! gradients back into the executor's gradient buffers, and lets the
//! caller's ordinary [`crate::solver::Solver`] apply the update — the
//! solver cannot tell distributed training from local training.
//!
//! Determinism: buckets are enqueued in backward-group order on every
//! rank, each bucket's ring fold order is fixed (see [`crate::ring`]),
//! and the merged values are independent of thread timing — so a
//! synchronized run is bit-identical to the serial
//! [`crate::cluster::train_replicated`] oracle, and a world-of-one run
//! is bit-identical to plain single-process training.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use latte_core::Fingerprint;

use crate::error::RuntimeError;
use crate::exec::{Executor, GradBucket};
use crate::metrics::FaultMetrics;
use crate::ring::{BucketReport, CommPolicy, RingComm, SyncMode};
use crate::transport::Transport;

/// Fingerprints the compiled program a rank is about to train, for the
/// transport handshake: two processes whose batch size, parameters
/// (names and sizes), or backward bucketing differ must not average
/// gradients, whatever their binaries think. Hashed with the
/// workspace's one [`Fingerprint`] hasher and folded to the handshake's
/// `u32` field.
pub fn net_fingerprint(exec: &Executor) -> u32 {
    let mut h = Fingerprint::new();
    h.usize(exec.batch());
    h.usize(exec.params().len());
    for p in exec.params() {
        h.str(&p.value);
        h.usize(exec.read_buffer(&p.value).map(|v| v.len()).unwrap_or(0));
    }
    let buckets = exec.grad_buckets();
    h.usize(buckets.len());
    for b in buckets {
        h.usize(b.group);
        h.str(&b.name);
    }
    let wide = h.finish();
    (wide ^ (wide >> 32)) as u32
}

struct CommJob {
    step: u32,
    idx: usize,
    data: Vec<f32>,
}

struct CommResult {
    idx: usize,
    data: Vec<f32>,
    report: Result<BucketReport, RuntimeError>,
}

/// One step's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// This replica's loss on its own shard.
    pub loss: f32,
    /// Mode the step's all-reduces ran in.
    pub mode: SyncMode,
    /// Live ranks at the end of the step.
    pub live: usize,
    /// Total communication time across the step's buckets, ms.
    pub comm_ms: f64,
    /// Communication time *not* hidden behind backward (the wait after
    /// backward finished), ms.
    pub exposed_ms: f64,
    /// Backward wall-clock (during which comm overlapped), ms.
    pub backward_ms: f64,
    /// Peers this rank evicted during the step.
    pub evicted: Vec<usize>,
}

/// Accumulated timing over a trainer's lifetime, for the overlap
///-efficiency figure in `BENCH_cluster.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistStats {
    /// Steps taken.
    pub steps: u64,
    /// Steps whose all-reduce ran lossy.
    pub lossy_steps: u64,
    /// Total communication ms (sum over buckets).
    pub comm_ms: f64,
    /// Total exposed (non-overlapped) communication ms.
    pub exposed_ms: f64,
    /// Total backward ms.
    pub backward_ms: f64,
}

impl DistStats {
    /// Fraction of communication hidden behind backward: `1 −
    /// exposed/comm` (1 when there was nothing to communicate).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.comm_ms > 0.0 {
            (1.0 - self.exposed_ms / self.comm_ms).max(0.0)
        } else {
            1.0
        }
    }
}

/// A distributed data-parallel trainer: one replica of the network, a
/// background comm thread, and layer-by-layer gradient streaming.
pub struct DistTrainer {
    exec: Executor,
    buckets: Vec<GradBucket>,
    /// Per bucket: the gradient buffer names, in param order.
    grad_names: Vec<Vec<String>>,
    jobs: Option<mpsc::Sender<CommJob>>,
    results: mpsc::Receiver<CommResult>,
    comm: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<FaultMetrics>,
    rank: usize,
    world: usize,
    live: usize,
    mode: SyncMode,
    step: u32,
    stats: DistStats,
}

impl DistTrainer {
    /// Wires a replica executor to a transport. The comm thread starts
    /// immediately; training starts at step 0.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for a bad policy.
    pub fn new(
        exec: Executor,
        transport: Box<dyn Transport>,
        policy: CommPolicy,
    ) -> Result<DistTrainer, RuntimeError> {
        let rank = transport.rank();
        let world = transport.world();
        let metrics = Arc::clone(transport.metrics());
        let buckets = exec.grad_buckets();
        let grad_names: Vec<Vec<String>> = buckets
            .iter()
            .map(|b| {
                b.params
                    .iter()
                    .map(|&pi| exec.params()[pi].grad.clone())
                    .collect()
            })
            .collect();
        let mut ring = RingComm::new(transport, policy)?;
        let (jtx, jrx) = mpsc::channel::<CommJob>();
        let (rtx, rrx) = mpsc::channel::<CommResult>();
        let comm = std::thread::Builder::new()
            .name(format!("latte-comm-{rank}"))
            .spawn(move || {
                // Jobs arrive in backward-group order and are reduced
                // FIFO; the loop ends when the trainer drops its sender.
                while let Ok(mut job) = jrx.recv() {
                    let report = ring.allreduce(job.step, job.idx as u16, &mut job.data);
                    let done = rtx
                        .send(CommResult {
                            idx: job.idx,
                            data: job.data,
                            report,
                        })
                        .is_err();
                    if done {
                        break;
                    }
                }
            })
            .map_err(|e| RuntimeError::Transport {
                detail: format!("spawning comm thread: {e}"),
            })?;
        Ok(DistTrainer {
            exec,
            buckets,
            grad_names,
            jobs: Some(jtx),
            results: rrx,
            comm: Some(comm),
            metrics,
            rank,
            world,
            live: world,
            mode: SyncMode::Synchronized,
            step: 0,
            stats: DistStats::default(),
        })
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Configured world size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Live ranks as of the last step.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Mode as of the last step.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// The replica's executor (read losses, params, buffers).
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Mutable executor access (e.g. for evaluation between steps).
    pub fn exec_mut(&mut self) -> &mut Executor {
        &mut self.exec
    }

    /// The transport's fault counters.
    pub fn metrics(&self) -> &Arc<FaultMetrics> {
        &self.metrics
    }

    /// Lifetime timing totals.
    pub fn stats(&self) -> DistStats {
        self.stats
    }

    /// The communicator buckets (one per gradient-producing backward
    /// group).
    pub fn buckets(&self) -> &[GradBucket] {
        &self.buckets
    }

    /// Runs one training step on this replica's `batch` shard: forward,
    /// hooked backward with per-bucket gradient streaming, wait for the
    /// exposed remainder of communication, write merged gradients back,
    /// then `apply` (typically `|e| solver.step(e)`).
    ///
    /// # Errors
    ///
    /// Input errors from the executor and terminal
    /// [`RuntimeError::Transport`] failures.
    pub fn step(
        &mut self,
        batch: &[(String, Vec<f32>)],
        apply: &mut dyn FnMut(&mut Executor),
    ) -> Result<StepReport, RuntimeError> {
        for (ensemble, data) in batch {
            self.exec.set_input(ensemble, data)?;
        }
        self.exec.forward();
        let loss = self.exec.loss();

        let step = self.step;
        let t_bwd = Instant::now();
        {
            let buckets = &self.buckets;
            let grad_names = &self.grad_names;
            let jobs = &self.jobs;
            let mut hook = |gi: usize, exec: &Executor| {
                for (bi, b) in buckets.iter().enumerate() {
                    if b.group != gi {
                        continue;
                    }
                    let mut data = Vec::new();
                    for name in &grad_names[bi] {
                        data.extend(exec.read_buffer(name).expect("param grad readable"));
                    }
                    if let Some(tx) = jobs.as_ref() {
                        let _ = tx.send(CommJob {
                            step,
                            idx: bi,
                            data,
                        });
                    }
                }
            };
            self.exec.backward_hooked(&mut hook);
        }
        let backward_ms = t_bwd.elapsed().as_secs_f64() * 1e3;

        // Reap every bucket; only the part of comm that outlives
        // backward is exposed.
        let t_wait = Instant::now();
        let mut merged: Vec<Option<Vec<f32>>> = vec![None; self.buckets.len()];
        let mut comm_ms = 0.0;
        let mut evicted = Vec::new();
        let mut live = self.live;
        let mut mode = self.mode;
        for _ in 0..self.buckets.len() {
            let res = self.results.recv().map_err(|_| RuntimeError::Transport {
                detail: "comm thread died mid-step".into(),
            })?;
            let report = res.report?;
            comm_ms += report.elapsed_ms;
            live = report.live;
            if report.mode == SyncMode::LossyDegraded {
                mode = SyncMode::LossyDegraded;
            }
            evicted.extend(report.evicted.iter().copied());
            merged[res.idx] = Some(res.data);
        }
        let exposed_ms = t_wait.elapsed().as_secs_f64() * 1e3;

        for (bi, data) in merged.into_iter().enumerate() {
            let data = data.expect("every bucket reduced");
            let mut at = 0;
            for name in &self.grad_names[bi] {
                let len = self.exec.read_buffer(name)?.len();
                self.exec.write_buffer(name, &data[at..at + len])?;
                at += len;
            }
        }
        apply(&mut self.exec);

        self.step += 1;
        self.live = live;
        self.mode = mode;
        self.stats.steps += 1;
        self.stats.comm_ms += comm_ms;
        self.stats.exposed_ms += exposed_ms;
        self.stats.backward_ms += backward_ms;
        if mode == SyncMode::LossyDegraded {
            self.stats.lossy_steps += 1;
            FaultMetrics::bump(&self.metrics.lossy_steps);
            FaultMetrics::bump(&self.metrics.degraded_iterations);
        }
        Ok(StepReport {
            loss,
            mode,
            live,
            comm_ms,
            exposed_ms,
            backward_ms,
            evicted,
        })
    }
}

impl Drop for DistTrainer {
    fn drop(&mut self) {
        // Closing the job channel ends the comm loop; joining it drops
        // the RingComm, whose endpoint says goodbye to the ring.
        self.jobs.take();
        if let Some(h) = self.comm.take() {
            let _ = h.join();
        }
    }
}
