//! # latte-runtime
//!
//! The Latte runtime: buffer allocation, kernel lowering ("code
//! generation"), the execution engine, solvers, data pipelines, and the
//! data-parallel / heterogeneous / cluster training machinery of the
//! paper's Section 6.
//!
//! * [`Executor`] — lowers a `latte_core::CompiledNet` to native kernels
//!   and runs forward/backward passes over an allocated buffer store.
//! * [`ExecutionPlan`] — the lowered groups plus the liveness-planned
//!   buffer arena (`ExecConfig::arena`) that lets non-overlapping
//!   intermediates share storage.
//! * [`solver`] — SGD (+momentum, LR policies), RMSProp, AdaGrad, and the
//!   `solve` training loop.
//! * [`data`] — synthetic datasets and the double-buffered input loader.
//! * [`pool`] — the persistent worker pool (the paper's
//!   `schedule(static, 1)` OpenMP team): per-worker GEMM engines,
//!   pool-owned gradient-lane scratch, deterministic static interleaving.
//! * [`parallel`] — intra-node data parallelism with synchronized or
//!   *lossy* gradient accumulation (Figure 20).
//! * [`accel`] — the simulated-coprocessor chunk scheduler (Figure 17).
//! * [`cluster`] — the discrete-event model of fault-free cluster
//!   scaling with overlapped ring all-reduce (Figures 18–19).
//! * [`frame`] — the shared wire-framing conventions (CRC32-sealed
//!   payloads behind a length prefix) used by both the training
//!   transport and the `latte-serve` network front-end.
//! * [`transport`] — the real communicator layer: framed, CRC-checked,
//!   deadline-bounded gradient exchange behind the `Transport` trait,
//!   with an in-process channel backend (deterministic tests) and a TCP
//!   backend (true multi-process rings).
//! * [`ring`] — ring all-reduce over a `Transport`: overlapped
//!   reduce-scatter/all-gather with retries, exponential backoff, EWMA
//!   straggler detection, and ring healing into the lossy mode.
//! * [`dist`] — the distributed trainer: layer-by-layer gradient
//!   streaming into a background comm thread, bit-identical to the
//!   serial oracle in synchronized mode.
//! * [`fault`] — deterministic, seedable fault injection (crashes,
//!   stragglers, transfer drops/corruption, I/O errors, process death),
//!   including `FaultyTransport` to replay fault plans against the real
//!   transport.
//! * [`supervisor`] — the fault-tolerant training loop: periodic atomic
//!   checkpoints, crash detection, and resume-from-checkpoint with a
//!   loss-continuity check.
//! * [`health`] — numerical-health guardrails: NaN/Inf tensor
//!   sentinels, loss-anomaly classification (non-finite / spike /
//!   plateau), and the quarantine / LR-cut / rollback reaction policies
//!   the supervisor applies.
//! * [`checkpoint`] — crash-safe (atomic, CRC-verified) weight
//!   serialization.
//! * [`metrics`] — evaluation helpers and the fault-event counters.
//! * [`registry`] — extern kernels for normalization ensembles.

#![warn(missing_docs)]

pub mod accel;
pub mod checkpoint;
pub mod cluster;
pub mod data;
pub mod dist;
pub mod error;
pub mod fault;
pub mod frame;
pub mod health;
pub mod metrics;
mod exec;
mod lower;
pub mod parallel;
mod plan;
pub mod pool;
pub mod registry;
pub mod ring;
pub mod solver;
pub mod store;
pub mod supervisor;
pub mod trace;
pub mod transport;
pub mod tune;

pub use error::RuntimeError;
pub use exec::{CompiledProgram, ExecConfig, Executor, GradBucket};
pub use plan::ExecutionPlan;
pub use trace::{TraceCache, TraceCacheStats};
pub use tune::{TuneError, Tuner, TunerStats};
