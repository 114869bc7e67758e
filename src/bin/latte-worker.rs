//! `latte-worker`: one rank of a real multi-process data-parallel ring.
//!
//! Every rank builds the same deterministic MLP (so the transport
//! handshake's net fingerprint matches), rendezvouses with its peers
//! over TCP, and trains with layer-by-layer overlapped ring all-reduce.
//! Ranks shard data deterministically by `(step, rank)`, so a
//! synchronized run produces bit-identical parameters on every rank —
//! the final `param_crc` below is the proof.
//!
//! ```text
//! latte-worker --rank R --addrs 127.0.0.1:7101,127.0.0.1:7102,... \
//!              [--steps N] [--die-at-step S] [--op-timeout-ms T] [--seed S]
//! ```
//!
//! `--die-at-step S` makes the process exit abruptly before step `S`
//! (a real `ProcessDeath` fault): survivors time the rank out, evict
//! it, heal the ring, and finish in the lossy degraded mode.
//!
//! The last stdout line is machine-parseable for the integration tests
//! and CI:
//!
//! ```text
//! LATTE_WORKER_RESULT rank=0 steps=4 param_crc=1a2b3c4d mode=sync \
//!     live=4 peers_evicted=0 lossy_steps=0
//! ```

use std::process::exit;
use std::time::Duration;

use latte::core::{compile, OptLevel};
use latte::nn::models::{mlp, ModelConfig};
use latte::runtime::checkpoint::crc32;
use latte::runtime::dist::{net_fingerprint, DistTrainer};
use latte::runtime::ring::{CommPolicy, SyncMode};
use latte::runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte::runtime::transport::{tcp_rendezvous, TcpConfig};
use latte::runtime::Executor;

struct Args {
    rank: usize,
    addrs: Vec<String>,
    steps: u32,
    die_at_step: Option<u32>,
    op_timeout_ms: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut rank = None;
    let mut addrs = Vec::new();
    let mut steps = 4u32;
    let mut die_at_step = None;
    let mut op_timeout_ms = 2_000u64;
    let mut seed = 7u64;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--rank" => {
                rank = Some(
                    value(&mut i, "--rank")?
                        .parse()
                        .map_err(|e| format!("--rank: {e}"))?,
                );
            }
            "--addrs" => {
                addrs = value(&mut i, "--addrs")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--steps" => {
                steps = value(&mut i, "--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
            }
            "--die-at-step" => {
                die_at_step = Some(
                    value(&mut i, "--die-at-step")?
                        .parse()
                        .map_err(|e| format!("--die-at-step: {e}"))?,
                );
            }
            "--op-timeout-ms" => {
                op_timeout_ms = value(&mut i, "--op-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--op-timeout-ms: {e}"))?;
            }
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let rank = rank.ok_or("--rank is required")?;
    if addrs.is_empty() {
        return Err("--addrs is required (comma-separated host:port per rank)".into());
    }
    if rank >= addrs.len() {
        return Err(format!("--rank {rank} out of range for {} addrs", addrs.len()));
    }
    Ok(Args {
        rank,
        addrs,
        steps,
        die_at_step,
        op_timeout_ms,
        seed,
    })
}

const BATCH: usize = 4;
const INPUT: usize = 6;
const CLASSES: usize = 3;

fn build_executor(seed: u64) -> Executor {
    let cfg = ModelConfig {
        batch: BATCH,
        input_size: INPUT,
        channel_div: 1,
        classes: CLASSES,
        with_loss: true,
        seed,
    };
    Executor::new(compile(&mlp(&cfg, &[8]).net, &OptLevel::full()).expect("compile"))
        .expect("executor")
}

/// The shard rank `rank` consumes at `step`: a deterministic function of
/// `(seed, step, rank)`, identical across processes, so the serial
/// oracle can reproduce it.
fn shard(seed: u64, step: u32, rank: usize) -> Vec<(String, Vec<f32>)> {
    let mut inputs = Vec::with_capacity(BATCH * INPUT);
    let mut labels = Vec::with_capacity(BATCH);
    for item in 0..BATCH {
        let g = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((step as u64) << 24)
            .wrapping_add((rank as u64) << 12)
            .wrapping_add(item as u64);
        let class = (g % CLASSES as u64) as usize;
        for j in 0..INPUT {
            let base = if j % CLASSES == class { 1.0 } else { 0.1 };
            inputs.push(base + ((g >> 8).wrapping_add(j as u64) % 7) as f32 * 0.01);
        }
        labels.push(class as f32);
    }
    vec![("data".into(), inputs), ("label".into(), labels)]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("latte-worker: {e}");
            exit(2);
        }
    };

    let exec = build_executor(args.seed);
    let fingerprint = net_fingerprint(&exec);
    let mut cfg = TcpConfig::new(args.rank, args.addrs.clone(), fingerprint);
    cfg.rendezvous_timeout = Duration::from_secs(20);
    let transport = match tcp_rendezvous(cfg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("latte-worker rank {}: rendezvous failed: {e}", args.rank);
            exit(1);
        }
    };

    let policy = CommPolicy {
        op_timeout_ms: args.op_timeout_ms,
        ..CommPolicy::default()
    };
    let mut trainer = match DistTrainer::new(exec, Box::new(transport), policy) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("latte-worker rank {}: {e}", args.rank);
            exit(1);
        }
    };

    let mut solver = Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.05 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    });

    let mut done = 0u32;
    for step in 0..args.steps {
        if args.die_at_step == Some(step) {
            // A real process death: no goodbye, no flush — survivors
            // must detect the silence, evict this rank, and heal.
            eprintln!("latte-worker rank {}: dying at step {step}", args.rank);
            exit(3);
        }
        let batch = shard(args.seed, step, trainer.rank());
        match trainer.step(&batch, &mut |e| solver.step(e)) {
            Ok(report) => {
                done += 1;
                eprintln!(
                    "latte-worker rank {}: step {step} loss={:.5} mode={:?} live={} comm_ms={:.2} exposed_ms={:.2}",
                    args.rank, report.loss, report.mode, report.live, report.comm_ms, report.exposed_ms
                );
            }
            Err(e) => {
                eprintln!("latte-worker rank {}: step {step} failed: {e}", args.rank);
                exit(1);
            }
        }
    }

    let mut bytes = Vec::new();
    let names: Vec<String> = trainer
        .exec()
        .params()
        .iter()
        .map(|p| p.value.clone())
        .collect();
    for name in names {
        for v in trainer.exec().read_buffer(&name).expect("param readable") {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    let param_crc = crc32(&bytes);
    let snap = trainer.metrics().snapshot();
    let mode = match trainer.mode() {
        SyncMode::Synchronized => "sync",
        SyncMode::LossyDegraded => "lossy",
    };
    println!(
        "LATTE_WORKER_RESULT rank={} steps={} param_crc={:08x} mode={} live={} peers_evicted={} lossy_steps={}",
        trainer.rank(),
        done,
        param_crc,
        mode,
        trainer.live(),
        snap.peers_evicted,
        snap.lossy_steps,
    );
}
