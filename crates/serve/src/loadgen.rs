//! Deterministic open-loop load generation.
//!
//! An open-loop generator decides arrival times *before* observing any
//! response — the schedule is a pure function of `(pattern, n, seed)`,
//! so a benchmark run is exactly reproducible. The bench harness walks
//! the schedule with real sleeps; tests can consume it as data.

use std::time::Duration;

use latte_core::splitmix64;
use latte_runtime::fault::{FaultPlan, TransferFault};

/// An arrival pattern for the open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson arrivals at a steady mean rate (exponential
    /// inter-arrival gaps).
    Steady {
        /// Mean requests per second.
        rps: f64,
    },
    /// Closely spaced bursts separated by idle gaps: each burst packs
    /// `burst` arrivals uniformly into `within`, then the line goes
    /// silent for `gap`.
    Bursty {
        /// Arrivals per burst.
        burst: usize,
        /// Window a burst's arrivals are spread across.
        within: Duration,
        /// Idle time between bursts.
        gap: Duration,
    },
    /// Steady Poisson arrivals, but every `stall_every`-th request is
    /// preceded by an extra `stall` of silence — the client that stops
    /// sending (and draining) for a while, then dumps its backlog.
    SlowClient {
        /// Mean requests per second while active.
        rps: f64,
        /// A stall is inserted before every `stall_every`-th arrival
        /// (clamped to at least 1).
        stall_every: usize,
        /// Length of each stall.
        stall: Duration,
    },
}

/// A uniform draw in the open interval (0, 1).
fn unit(state: &mut u64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    u.max(f64::EPSILON)
}

/// An exponential inter-arrival gap for mean rate `rps` (clamped to a
/// sane minimum rate so a zero/negative rps cannot hang the schedule).
fn exp_gap(state: &mut u64, rps: f64) -> Duration {
    let rate = rps.max(1e-3);
    Duration::from_secs_f64(-unit(state).ln() / rate)
}

/// Builds the arrival schedule: `n` non-decreasing offsets from the
/// start of the run. Fully determined by `(arrival, n, seed)`.
pub fn schedule(arrival: &Arrival, n: usize, seed: u64) -> Vec<Duration> {
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let mut out = Vec::with_capacity(n);
    match *arrival {
        Arrival::Steady { rps } => {
            let mut t = Duration::ZERO;
            for _ in 0..n {
                t += exp_gap(&mut state, rps);
                out.push(t);
            }
        }
        Arrival::Bursty { burst, within, gap } => {
            let burst = burst.max(1);
            let mut start = Duration::ZERO;
            while out.len() < n {
                let take = burst.min(n - out.len());
                let mut offsets: Vec<Duration> = (0..take)
                    .map(|_| within.mul_f64(unit(&mut state)))
                    .collect();
                offsets.sort();
                out.extend(offsets.into_iter().map(|o| start + o));
                start += within + gap;
            }
        }
        Arrival::SlowClient {
            rps,
            stall_every,
            stall,
        } => {
            let stall_every = stall_every.max(1);
            let mut t = Duration::ZERO;
            for i in 0..n {
                if i > 0 && i % stall_every == 0 {
                    t += stall;
                }
                t += exp_gap(&mut state, rps);
                out.push(t);
            }
        }
    }
    out
}

/// One misbehaving client for the adversarial load mode: each variant
/// is a protocol-level attack the network front-end must absorb with a
/// structured error or a shed counter — never a hang, panic, or leaked
/// resource. [`crate::net::run_adversary`] drives one of these against
/// a live front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// Connect and never write a byte — the slow-loris client. The
    /// front-end's read timeout must reclaim the connection.
    HoldOpen,
    /// Complete the handshake, write a frame's length prefix and part
    /// of its body, then vanish. The front-end must detect the
    /// truncated stream and clean up.
    MidFrameDisconnect,
    /// Send a well-formed request frame with one payload bit flipped,
    /// so the CRC trailer no longer matches. The front-end must answer
    /// with a structured bad-frame error and close.
    CorruptCrc,
    /// Send a burst of requests whose deadline budget is already as
    /// good as spent. Every one must be rejected at admission or shed
    /// at flush — none may execute.
    PastDeadlineFlood {
        /// Requests in the flood.
        requests: usize,
    },
}

/// A seeded mix of `n` misbehaviors: a pure function of `(n, seed,
/// flood)`, so an adversarial run is exactly reproducible. `flood` is
/// the burst size given to every [`Misbehavior::PastDeadlineFlood`].
pub fn misbehaviors(n: usize, seed: u64, flood: usize) -> Vec<Misbehavior> {
    let mut state = seed ^ 0x5a5a_a5a5_0f0f_f0f0;
    (0..n)
        .map(|_| match splitmix64(&mut state) % 4 {
            0 => Misbehavior::HoldOpen,
            1 => Misbehavior::MidFrameDisconnect,
            2 => Misbehavior::CorruptCrc,
            _ => Misbehavior::PastDeadlineFlood { requests: flood },
        })
        .collect()
}

/// Derives an adversarial client schedule from a training-side
/// [`FaultPlan`], reusing the repo's one seeded fault vocabulary for
/// the serving chaos mode: a dropped transfer becomes a mid-frame
/// disconnect, a corrupted transfer a bad-CRC frame, a straggler phase
/// a hold-open slow-loris, and a node crash a past-deadline flood of
/// `flood` requests (the client that died holding a full send queue).
/// Iterations where the plan schedules nothing contribute nothing.
pub fn misbehaviors_from_plan(
    plan: &FaultPlan,
    node: usize,
    iters: usize,
    flood: usize,
) -> Vec<Misbehavior> {
    let mut out = Vec::new();
    for iter in 0..iters {
        for fault in plan.transfer_faults(node, iter, 0) {
            out.push(match fault {
                TransferFault::Dropped => Misbehavior::MidFrameDisconnect,
                TransferFault::Corrupted => Misbehavior::CorruptCrc,
            });
        }
        if plan.straggle_factor(node, iter) > 1.0 {
            out.push(Misbehavior::HoldOpen);
        }
        if plan.crashed_by(node, iter) {
            out.push(Misbehavior::PastDeadlineFlood { requests: flood });
            break; // a crashed node sends nothing further
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_runtime::fault::FaultRates;

    #[test]
    fn schedules_are_deterministic_in_the_seed() {
        for arrival in [
            Arrival::Steady { rps: 500.0 },
            Arrival::Bursty {
                burst: 8,
                within: Duration::from_millis(2),
                gap: Duration::from_millis(20),
            },
            Arrival::SlowClient {
                rps: 500.0,
                stall_every: 10,
                stall: Duration::from_millis(50),
            },
        ] {
            let a = schedule(&arrival, 100, 42);
            let b = schedule(&arrival, 100, 42);
            let c = schedule(&arrival, 100, 43);
            assert_eq!(a, b, "{arrival:?} not reproducible");
            assert_ne!(a, c, "{arrival:?} ignores the seed");
        }
    }

    #[test]
    fn schedules_are_non_decreasing_and_sized() {
        for arrival in [
            Arrival::Steady { rps: 1000.0 },
            Arrival::Bursty {
                burst: 7,
                within: Duration::from_millis(1),
                gap: Duration::from_millis(10),
            },
            Arrival::SlowClient {
                rps: 1000.0,
                stall_every: 5,
                stall: Duration::from_millis(25),
            },
        ] {
            let s = schedule(&arrival, 64, 7);
            assert_eq!(s.len(), 64);
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "{arrival:?} goes backwards");
        }
    }

    #[test]
    fn steady_mean_gap_tracks_the_rate() {
        let s = schedule(&Arrival::Steady { rps: 1000.0 }, 4000, 11);
        let mean = s.last().unwrap().as_secs_f64() / s.len() as f64;
        // 1/rps = 1ms; the sample mean of 4000 exponentials is close.
        assert!((0.0008..0.0012).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn slow_client_inserts_stalls() {
        let stall = Duration::from_millis(100);
        let s = schedule(
            &Arrival::SlowClient {
                rps: 10_000.0,
                stall_every: 10,
                stall,
            },
            30,
            3,
        );
        // The gap across each stall boundary dwarfs the in-run gaps.
        assert!(s[10] - s[9] >= stall);
        assert!(s[20] - s[19] >= stall);
        assert!(s[9] - s[8] < stall);
    }

    #[test]
    fn misbehavior_mixes_are_seeded_and_cover_every_variant() {
        let a = misbehaviors(64, 9, 5);
        assert_eq!(a, misbehaviors(64, 9, 5), "not reproducible");
        assert_ne!(a, misbehaviors(64, 10, 5), "seed ignored");
        for want in [
            Misbehavior::HoldOpen,
            Misbehavior::MidFrameDisconnect,
            Misbehavior::CorruptCrc,
            Misbehavior::PastDeadlineFlood { requests: 5 },
        ] {
            assert!(a.contains(&want), "64 draws never produced {want:?}");
        }
    }

    #[test]
    fn plan_derived_misbehaviors_are_deterministic_and_stop_at_the_crash() {
        let rates = FaultRates {
            crash: 0.2,
            straggle: 0.3,
            transfer_drop: 0.3,
            transfer_corrupt: 0.3,
            ..FaultRates::default()
        };
        let plan = FaultPlan::random(11, 2, 40, 1, &rates);
        let a = misbehaviors_from_plan(&plan, 0, 40, 8);
        assert_eq!(a, misbehaviors_from_plan(&plan, 0, 40, 8));
        assert!(!a.is_empty(), "a 40-iteration plan at these rates misbehaves");
        // Nothing follows a flood: the crashed client is gone.
        if let Some(pos) = a
            .iter()
            .position(|m| matches!(m, Misbehavior::PastDeadlineFlood { .. }))
        {
            assert_eq!(pos, a.len() - 1);
        }
    }
}
