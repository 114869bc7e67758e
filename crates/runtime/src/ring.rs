//! The real ring all-reduce: reduce-scatter followed by all-gather over
//! a [`Transport`], with a fixed fold order, receiver-driven
//! retransmission, straggler detection, and ring healing.
//!
//! ## Determinism (the bit-identity contract)
//!
//! A bucket of `n` gradient floats over `k` live ranks is cut into `k`
//! chunks ([`chunk_spans`]). Chunk `c`'s sum starts at ring position `c`
//! and travels rightward, each position folding its own contribution
//! onto the running sum — so chunk `c` is always associated as
//! `((g_c + g_{c+1}) + g_{c+2}) + …`, regardless of timing, retries, or
//! thread scheduling. [`reference_allreduce`] replays exactly this
//! rotated fold serially; in synchronized mode the distributed result is
//! bit-identical to it (and, for `k = 1`, to plain single-process
//! training — the bucket is returned untouched).
//!
//! ## Robustness
//!
//! Every receive runs under a per-op deadline. In synchronized mode a
//! timeout or CRC failure triggers a resend request with exponential
//! backoff and jitter; when the retry budget is exhausted the peer is
//! evicted ([`Transport::evict`] broadcasts the death), the ring heals —
//! survivors re-form it — and the bucket **restarts from the pristine
//! input gradients**, which is what makes a peer dying mid-reduce-scatter
//! safe: partially folded chunks are discarded wholesale, never
//! double-counted. After any shrink the communicator degrades to
//! [`SyncMode::LossyDegraded`]: deadlines turn short and single-attempt,
//! and whatever contributions arrived by the deadline are averaged (the
//! per-chunk contributor mask picks the divisor).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RuntimeError;
use crate::metrics::FaultMetrics;
use crate::transport::{Delivery, Frame, FrameKind, Key, Transport, TransportError};

/// Retry, deadline, backoff, and straggler policy for the ring.
#[derive(Debug, Clone)]
pub struct CommPolicy {
    /// Per-attempt receive deadline in synchronized mode (must cover
    /// compute skew between ranks), milliseconds.
    pub op_timeout_ms: u64,
    /// Resend requests per frame before the peer is evicted. Also the
    /// consecutive-miss budget per peer in lossy mode.
    pub max_retries: u32,
    /// Base backoff before the first retry, milliseconds.
    pub backoff_base_ms: f64,
    /// Backoff cap, milliseconds.
    pub backoff_cap_ms: f64,
    /// Jitter fraction added to each backoff (`0.0..=1.0`), drawn from a
    /// rank-seeded RNG so runs stay reproducible.
    pub jitter: f64,
    /// Single-attempt receive deadline in lossy mode, milliseconds.
    pub lossy_timeout_ms: u64,
    /// A receive slower than `threshold ×` the peer's EWMA estimate
    /// flags a straggler.
    pub straggler_threshold: f64,
    /// EWMA smoothing for per-peer receive latency.
    pub ewma_alpha: f64,
    /// Receives observed per peer before straggler detection arms.
    pub straggler_grace: u32,
}

impl Default for CommPolicy {
    fn default() -> Self {
        CommPolicy {
            op_timeout_ms: 2_000,
            max_retries: 3,
            backoff_base_ms: 2.0,
            backoff_cap_ms: 100.0,
            jitter: 0.25,
            lossy_timeout_ms: 200,
            straggler_threshold: 4.0,
            ewma_alpha: 0.3,
            straggler_grace: 3,
        }
    }
}

impl CommPolicy {
    /// Rejects degenerate policies.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] with the offending field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let bad = |detail: &str| {
            Err(RuntimeError::InvalidConfig {
                detail: format!("comm policy: {detail}"),
            })
        };
        if self.op_timeout_ms == 0 || self.lossy_timeout_ms == 0 {
            return bad("deadlines must be positive");
        }
        if self.backoff_base_ms.is_nan()
            || self.backoff_cap_ms.is_nan()
            || self.backoff_base_ms <= 0.0
            || self.backoff_cap_ms < self.backoff_base_ms
        {
            return bad("backoff base must be positive and no larger than the cap");
        }
        if !(0.0..=1.0).contains(&self.jitter) || self.jitter.is_nan() {
            return bad("jitter must be in [0, 1]");
        }
        if self.straggler_threshold.is_nan() || self.straggler_threshold <= 1.0 {
            return bad("straggler threshold must exceed 1");
        }
        if !(0.0..=1.0).contains(&self.ewma_alpha) || self.ewma_alpha == 0.0 {
            return bad("ewma alpha must be in (0, 1]");
        }
        Ok(())
    }

    /// Backoff before retry `attempt` (1-based): exponential from the
    /// base, capped, plus jitter.
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self.backoff_base_ms * f64::powi(2.0, attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.backoff_cap_ms);
        let jittered = capped * (1.0 + self.jitter * rng.gen_range(0.0f64..1.0));
        Duration::from_secs_f64(jittered / 1e3)
    }
}

/// All-reduce synchronization mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Every live node contributes to every gradient sum; the slowest
    /// node gates the iteration.
    Synchronized,
    /// The paper's lossy unsynchronized mode over a shrunken participant
    /// set: nodes proceed without a barrier, so stragglers and dead
    /// nodes no longer gate progress (at the cost of stale gradients).
    LossyDegraded,
}

/// Cuts `len` elements into `k` contiguous chunks, the first `len % k`
/// of them one element longer. Chunks may be empty when `len < k`.
pub fn chunk_spans(len: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "chunk_spans needs at least one chunk");
    let base = len / k;
    let rem = len % k;
    let mut spans = Vec::with_capacity(k);
    let mut at = 0;
    for c in 0..k {
        let sz = base + usize::from(c < rem);
        spans.push(at..at + sz);
        at += sz;
    }
    spans
}

/// The serial oracle for the ring's synchronized mode: averages
/// `parts` (one gradient vector per rank, ring order) with exactly the
/// ring's chunking and rotated fold order, so a fault-free distributed
/// all-reduce must match it bit for bit.
///
/// # Panics
///
/// If `parts` is empty or lengths differ.
pub fn reference_allreduce(parts: &[Vec<f32>]) -> Vec<f32> {
    let k = parts.len();
    assert!(k > 0, "reference_allreduce needs at least one contribution");
    let n = parts[0].len();
    assert!(
        parts.iter().all(|p| p.len() == n),
        "contributions must agree on length"
    );
    if k == 1 {
        // Matches the ring's solo fast path: untouched, unscaled.
        return parts[0].clone();
    }
    let spans = chunk_spans(n, k);
    let mut out = vec![0.0f32; n];
    let scale = 1.0f32 / k as f32;
    for (c, span) in spans.iter().enumerate() {
        let dst = &mut out[span.clone()];
        dst.copy_from_slice(&parts[c][span.clone()]);
        for j in 1..k {
            let src = &parts[(c + j) % k][span.clone()];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
        for d in dst.iter_mut() {
            *d *= scale;
        }
    }
    out
}

/// Outcome of one bucket's all-reduce.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketReport {
    /// Mode the bucket finished in.
    pub mode: SyncMode,
    /// Live ranks when it finished.
    pub live: usize,
    /// Wall-clock time of the whole bucket, milliseconds.
    pub elapsed_ms: f64,
    /// Payload bytes folded locally during reduce-scatter.
    pub bytes: u64,
    /// Smallest contributor count over the bucket's chunks (equals
    /// `live` in synchronized mode; may be less in lossy mode).
    pub min_contributors: u32,
    /// Ring-healing restarts the bucket went through.
    pub restarts: u32,
    /// Peers this rank evicted while reducing the bucket.
    pub evicted: Vec<usize>,
}

enum RecvOutcome {
    Frame(Frame),
    /// Lossy mode: the deadline passed; proceed without it.
    Missed,
    /// Membership changed (eviction here or news from a peer): restart
    /// the bucket over the healed ring.
    Restart,
    Fatal(TransportError),
}

/// A ring communicator over any [`Transport`]: one instance per rank,
/// driven bucket by bucket by the distributed trainer.
pub struct RingComm {
    tp: Box<dyn Transport>,
    policy: CommPolicy,
    mode: SyncMode,
    rng: StdRng,
    /// Per-peer EWMA of receive latency, milliseconds.
    ewma: Vec<f64>,
    ewma_n: Vec<u32>,
    /// Per-peer consecutive lossy misses (eviction after the budget).
    misses: Vec<u32>,
    /// Peers already flagged as stragglers this bucket.
    flagged: Vec<bool>,
}

impl RingComm {
    /// Wraps a transport under `policy`, starting synchronized.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for a degenerate policy.
    pub fn new(tp: Box<dyn Transport>, policy: CommPolicy) -> Result<RingComm, RuntimeError> {
        policy.validate()?;
        let world = tp.world();
        let rank = tp.rank();
        Ok(RingComm {
            tp,
            policy,
            mode: SyncMode::Synchronized,
            rng: StdRng::seed_from_u64(0x1a77e ^ (rank as u64).wrapping_mul(0x9E37_79B9)),
            ewma: vec![0.0; world],
            ewma_n: vec![0; world],
            misses: vec![0; world],
            flagged: vec![false; world],
        })
    }

    /// Current mode (degrades permanently once the ring shrinks).
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.tp.rank()
    }

    /// Live ranks, ascending.
    pub fn live(&self) -> Vec<usize> {
        let mask = self.tp.alive_mask();
        (0..self.tp.world())
            .filter(|&r| mask & (1 << r) != 0)
            .collect()
    }

    /// The transport's fault counters.
    pub fn metrics(&self) -> Arc<FaultMetrics> {
        Arc::clone(self.tp.metrics())
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &dyn Transport {
        self.tp.as_ref()
    }

    /// Averages `grad` with every live peer's same-keyed bucket in
    /// place. Synchronized mode reproduces [`reference_allreduce`] over
    /// the live ranks bit for bit; lossy mode averages whatever arrived
    /// by the deadline. A solo ring returns `grad` untouched.
    ///
    /// A bucket holding any non-finite value is withdrawn whole (counted
    /// in [`FaultMetrics::gradients_rejected`]): it enters the ring as
    /// zeros with this rank's contributor bit clear, so every rank —
    /// this one included — averages over the clean contributions only,
    /// and an all-poisoned ring yields a zero (skipped) update.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when this rank was evicted by the
    /// others or the transport shut down — conditions retries cannot
    /// mend.
    pub fn allreduce(
        &mut self,
        step: u32,
        bucket: u16,
        grad: &mut [f32],
    ) -> Result<BucketReport, RuntimeError> {
        let me_rank = self.tp.rank();
        let own_bit = 1u32 << me_rank;
        let t0 = Instant::now();
        let mut restarts = 0u32;
        let mut evicted = Vec::new();
        let mut stash: HashMap<Key, Frame> = HashMap::new();
        self.flagged.iter_mut().for_each(|f| *f = false);
        // Exhaustive scan: a single hidden NaN folded into the ring
        // would poison every rank it reaches within one step.
        let own = if grad.iter().all(|v| v.is_finite()) {
            own_bit
        } else {
            FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
            grad.fill(0.0);
            0
        };

        'attempt: loop {
            stash.clear();
            let mask0 = self.tp.alive_mask();
            if mask0 & own_bit == 0 {
                return Err(RuntimeError::Transport {
                    detail: format!("rank {me_rank} was evicted by its peers"),
                });
            }
            let live: Vec<usize> = (0..self.tp.world())
                .filter(|&r| mask0 & (1 << r) != 0)
                .collect();
            let k = live.len();
            if k < self.tp.world() {
                self.mode = SyncMode::LossyDegraded;
            }
            if k == 1 {
                // Solo ring: bit-identical to plain single-process
                // training — no fold, no scale.
                return Ok(BucketReport {
                    mode: self.mode,
                    live: 1,
                    elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                    bytes: 0,
                    min_contributors: 1,
                    restarts,
                    evicted,
                });
            }
            let me = live.iter().position(|&r| r == me_rank).expect("own rank live");
            let right = live[(me + 1) % k];
            let left = live[(me + k - 1) % k];
            let spans = chunk_spans(grad.len(), k);
            let mut scratch = grad.to_vec();
            let mut contrib = vec![own; k];
            let mut bytes = 0u64;

            // Reduce-scatter: k-1 steps; chunk c starts at position c
            // and accumulates rightward.
            for s in 0..k - 1 {
                let send_c = (me + k - s) % k;
                let recv_c = (me + k - s - 1) % k;
                let key = Key {
                    step,
                    bucket,
                    phase: 0,
                    ring_step: s as u16,
                };
                let mut f = Frame::control(FrameKind::Data, 0, key, send_c as u16);
                f.contributors = contrib[send_c];
                f.payload = scratch[spans[send_c].clone()].to_vec();
                if self.tp.send_data(right, f).is_err() {
                    self.evict_failed(right, &mut evicted);
                    restarts += 1;
                    continue 'attempt;
                }
                match self.recv_op(left, right, key, &mut stash, mask0, &mut evicted) {
                    RecvOutcome::Frame(fr) => {
                        let span = spans[recv_c].clone();
                        if fr.payload.iter().any(|v| !v.is_finite()) {
                            // A poisoned running sum from a peer that
                            // skipped its own scan: reject the whole
                            // upstream chain and keep our own partial,
                            // so the poison stops at this hop.
                            FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
                        } else if fr.payload.len() == span.len() {
                            let dst = &mut scratch[span];
                            for (d, &v) in dst.iter_mut().zip(&fr.payload) {
                                *d += v;
                            }
                            contrib[recv_c] = fr.contributors | own;
                            bytes += (fr.payload.len() * 4) as u64;
                        }
                    }
                    RecvOutcome::Missed => {}
                    RecvOutcome::Restart => {
                        restarts += 1;
                        continue 'attempt;
                    }
                    RecvOutcome::Fatal(e) => return Err(e.into()),
                }
            }
            FaultMetrics::add(&self.tp.metrics().bytes_reduced, bytes);

            // All-gather: k-1 steps; each position starts by forwarding
            // the chunk it fully owns, (me + 1) mod k.
            for s in 0..k - 1 {
                let send_c = (me + 1 + k - s) % k;
                let recv_c = (me + k - s) % k;
                let key = Key {
                    step,
                    bucket,
                    phase: 1,
                    ring_step: s as u16,
                };
                let mut f = Frame::control(FrameKind::Data, 0, key, send_c as u16);
                f.contributors = contrib[send_c];
                f.payload = scratch[spans[send_c].clone()].to_vec();
                if self.tp.send_data(right, f).is_err() {
                    self.evict_failed(right, &mut evicted);
                    restarts += 1;
                    continue 'attempt;
                }
                match self.recv_op(left, right, key, &mut stash, mask0, &mut evicted) {
                    RecvOutcome::Frame(fr) => {
                        let span = spans[recv_c].clone();
                        let finite = fr.payload.iter().all(|v| v.is_finite());
                        // Synchronized: the received chunk is the fully
                        // reduced one — always adopt. Lossy: adopt when
                        // it folds at least as many contributors as ours.
                        let adopt = finite
                            && fr.payload.len() == span.len()
                            && (self.mode == SyncMode::Synchronized
                                || fr.contributors.count_ones()
                                    >= contrib[recv_c].count_ones());
                        if adopt {
                            scratch[span].copy_from_slice(&fr.payload);
                            contrib[recv_c] = fr.contributors;
                        } else if !finite {
                            FaultMetrics::bump(&self.tp.metrics().gradients_rejected);
                        }
                    }
                    RecvOutcome::Missed => {}
                    RecvOutcome::Restart => {
                        restarts += 1;
                        continue 'attempt;
                    }
                    RecvOutcome::Fatal(e) => return Err(e.into()),
                }
            }

            // A lossy bucket that closed with holes raced the repair
            // traffic that explains them: a peer discovering a death at
            // the same cadence as our miss windows broadcasts its Evict
            // a hair after our last deadline. Linger one window for that
            // news and restart over the healed ring instead of baking
            // half-empty contributor sets into the step.
            let holes = contrib.iter().any(|c| c.count_ones() < k as u32);
            if holes
                && self.mode == SyncMode::LossyDegraded
                && self.tp.wait_failure(
                    mask0,
                    Instant::now() + Duration::from_millis(self.policy.lossy_timeout_ms),
                )
            {
                restarts += 1;
                continue 'attempt;
            }

            // Average: per-chunk divisor from the contributor mask (all
            // k in synchronized mode).
            let mut min_contrib = u32::MAX;
            for (c, span) in spans.iter().enumerate() {
                let n = contrib[c].count_ones().max(1);
                min_contrib = min_contrib.min(n);
                let scale = 1.0f32 / n as f32;
                for v in &mut scratch[span.clone()] {
                    *v *= scale;
                }
            }
            grad.copy_from_slice(&scratch);
            return Ok(BucketReport {
                mode: self.mode,
                live: k,
                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                bytes,
                min_contributors: if min_contrib == u32::MAX { 1 } else { min_contrib },
                restarts,
                evicted,
            });
        }
    }

    /// Evicts a peer after a hard failure and degrades to lossy.
    fn evict_failed(&mut self, peer: usize, evicted: &mut Vec<usize>) {
        if self.tp.evict(peer) {
            evicted.push(peer);
        }
        self.mode = SyncMode::LossyDegraded;
    }

    /// One deadline-bounded, retry-wrapped receive of `key` from `from`.
    ///
    /// `right` is this rank's downstream neighbor: on every silent
    /// timeout we tell it we're alive via [`Transport::send_busy`], and
    /// we relay any Busy we hear onward, so patience propagates around
    /// the ring and only the rank adjacent to an actually-dead peer
    /// exhausts its budget and evicts.
    fn recv_op(
        &mut self,
        from: usize,
        right: usize,
        key: Key,
        stash: &mut HashMap<Key, Frame>,
        mask0: u32,
        evicted: &mut Vec<usize>,
    ) -> RecvOutcome {
        if let Some(f) = stash.remove(&key) {
            return RecvOutcome::Frame(f);
        }
        let metrics = Arc::clone(self.tp.metrics());
        // Two independent retry budgets. Silence is exculpable — a Busy
        // from the upstream proves it alive and resets `silent`. Corrupt
        // deliveries are *active* evidence of a faulty sender and no
        // liveness signal excuses them, so `corrupt` only ever grows.
        let mut silent = 0u32;
        let mut corrupt = 0u32;
        // Set by a Busy from the upstream, consumed by the next timeout:
        // "alive but blocked on ring repair right now". One signal buys
        // one patient window — a peer that stops signalling (finished,
        // or dead) stops buying patience.
        let mut stalled = false;
        // Each Busy heard forgives the silence so far, bounded so a
        // livelocked ring (everyone "busy", nobody progressing) still
        // converges to eviction instead of waiting forever.
        let mut busy_credit = (self.policy.max_retries + 2) * self.tp.world() as u32;
        // The deadline belongs to the attempt: a Busy forgives silence
        // but never re-arms it, so the rank owed a lost frame asks for
        // the resend within one window however much Busy traffic the
        // stall around it generates.
        let mut deadline: Option<Instant> = None;
        let me = self.tp.rank();
        let t_start = Instant::now();
        loop {
            if self.tp.failed_mask() & mask0 != 0 {
                // A member of the current ring has *failed* (a graceful
                // departure never interrupts a bucket in flight).
                return RecvOutcome::Restart;
            }
            let lossy = self.mode == SyncMode::LossyDegraded;
            let until = *deadline.get_or_insert_with(|| {
                Instant::now()
                    + Duration::from_millis(if lossy {
                        self.policy.lossy_timeout_ms
                    } else {
                        self.policy.op_timeout_ms
                    })
            });
            let out = match self.tp.recv(from, until, mask0) {
                Ok(Delivery::Frame(f)) if f.kind == FrameKind::Busy => {
                    let origin = usize::from(f.chunk);
                    // Our own signal back from a full lap says nothing
                    // new, and relaying it again would circulate it
                    // forever. Past the credit an upstream "busy" for
                    // this many windows is indistinguishable from
                    // livelock: only expired deadlines count from here.
                    if origin == me || busy_credit == 0 {
                        continue;
                    }
                    busy_credit -= 1;
                    // The upstream is provably alive, just blocked:
                    // silence so far was not its fault. Resetting the
                    // counters (not merely the window) keeps a timing
                    // race between its Busy cadence and our timeout
                    // cadence from accumulating attempts anyway.
                    silent = 0;
                    self.misses[from] = 0;
                    stalled = true;
                    // Pass the liveness signal downstream: our neighbor
                    // is now also waiting on a stalled (but live) chain.
                    self.tp.send_busy(right, key, origin);
                    continue;
                }
                Ok(Delivery::Frame(f)) => {
                    if f.kind != FrameKind::Data {
                        continue;
                    }
                    if f.alive & self.tp.failed_mask() != 0 {
                        // Sent before its sender learned of a death we
                        // already know about: a stale duplicate from the
                        // pre-healing ring (possibly queued before our
                        // own mask shrank) — its chunk geometry is wrong.
                        continue;
                    }
                    if self.tp.failed_mask() & mask0 != 0 {
                        // The frame rode in with death news: heal first;
                        // resends recover it after the restart.
                        return RecvOutcome::Restart;
                    }
                    if f.key == key {
                        self.misses[from] = 0;
                        self.observe_latency(from, t_start.elapsed());
                        return RecvOutcome::Frame(f);
                    }
                    // Out-of-order (the peer ran ahead, or a duplicate
                    // resend): park it for a later op this bucket.
                    stash.insert(f.key, f);
                    continue;
                }
                Ok(Delivery::Corrupt) => {
                    // CRC failure: same bounded retry path as silence,
                    // but charged to the unforgivable budget, and no
                    // stall grace — corrupt data is active misbehavior.
                    self.handle_silence(
                        from, right, key, lossy, false, &mut corrupt, &metrics, evicted,
                    )
                }
                Err(TransportError::Timeout { .. }) => self.handle_silence(
                    from,
                    right,
                    key,
                    lossy,
                    std::mem::take(&mut stalled),
                    &mut silent,
                    &metrics,
                    evicted,
                ),
                Err(TransportError::PeerDead { peer: _ }) => {
                    self.mode = SyncMode::LossyDegraded;
                    return RecvOutcome::Restart;
                }
                Err(TransportError::Disconnected { peer }) => {
                    self.evict_failed(peer, evicted);
                    return RecvOutcome::Restart;
                }
                Err(TransportError::DeathNotice) => {
                    // A watched ring member failed while we were blocked:
                    // heal now instead of sitting out the deadline.
                    return RecvOutcome::Restart;
                }
                Err(e) => return RecvOutcome::Fatal(e),
            };
            if let Some(out) = out {
                return out;
            }
            // The attempt is spent: the next one gets a fresh window.
            deadline = None;
        }
    }

    /// The shared reaction to a silent (or corrupt) window from `from`:
    /// lossy mode counts a miss, synchronized mode burns a retry from
    /// the caller-chosen budget (`attempt`), requests a resend, tells
    /// `right` we're still here, and backs off. Returns `Some` when the
    /// receive loop should stop retrying.
    ///
    /// `stalled` means the upstream sent a Busy since the last timeout:
    /// it is provably alive but blocked on ring repair, so a lossy
    /// deadline waits one more window rather than skipping the chunk —
    /// finalizing a bucket mid-heal would bake a half-empty contributor
    /// set into the step when a restart is imminent anyway.
    #[allow(clippy::too_many_arguments)]
    fn handle_silence(
        &mut self,
        from: usize,
        right: usize,
        key: Key,
        lossy: bool,
        stalled: bool,
        attempt: &mut u32,
        metrics: &Arc<FaultMetrics>,
        evicted: &mut Vec<usize>,
    ) -> Option<RecvOutcome> {
        if lossy {
            if stalled {
                // Repair in progress upstream: it ends in data, an
                // eviction broadcast, or our own DeathNotice — all of
                // which unblock us. Signal our own waiter and hold.
                self.tp.send_busy(right, key, self.tp.rank());
                return None;
            }
            self.misses[from] += 1;
            if self.misses[from] > self.policy.max_retries {
                self.evict_failed(from, evicted);
                return Some(RecvOutcome::Restart);
            }
            // Even on the deadline-driven path, our waiter must learn
            // we're alive before it burns its own (short) miss budget.
            self.tp.send_busy(right, key, self.tp.rank());
            return Some(RecvOutcome::Missed);
        }
        *attempt += 1;
        if *attempt > self.policy.max_retries {
            self.evict_failed(from, evicted);
            return Some(RecvOutcome::Restart);
        }
        FaultMetrics::bump(&metrics.retries);
        let _ = self.tp.request_resend(from, key);
        // Our own waiter must not mistake this stall for our death.
        self.tp.send_busy(right, key, self.tp.rank());
        let pause = self.policy.backoff(*attempt, &mut self.rng);
        std::thread::sleep(pause);
        None
    }

    /// Feeds a successful receive latency into the peer's EWMA and
    /// flags a straggler when it blows past the estimate.
    fn observe_latency(&mut self, from: usize, took: Duration) {
        let ms = took.as_secs_f64() * 1e3;
        let n = self.ewma_n[from];
        if n >= self.policy.straggler_grace
            && !self.flagged[from]
            && ms > self.policy.straggler_threshold * self.ewma[from].max(0.05)
        {
            self.flagged[from] = true;
            FaultMetrics::bump(&self.tp.metrics().stragglers_detected);
        }
        self.ewma[from] = if n == 0 {
            ms
        } else {
            self.policy.ewma_alpha * ms + (1.0 - self.policy.ewma_alpha) * self.ewma[from]
        };
        self.ewma_n[from] = n.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_spans_cover_exactly_once() {
        for (len, k) in [(10, 3), (7, 7), (3, 5), (0, 2), (16, 4)] {
            let spans = chunk_spans(len, k);
            assert_eq!(spans.len(), k);
            let mut at = 0;
            for s in &spans {
                assert_eq!(s.start, at);
                at = s.end;
            }
            assert_eq!(at, len);
            let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced chunking");
        }
    }

    #[test]
    fn reference_allreduce_is_a_rotated_mean() {
        let parts = vec![vec![1.0f32; 8], vec![2.0; 8], vec![3.0; 8], vec![6.0; 8]];
        let out = reference_allreduce(&parts);
        for v in out {
            assert_eq!(v, 3.0);
        }
        // Solo contribution comes back untouched.
        let solo = vec![vec![0.1f32, -0.2, 0.3]];
        assert_eq!(reference_allreduce(&solo), solo[0]);
    }

    #[test]
    fn comm_policy_validation_catches_nonsense() {
        assert!(CommPolicy::default().validate().is_ok());
        let nonsense = [
            CommPolicy { op_timeout_ms: 0, ..CommPolicy::default() },
            CommPolicy { jitter: 1.5, ..CommPolicy::default() },
            CommPolicy { straggler_threshold: 0.5, ..CommPolicy::default() },
            CommPolicy { backoff_cap_ms: 0.5, ..CommPolicy::default() },
        ];
        for p in nonsense {
            assert!(p.validate().is_err());
        }
    }

    #[test]
    fn backoff_grows_and_respects_cap_with_jitter() {
        let p = CommPolicy {
            backoff_base_ms: 2.0,
            backoff_cap_ms: 16.0,
            jitter: 0.5,
            ..CommPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let b1 = p.backoff(1, &mut rng).as_secs_f64() * 1e3;
        let b3 = p.backoff(3, &mut rng).as_secs_f64() * 1e3;
        let b9 = p.backoff(9, &mut rng).as_secs_f64() * 1e3;
        assert!((2.0..=3.0).contains(&b1), "base with jitter, got {b1}");
        assert!((8.0..=12.0).contains(&b3), "2*2^2 with jitter, got {b3}");
        assert!(b9 <= 16.0 * 1.5 + 1e-9, "capped with jitter, got {b9}");
        // Deterministic for a fixed seed.
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(p.backoff(2, &mut r1), p.backoff(2, &mut r2));
    }
}
