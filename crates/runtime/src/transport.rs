//! The real communicator substrate for distributed training: framed,
//! CRC-checked gradient chunks moved over an exchangeable [`Wire`], with
//! membership tracking and retransmission on top.
//!
//! Layers, bottom to top:
//!
//! * [`Frame`] — the wire format (v2): a fixed little-endian header
//!   (magic, protocol version, kind, sender, step/bucket/phase/ring-step
//!   /chunk key, alive mask, failed mask, contributors mask), an `f32`
//!   payload, and a CRC32 trailer computed by the *same*
//!   [`crate::checkpoint::crc32`] that guards checkpoints.
//! * [`Wire`] — "push these bytes toward peer `p`", unreliable by
//!   design. Two real wires live here ([`ChannelWire`] over in-process
//!   `mpsc` channels, [`TcpWire`] over sockets) and
//!   [`crate::fault::FaultyTransport`] wraps any of them to inject the
//!   deterministic fault plans.
//! * [`Router`] — the shared receive side: per-peer frame queues fed by
//!   reader threads, the membership masks, and the retransmit buffer
//!   that services [`FrameKind::Resend`] requests — reliability is
//!   receiver-driven: a receiver that times out or sees a corrupt frame
//!   asks the sender to re-send, which keeps the ring deadlock-free
//!   (nobody ever blocks waiting for an ack).
//! * [`Transport`] — the high-level trait the ring all-reduce
//!   ([`crate::ring`]) drives: framed send, deadline-bounded receive
//!   (with a fail-watch that aborts the wait the instant a watched rank
//!   is declared dead), resend requests, Busy liveness signalling, and
//!   eviction broadcast.
//!
//! Membership is two masks with different laws. `alive` shrinks on both
//! graceful [`FrameKind::Goodbye`] departures and failures; `failed` is
//! a grow-only CRDT set only ever fed by hard evidence — a local
//! eviction, a received [`FrameKind::Evict`], or in-band adoption of the
//! `failed` mask stamped on every data frame (union on receive). Death
//! news therefore rides the data path itself and cannot be confused
//! with a peer that merely finished early and said goodbye. A data
//! frame whose alive mask still includes a rank the receiver knows to
//! have failed is a stale pre-healing frame and is dropped; frames and
//! evictions from senders whose own alive bit is already cleared are
//! discarded outright, so an evicted rank cannot poison the survivors.
//! [`FrameKind::Busy`] frames ("alive, but blocked waiting upstream")
//! let a stalled-but-live chain hold its waiters' patience without
//! resetting anyone's corruption budget. Rejoin within a run is not
//! supported — a worker that lost its seat restarts the job.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::RuntimeError;
use crate::frame::{read_frame, seal, verify, write_frame, FrameIntegrity, CRC_LEN};
use crate::metrics::FaultMetrics;

/// Version stamped into every frame and checked during the handshake.
pub const PROTOCOL_VERSION: u16 = 2;

/// Largest supported world size (the alive mask is a `u32`).
pub const MAX_WORLD: usize = 32;

const MAGIC: u16 = 0x4C54; // "LT"
pub(crate) const HEADER_LEN: usize = 36;
const TRAILER_LEN: usize = CRC_LEN;
/// Sanity cap on frame payloads (64 MiB of gradients per chunk).
const MAX_PAYLOAD: usize = 1 << 26;

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A gradient chunk (reduce-scatter running sum or all-gather copy).
    Data,
    /// "Re-send the frame with my key": receiver-driven retransmission.
    Resend,
    /// "The rank in my `chunk` field is dead": eviction broadcast.
    Evict,
    /// Handshake: `contributors` holds the net fingerprint, `chunk` the
    /// world size.
    Hello,
    /// Graceful leave; receivers drop the sender without counting an
    /// eviction.
    Goodbye,
    /// "I'm alive but blocked waiting upstream": a stuck waiter sends
    /// this to its downstream neighbor each silent deadline, so patient
    /// peers don't evict a live rank whose own upstream stalled. The
    /// true failure detector — the rank adjacent to a dead node — hears
    /// no Busy and evicts at its budget, ending the chain. `chunk` names
    /// the rank whose stall started the signal, so a relay stops once it
    /// has gone all the way round.
    Busy,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Resend => 1,
            FrameKind::Evict => 2,
            FrameKind::Hello => 3,
            FrameKind::Goodbye => 4,
            FrameKind::Busy => 5,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::Resend,
            2 => FrameKind::Evict,
            3 => FrameKind::Hello,
            4 => FrameKind::Goodbye,
            5 => FrameKind::Busy,
            _ => return None,
        })
    }
}

/// Identifies one ring operation: frames, resend requests, and the
/// retransmit buffer are all keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Training step.
    pub step: u32,
    /// Gradient bucket (backward group) within the step.
    pub bucket: u16,
    /// 0 = reduce-scatter, 1 = all-gather.
    pub phase: u8,
    /// Position in the ring schedule (`0..k-1`).
    pub ring_step: u16,
}

/// A decoded transport frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender rank.
    pub from: u16,
    /// Ring-operation key.
    pub key: Key,
    /// Which chunk of the bucket the payload is (also: the victim rank
    /// for [`FrameKind::Evict`], the world size for [`FrameKind::Hello`]).
    pub chunk: u16,
    /// Sender's alive mask at send time.
    pub alive: u32,
    /// Sender's *failed* mask at send time: the in-band channel for
    /// death news. Receivers adopt these bits directly, so graceful
    /// departures (which shrink `alive` but not `failed`) are never
    /// mistaken for failures.
    pub failed: u32,
    /// Ranks whose gradients are folded into the payload (also: the net
    /// fingerprint for [`FrameKind::Hello`]).
    pub contributors: u32,
    /// Gradient values (empty for control frames).
    pub payload: Vec<f32>,
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header + trailer, or truncated payload.
    Truncated,
    /// Magic bytes wrong.
    BadMagic,
    /// Protocol version mismatch (carries the sender's version).
    BadVersion(u16),
    /// Unknown frame kind.
    BadKind,
    /// CRC32 trailer mismatch: the payload was corrupted in flight.
    BadCrc,
}

impl Frame {
    /// A control frame (no payload).
    pub fn control(kind: FrameKind, from: u16, key: Key, chunk: u16) -> Frame {
        Frame {
            kind,
            from,
            key,
            chunk,
            alive: 0,
            failed: 0,
            contributors: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes to header + payload + CRC32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let plen = self.payload.len() * 4;
        let mut out = Vec::with_capacity(HEADER_LEN + plen + TRAILER_LEN);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(self.kind.to_u8());
        out.push(self.key.phase);
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.key.step.to_le_bytes());
        out.extend_from_slice(&self.key.bucket.to_le_bytes());
        out.extend_from_slice(&self.key.ring_step.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.alive.to_le_bytes());
        out.extend_from_slice(&self.failed.to_le_bytes());
        out.extend_from_slice(&self.contributors.to_le_bytes());
        out.extend_from_slice(&(plen as u32).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        for v in &self.payload {
            out.extend_from_slice(&v.to_le_bytes());
        }
        seal(out)
    }

    /// Parses and CRC-verifies an encoded frame.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; [`FrameError::BadCrc`] is the corruption
    /// signal the retransmission path reacts to.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        let u16_at = |o: usize| u16::from_le_bytes([bytes[o], bytes[o + 1]]);
        let u32_at =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        if u16_at(0) != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = u16_at(2);
        if version != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = FrameKind::from_u8(bytes[4]).ok_or(FrameError::BadKind)?;
        let plen = u32_at(32) as usize;
        if plen > MAX_PAYLOAD || !plen.is_multiple_of(4) {
            return Err(FrameError::Truncated);
        }
        if bytes.len() != HEADER_LEN + plen + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        verify(bytes).map_err(|e| match e {
            FrameIntegrity::BadCrc => FrameError::BadCrc,
            FrameIntegrity::Truncated => FrameError::Truncated,
        })?;
        let mut payload = Vec::with_capacity(plen / 4);
        for i in 0..plen / 4 {
            let o = HEADER_LEN + 4 * i;
            payload.push(f32::from_le_bytes([
                bytes[o],
                bytes[o + 1],
                bytes[o + 2],
                bytes[o + 3],
            ]));
        }
        Ok(Frame {
            kind,
            from: u16_at(6),
            key: Key {
                step: u32_at(8),
                bucket: u16_at(12),
                phase: bytes[5],
                ring_step: u16_at(14),
            },
            chunk: u16_at(16),
            alive: u32_at(20),
            failed: u32_at(24),
            contributors: u32_at(28),
            payload,
        })
    }

    /// Reads just the header of an encoded frame, without CRC
    /// verification — used by the fault injector to key injections by
    /// `(sender, step, bucket)` without paying a full decode.
    pub fn peek(bytes: &[u8]) -> Option<PeekedFrame> {
        if bytes.len() < HEADER_LEN {
            return None;
        }
        let u16_at = |o: usize| u16::from_le_bytes([bytes[o], bytes[o + 1]]);
        let u32_at =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        if u16_at(0) != MAGIC {
            return None;
        }
        Some(PeekedFrame {
            kind: FrameKind::from_u8(bytes[4])?,
            from: u16_at(6),
            key: Key {
                step: u32_at(8),
                bucket: u16_at(12),
                phase: bytes[5],
                ring_step: u16_at(14),
            },
            payload_len: u32_at(32) as usize,
        })
    }
}

/// Header fields surfaced by [`Frame::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeekedFrame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Sender rank.
    pub from: u16,
    /// Ring-operation key.
    pub key: Key,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Flips one payload bit of an encoded [`FrameKind::Data`] frame in
/// place (no-op for control frames or payload-free frames). The CRC
/// trailer is left alone, so the receiver's decode fails — this is how
/// [`crate::fault::Fault::TransferCorrupt`] reaches the real wire.
pub fn corrupt_payload(bytes: &mut [u8]) -> bool {
    match Frame::peek(bytes) {
        Some(p) if p.kind == FrameKind::Data && p.payload_len > 0 => {
            let at = HEADER_LEN + p.payload_len / 2;
            if at < bytes.len() {
                bytes[at] ^= 0x10;
                true
            } else {
                false
            }
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A transport-level failure. Retryable variants (timeout, corruption)
/// are absorbed by the ring layer's retry/eviction policy; terminal ones
/// surface as [`RuntimeError::Transport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The per-op deadline expired with nothing delivered.
    Timeout {
        /// Peer being waited on.
        peer: usize,
    },
    /// The peer is marked dead in the alive mask.
    PeerDead {
        /// The dead peer.
        peer: usize,
    },
    /// The link to the peer broke (connection reset / channel closed).
    Disconnected {
        /// The unreachable peer.
        peer: usize,
    },
    /// Handshake rejected (version or fingerprint mismatch, bad rank).
    Handshake {
        /// Why.
        detail: String,
    },
    /// The requested world exceeds the transport's membership-mask
    /// capacity: alive/failed masks are a single `u32` word, so one
    /// group supports at most [`MAX_WORLD`] ranks. A rank ≥ 32 would
    /// silently corrupt mask arithmetic, so group construction refuses
    /// it up front (scaling beyond this needs wider masks or
    /// hierarchical rings — see DESIGN.md §12).
    TooManyRanks {
        /// The requested world size.
        world: usize,
        /// The supported maximum ([`MAX_WORLD`]).
        max: usize,
    },
    /// Socket-level failure outside a particular peer conversation.
    Io {
        /// Why.
        detail: String,
    },
    /// A rank in the receiver's fail-watch mask was declared failed
    /// while the receive was blocked — the ring must heal before the
    /// wait can meaningfully continue.
    DeathNotice,
    /// The endpoint was shut down.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Timeout { peer } => write!(f, "deadline expired waiting on peer {peer}"),
            TransportError::PeerDead { peer } => write!(f, "peer {peer} is dead"),
            TransportError::Disconnected { peer } => write!(f, "link to peer {peer} is down"),
            TransportError::Handshake { detail } => write!(f, "handshake rejected: {detail}"),
            TransportError::TooManyRanks { world, max } => write!(
                f,
                "world of {world} exceeds the {max}-rank membership-mask capacity"
            ),
            TransportError::Io { detail } => write!(f, "transport i/o: {detail}"),
            TransportError::DeathNotice => write!(f, "a watched peer failed mid-receive"),
            TransportError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport {
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

/// The lowest layer: push encoded bytes toward a peer. Implementations
/// are free to lose, delay, or corrupt them ([`crate::fault::FaultyTransport`]
/// does so on purpose); reliability lives above, in the resend protocol.
pub trait Wire: Send + Sync + 'static {
    /// Attempts to move `bytes` to peer `to`. An `Ok` return means the
    /// bytes were accepted for delivery, not that they arrived.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is known down.
    fn send(&self, to: usize, bytes: Vec<u8>) -> Result<(), TransportError>;

    /// Tears down the wire's links so reader threads blocked on it can
    /// exit. Called from [`Endpoint`]'s drop; wrappers must forward it.
    fn close(&self) {}
}

// ---------------------------------------------------------------------------
// Router: shared receive side
// ---------------------------------------------------------------------------

/// What a deadline-bounded receive yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// A verified frame.
    Frame(Frame),
    /// Bytes arrived but failed CRC/decode — the caller should request a
    /// resend (this is the corruption-is-retryable path).
    Corrupt,
}

struct RouterState {
    alive: u32,
    /// Ranks declared dead by *failure* (eviction or in-band death
    /// adoption) — a subset of the cleared `alive` bits. A graceful
    /// Goodbye clears `alive` but not this: the leaver's already-queued
    /// frames stay valid and nobody restarts a bucket over it.
    failed: u32,
    queues: Vec<VecDeque<Delivery>>,
    link_down: Vec<bool>,
    /// Encoded frames we sent, for servicing resend requests. Pruned to
    /// the two most recent steps.
    sent: HashMap<(usize, Key), Vec<u8>>,
    closed: bool,
}

struct RouterInner {
    rank: usize,
    world: usize,
    state: Mutex<RouterState>,
    cv: Condvar,
    metrics: Arc<FaultMetrics>,
}

/// The shared receive side of an endpoint: per-peer queues, the alive
/// mask, and the retransmit buffer. Reader threads push into it via
/// [`Router::deliver`]; the ring layer pulls via [`Router::recv`].
#[derive(Clone)]
pub struct Router {
    inner: Arc<RouterInner>,
}

fn full_mask(world: usize) -> u32 {
    debug_assert!(world <= MAX_WORLD, "world {world} exceeds the mask capacity");
    if world >= 32 {
        u32::MAX
    } else {
        (1u32 << world) - 1
    }
}

impl Router {
    /// A router for `rank` in a world of `world` ranks, all initially
    /// alive.
    ///
    /// # Errors
    ///
    /// [`TransportError::TooManyRanks`] when `world` exceeds
    /// [`MAX_WORLD`] (the `u32` membership masks hold at most 32 ranks);
    /// [`TransportError::Handshake`] for other degenerate geometry
    /// (world `0`, or `rank` out of range).
    pub fn new(
        rank: usize,
        world: usize,
        metrics: Arc<FaultMetrics>,
    ) -> Result<Router, TransportError> {
        if world > MAX_WORLD {
            return Err(TransportError::TooManyRanks { world, max: MAX_WORLD });
        }
        if world == 0 || rank >= world {
            return Err(TransportError::Handshake {
                detail: format!("bad geometry: rank {rank} of world {world} (max {MAX_WORLD})"),
            });
        }
        Ok(Router {
            inner: Arc::new(RouterInner {
                rank,
                world,
                state: Mutex::new(RouterState {
                    alive: full_mask(world),
                    failed: 0,
                    queues: (0..world).map(|_| VecDeque::new()).collect(),
                    link_down: vec![false; world],
                    sent: HashMap::new(),
                    closed: false,
                }),
                cv: Condvar::new(),
                metrics,
            }),
        })
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// The configured world size.
    pub fn world(&self) -> usize {
        self.inner.world
    }

    /// Current alive mask (bit `r` set = rank `r` believed alive).
    pub fn alive_mask(&self) -> u32 {
        self.inner.state.lock().unwrap().alive
    }

    /// Ranks declared dead by failure (bit set = failed). Gracefully
    /// departed ranks are absent from [`Router::alive_mask`] but not
    /// set here.
    pub fn failed_mask(&self) -> u32 {
        self.inner.state.lock().unwrap().failed
    }

    /// The shared fault counters.
    pub fn metrics(&self) -> &Arc<FaultMetrics> {
        &self.inner.metrics
    }

    /// Blocks until a rank in `mask` is declared failed or `deadline`
    /// passes; returns whether one failed. Consumes nothing from the
    /// delivery queues — safe to call between operations.
    pub fn wait_failure(&self, mask: u32, deadline: Instant) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.failed & mask != 0 {
                return true;
            }
            if st.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.inner.cv.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Marks a peer dead locally. Returns whether the mask changed;
    /// counts `peers_evicted` when `counted`.
    fn mark_dead(&self, peer: usize, counted: bool) -> bool {
        let bit = 1u32 << peer;
        let mut st = self.inner.state.lock().unwrap();
        if st.alive & bit == 0 {
            return false;
        }
        st.alive &= !bit;
        if counted {
            st.failed |= bit;
        }
        drop(st);
        if counted {
            FaultMetrics::bump(&self.inner.metrics.peers_evicted);
            FaultMetrics::bump(&self.inner.metrics.nodes_failed);
        }
        self.inner.cv.notify_all();
        true
    }

    /// Marks the link to `peer` down (reader thread hit EOF/error) so
    /// blocked receivers fail fast instead of waiting out the deadline.
    pub fn mark_link_down(&self, peer: usize) {
        let mut st = self.inner.state.lock().unwrap();
        st.link_down[peer] = true;
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Clears the link-down flag after a successful reconnect.
    pub fn mark_link_up(&self, peer: usize) {
        self.inner.state.lock().unwrap().link_down[peer] = false;
    }

    /// Remembers an encoded data frame for resend servicing and prunes
    /// entries older than the previous step.
    fn note_sent(&self, to: usize, key: Key, bytes: Vec<u8>) {
        let mut st = self.inner.state.lock().unwrap();
        let floor = key.step.saturating_sub(1);
        st.sent.retain(|(_, k), _| k.step >= floor);
        st.sent.insert((to, key), bytes);
    }

    /// Ingests raw bytes read off the wire from `from`. Reader threads
    /// call this; `wire` is borrowed to service resend requests.
    pub fn deliver(&self, from: usize, bytes: &[u8], wire: &dyn Wire) {
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                FaultMetrics::bump(&self.inner.metrics.transfers_corrupted);
                let mut st = self.inner.state.lock().unwrap();
                st.queues[from].push_back(Delivery::Corrupt);
                drop(st);
                self.inner.cv.notify_all();
                return;
            }
        };
        match frame.kind {
            FrameKind::Data => {
                let mut st = self.inner.state.lock().unwrap();
                if st.alive & (1u32 << from) == 0 {
                    // A peer we already consider gone has no say: its
                    // frames (and the mask they carry) are void.
                    return;
                }
                let news = frame.failed & st.alive;
                if news != 0 {
                    // The sender knows about *failures* we haven't seen:
                    // adopt them (grow-only CRDT merge on the failed
                    // mask). The alive mask alone can't carry this news —
                    // it also shrinks on graceful departures, which must
                    // never be mistaken for deaths.
                    let removed = news.count_ones() as u64;
                    st.failed |= news;
                    st.alive &= !news;
                    drop(st);
                    for _ in 0..removed {
                        FaultMetrics::bump(&self.inner.metrics.peers_evicted);
                        FaultMetrics::bump(&self.inner.metrics.nodes_failed);
                    }
                    st = self.inner.state.lock().unwrap();
                }
                if frame.alive & st.failed != 0 {
                    // The sender believes someone we know *failed* is
                    // alive: a stale pre-healing frame. Drop it; the
                    // sender converges via the Evict broadcast / its
                    // timeouts. (A mask still naming a gracefully
                    // departed peer is fine — departure doesn't restart
                    // buckets.)
                    drop(st);
                    self.inner.cv.notify_all();
                    return;
                }
                st.queues[from].push_back(Delivery::Frame(frame));
                drop(st);
                self.inner.cv.notify_all();
            }
            FrameKind::Resend => {
                let buf = {
                    let st = self.inner.state.lock().unwrap();
                    st.sent.get(&(from, frame.key)).cloned()
                };
                if let Some(b) = buf {
                    FaultMetrics::bump(&self.inner.metrics.send_retries);
                    let _ = wire.send(from, b);
                }
                // A miss means the frame predates our retransmit window;
                // the requester escalates (evicts us or gives up) on its
                // own clock.
            }
            FrameKind::Evict => {
                // Only live peers may evict others — an evicted rank
                // wrongly evicting the survivors it can no longer hear
                // must not cascade through the healed ring.
                if self.inner.state.lock().unwrap().alive & (1u32 << from) == 0 {
                    return;
                }
                let victim = frame.chunk as usize;
                if victim < self.inner.world {
                    self.mark_dead(victim, true);
                }
            }
            FrameKind::Goodbye => {
                self.mark_dead(from, false);
            }
            FrameKind::Busy => {
                // A pure liveness signal: queue it so a blocked receiver
                // restarts its patience window (its mask is ignored — a
                // laggard's view of the ring may be stale).
                let mut st = self.inner.state.lock().unwrap();
                if st.alive & (1u32 << from) != 0 {
                    st.queues[from].push_back(Delivery::Frame(frame));
                }
                drop(st);
                self.inner.cv.notify_all();
            }
            FrameKind::Hello => {
                // Handshakes are consumed before reader threads start;
                // a stray Hello is harmless.
            }
        }
    }

    /// Pops the next delivery from `from`, waiting until `deadline`.
    /// `fail_watch` is a rank mask: if any of those ranks is declared
    /// failed while the wait blocks, the call aborts immediately with
    /// [`TransportError::DeathNotice`] instead of sitting out the
    /// deadline — healing must not wait on a timeout.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerDead`] when the mask says so,
    /// [`TransportError::Disconnected`] when the link broke with nothing
    /// queued, [`TransportError::Timeout`] at the deadline,
    /// [`TransportError::DeathNotice`] on watched-rank failure, and
    /// [`TransportError::Closed`] after shutdown.
    pub fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(TransportError::Closed);
            }
            if st.failed & fail_watch != 0 {
                return Err(TransportError::DeathNotice);
            }
            if let Some(d) = st.queues[from].pop_front() {
                return Ok(d);
            }
            if st.alive & (1 << from) == 0 {
                return Err(TransportError::PeerDead { peer: from });
            }
            if st.link_down[from] {
                return Err(TransportError::Disconnected { peer: from });
            }
            let now = Instant::now();
            if now >= deadline {
                FaultMetrics::bump(&self.inner.metrics.timeouts);
                return Err(TransportError::Timeout { peer: from });
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap();
            st = guard;
        }
    }

    fn close(&self) {
        self.inner.state.lock().unwrap().closed = true;
        self.inner.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Transport: the high-level trait
// ---------------------------------------------------------------------------

/// The communicator handle the ring all-reduce drives. Implemented by
/// [`Endpoint`] over any [`Wire`].
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Configured world size.
    fn world(&self) -> usize;
    /// Current alive mask.
    fn alive_mask(&self) -> u32;
    /// Ranks declared dead by failure (eviction / adopted deaths);
    /// excludes graceful departures.
    fn failed_mask(&self) -> u32;
    /// The endpoint's fault counters.
    fn metrics(&self) -> &Arc<FaultMetrics>;
    /// Declares `peer` dead: shrinks the local mask, counts the
    /// eviction, and broadcasts [`FrameKind::Evict`] to the survivors.
    /// Returns whether the mask changed.
    fn evict(&self, peer: usize) -> bool;
    /// Sends a data frame (stamping `from` and the current alive mask)
    /// and retains it for resend servicing.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is down.
    fn send_data(&self, to: usize, frame: Frame) -> Result<(), TransportError>;
    /// Asks `from` to re-send the frame with `key`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is down.
    fn request_resend(&self, from: usize, key: Key) -> Result<(), TransportError>;
    /// Waits for the next delivery from `from` until `deadline`,
    /// aborting early with [`TransportError::DeathNotice`] if a rank in
    /// `fail_watch` is declared failed meanwhile.
    ///
    /// # Errors
    ///
    /// See [`Router::recv`].
    fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError>;
    /// Tells `to` "I'm alive but blocked waiting upstream" (best
    /// effort, fire-and-forget): lets a patient downstream neighbor
    /// forgive our silence instead of counting it as our death.
    /// `origin` is the rank whose stall started the signal (ourselves,
    /// or the upstream whose Busy we relay); it rides in the frame's
    /// `chunk` so a relayed signal stops when it comes back around.
    fn send_busy(&self, to: usize, key: Key, origin: usize);
    /// Blocks until a rank in `mask` is declared failed or `deadline`
    /// passes; returns whether one failed. Consumes no deliveries.
    fn wait_failure(&self, mask: u32, deadline: Instant) -> bool;
    /// Announces a graceful leave to all live peers (best effort).
    fn goodbye(&self);
}

/// A [`Transport`] built from a [`Router`] and a [`Wire`].
pub struct Endpoint<W: Wire> {
    router: Router,
    wire: Arc<W>,
}

impl<W: Wire> Endpoint<W> {
    /// Assembles an endpoint; reader threads feeding `router` are the
    /// constructor's (e.g. [`channel_group_with`]'s) responsibility.
    pub fn new(router: Router, wire: Arc<W>) -> Endpoint<W> {
        Endpoint { router, wire }
    }

    /// The underlying wire (used by tests and the worker binary).
    pub fn wire(&self) -> &Arc<W> {
        &self.wire
    }

    /// The shared router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    fn live_peers(&self) -> Vec<usize> {
        let mask = self.router.alive_mask();
        (0..self.router.world())
            .filter(|&r| r != self.router.rank() && mask & (1 << r) != 0)
            .collect()
    }
}

impl<W: Wire> Transport for Endpoint<W> {
    fn rank(&self) -> usize {
        self.router.rank()
    }

    fn world(&self) -> usize {
        self.router.world()
    }

    fn alive_mask(&self) -> u32 {
        self.router.alive_mask()
    }

    fn failed_mask(&self) -> u32 {
        self.router.failed_mask()
    }

    fn metrics(&self) -> &Arc<FaultMetrics> {
        self.router.metrics()
    }

    fn evict(&self, peer: usize) -> bool {
        if !self.router.mark_dead(peer, true) {
            return false;
        }
        let key = Key {
            step: 0,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        };
        for p in self.live_peers() {
            let mut f = Frame::control(FrameKind::Evict, self.router.rank() as u16, key, peer as u16);
            f.alive = self.router.alive_mask();
            f.failed = self.router.failed_mask();
            let _ = self.wire.send(p, f.encode());
        }
        true
    }

    fn send_data(&self, to: usize, mut frame: Frame) -> Result<(), TransportError> {
        frame.kind = FrameKind::Data;
        frame.from = self.router.rank() as u16;
        frame.alive = self.router.alive_mask();
        frame.failed = self.router.failed_mask();
        let bytes = frame.encode();
        self.router.note_sent(to, frame.key, bytes.clone());
        self.wire.send(to, bytes)
    }

    fn request_resend(&self, from: usize, key: Key) -> Result<(), TransportError> {
        let mut f = Frame::control(FrameKind::Resend, self.router.rank() as u16, key, 0);
        f.alive = self.router.alive_mask();
        self.wire.send(from, f.encode())
    }

    fn recv(
        &self,
        from: usize,
        deadline: Instant,
        fail_watch: u32,
    ) -> Result<Delivery, TransportError> {
        self.router.recv(from, deadline, fail_watch)
    }

    fn send_busy(&self, to: usize, key: Key, origin: usize) {
        let mut f = Frame::control(
            FrameKind::Busy,
            self.router.rank() as u16,
            key,
            origin as u16,
        );
        f.alive = self.router.alive_mask();
        f.failed = self.router.failed_mask();
        let _ = self.wire.send(to, f.encode());
    }

    fn wait_failure(&self, mask: u32, deadline: Instant) -> bool {
        self.router.wait_failure(mask, deadline)
    }

    fn goodbye(&self) {
        let key = Key {
            step: u32::MAX,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        };
        for p in self.live_peers() {
            let f = Frame::control(FrameKind::Goodbye, self.router.rank() as u16, key, 0);
            let _ = self.wire.send(p, f.encode());
        }
        self.router.close();
    }
}

// ---------------------------------------------------------------------------
// Channel wire: deterministic in-process transport
// ---------------------------------------------------------------------------

/// One take-able sender per peer: taken on eviction/goodbye so later
/// sends fail fast instead of queueing into a dead endpoint.
type PeerSenders = Vec<Mutex<Option<mpsc::Sender<(usize, Vec<u8>)>>>>;

/// In-process wire: one `mpsc` channel per receiving endpoint, FIFO and
/// lossless (until wrapped by [`crate::fault::FaultyTransport`]).
pub struct ChannelWire {
    rank: usize,
    peers: PeerSenders,
}

impl Wire for ChannelWire {
    fn send(&self, to: usize, bytes: Vec<u8>) -> Result<(), TransportError> {
        let slot = self
            .peers
            .get(to)
            .ok_or(TransportError::Disconnected { peer: to })?;
        let guard = slot.lock().unwrap();
        match guard.as_ref() {
            Some(tx) => tx
                .send((self.rank, bytes))
                .map_err(|_| TransportError::Disconnected { peer: to }),
            None => Err(TransportError::Disconnected { peer: to }),
        }
    }

    fn close(&self) {
        // Dropping the senders lets every peer's reader thread observe a
        // channel disconnect and exit (threads hold `Arc<ChannelWire>`,
        // so this cannot wait for `Drop`).
        for slot in &self.peers {
            slot.lock().unwrap().take();
        }
    }
}

/// Builds a fully-connected in-process group of `world` endpoints, each
/// with its own [`FaultMetrics`], wrapping each rank's raw
/// [`ChannelWire`] through `wrap` (identity for a clean group, a
/// [`crate::fault::FaultyTransport`] constructor for fault testing).
///
/// # Errors
///
/// [`TransportError::TooManyRanks`] for a world over [`MAX_WORLD`];
/// [`TransportError::Handshake`] for a degenerate world size.
pub fn channel_group_with<W: Wire>(
    world: usize,
    mut wrap: impl FnMut(usize, ChannelWire) -> W,
) -> Result<Vec<Endpoint<W>>, TransportError> {
    let mut txs = Vec::with_capacity(world);
    let mut rxs = Vec::with_capacity(world);
    for _ in 0..world {
        let (tx, rx) = mpsc::channel::<(usize, Vec<u8>)>();
        txs.push(tx);
        rxs.push(rx);
    }
    let mut out = Vec::with_capacity(world);
    for (rank, rx) in rxs.into_iter().enumerate() {
        let peers = txs
            .iter()
            .enumerate()
            .map(|(r, tx)| Mutex::new((r != rank).then(|| tx.clone())))
            .collect();
        let wire = Arc::new(wrap(rank, ChannelWire { rank, peers }));
        let metrics = Arc::new(FaultMetrics::new());
        let router = Router::new(rank, world, metrics)?;
        let r2 = router.clone();
        let w2 = Arc::clone(&wire);
        std::thread::Builder::new()
            .name(format!("latte-chan-rx-{rank}"))
            .spawn(move || {
                while let Ok((from, bytes)) = rx.recv() {
                    r2.deliver(from, &bytes, w2.as_ref());
                }
            })
            .expect("spawn channel reader");
        out.push(Endpoint::new(router, wire));
    }
    Ok(out)
}

/// [`channel_group_with`] with the identity wrap: a clean, lossless
/// in-process group.
///
/// # Errors
///
/// [`TransportError::TooManyRanks`] for a world over [`MAX_WORLD`];
/// [`TransportError::Handshake`] for a degenerate world size.
pub fn channel_group(world: usize) -> Result<Vec<Endpoint<ChannelWire>>, TransportError> {
    channel_group_with(world, |_, w| w)
}

// ---------------------------------------------------------------------------
// TCP wire: multi-process transport
// ---------------------------------------------------------------------------

/// TCP transport configuration for [`tcp_rendezvous`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's rank (index into `addrs`).
    pub rank: usize,
    /// One `host:port` per rank; rank `r` listens on `addrs[r]`.
    pub addrs: Vec<String>,
    /// Net fingerprint every peer must match (see
    /// [`crate::dist::net_fingerprint`]).
    pub fingerprint: u32,
    /// How long rendezvous may take before giving up.
    pub rendezvous_timeout: Duration,
    /// Reconnect attempts a reader makes after a broken link before
    /// declaring the peer unreachable.
    pub reconnect_attempts: u32,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl TcpConfig {
    /// A config with default timeouts (10 s rendezvous, 2 reconnect
    /// attempts 50 ms apart).
    pub fn new(rank: usize, addrs: Vec<String>, fingerprint: u32) -> TcpConfig {
        TcpConfig {
            rank,
            addrs,
            fingerprint,
            rendezvous_timeout: Duration::from_secs(10),
            reconnect_attempts: 2,
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

struct TcpPeerSlot {
    stream: Mutex<Option<TcpStream>>,
}

/// Socket wire: one TCP connection per peer, length-prefixed frames,
/// per-peer write locks. Lower ranks accept, higher ranks dial (and
/// redial on a broken link); the handshake checks protocol version and
/// net fingerprint in both directions.
pub struct TcpWire {
    peers: Vec<TcpPeerSlot>,
    closing: AtomicBool,
    own_addr: String,
}

impl TcpWire {
    fn install(&self, peer: usize, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        *self.peers[peer].stream.lock().unwrap() = Some(stream);
    }

    fn drop_stream(&self, peer: usize) {
        *self.peers[peer].stream.lock().unwrap() = None;
    }
}

fn write_wire_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    write_frame(stream, bytes)
}

fn read_wire_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    read_frame(stream, HEADER_LEN + MAX_PAYLOAD + TRAILER_LEN)
}

fn hello_frame(rank: usize, world: usize, fingerprint: u32) -> Vec<u8> {
    let mut f = Frame::control(
        FrameKind::Hello,
        rank as u16,
        Key {
            step: 0,
            bucket: 0,
            phase: 0,
            ring_step: 0,
        },
        world as u16,
    );
    f.contributors = fingerprint;
    f.alive = full_mask(world);
    f.encode()
}

/// Validates a peer's hello; returns its rank.
fn check_hello(bytes: &[u8], world: usize, fingerprint: u32) -> Result<usize, TransportError> {
    let f = Frame::decode(bytes).map_err(|e| TransportError::Handshake {
        detail: match e {
            FrameError::BadVersion(v) => {
                format!("protocol version mismatch: peer speaks v{v}, we speak v{PROTOCOL_VERSION}")
            }
            other => format!("undecodable hello: {other:?}"),
        },
    })?;
    if f.kind != FrameKind::Hello {
        return Err(TransportError::Handshake {
            detail: format!("expected hello, got {:?}", f.kind),
        });
    }
    if f.chunk as usize != world {
        return Err(TransportError::Handshake {
            detail: format!("world mismatch: peer says {}, we say {world}", f.chunk),
        });
    }
    if f.contributors != fingerprint {
        return Err(TransportError::Handshake {
            detail: format!(
                "net fingerprint mismatch: peer {:08x}, ours {fingerprint:08x} — refusing to \
                 average gradients across different programs",
                f.contributors
            ),
        });
    }
    let rank = f.from as usize;
    if rank >= world {
        return Err(TransportError::Handshake {
            detail: format!("peer rank {rank} out of range"),
        });
    }
    Ok(rank)
}

fn spawn_tcp_reader(router: Router, wire: Arc<TcpWire>, peer: usize, cfg: TcpConfig) {
    let mut stream = {
        let guard = wire.peers[peer].stream.lock().unwrap();
        guard.as_ref().and_then(|s| s.try_clone().ok())
    };
    std::thread::Builder::new()
        .name(format!("latte-tcp-rx-{}-{peer}", cfg.rank))
        .spawn(move || loop {
            let Some(s) = stream.as_mut() else { return };
            match read_wire_frame(s) {
                Ok(bytes) => router.deliver(peer, &bytes, wire.as_ref()),
                Err(_) => {
                    if wire.closing.load(Ordering::Relaxed) {
                        return;
                    }
                    wire.drop_stream(peer);
                    // Only the dialing side (peer rank below ours) can
                    // re-establish; the accepting side waits for the
                    // peer to redial through the listener.
                    if peer >= cfg.rank {
                        router.mark_link_down(peer);
                        return;
                    }
                    let mut revived = None;
                    for _ in 0..cfg.reconnect_attempts {
                        FaultMetrics::bump(&router.metrics().reconnects);
                        std::thread::sleep(cfg.reconnect_backoff);
                        if let Ok(s) = dial_peer(&cfg, peer) {
                            revived = Some(s);
                            break;
                        }
                    }
                    match revived {
                        Some(s) => {
                            stream = s.try_clone().ok();
                            wire.install(peer, s);
                            router.mark_link_up(peer);
                        }
                        None => {
                            router.mark_link_down(peer);
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn tcp reader");
}

/// Dials `peer`, performs the bidirectional hello exchange, and returns
/// the connected stream.
fn dial_peer(cfg: &TcpConfig, peer: usize) -> Result<TcpStream, TransportError> {
    let world = cfg.addrs.len();
    let mut stream = TcpStream::connect(&cfg.addrs[peer]).map_err(|e| TransportError::Io {
        detail: format!("connect {}: {e}", cfg.addrs[peer]),
    })?;
    write_wire_frame(&mut stream, &hello_frame(cfg.rank, world, cfg.fingerprint)).map_err(|e| {
        TransportError::Io {
            detail: format!("hello to peer {peer}: {e}"),
        }
    })?;
    let reply = read_wire_frame(&mut stream).map_err(|e| TransportError::Io {
        detail: format!("hello-ack from peer {peer}: {e}"),
    })?;
    let got = check_hello(&reply, world, cfg.fingerprint)?;
    if got != peer {
        return Err(TransportError::Handshake {
            detail: format!("dialed peer {peer} but rank {got} answered"),
        });
    }
    Ok(stream)
}

/// Runs the full TCP rendezvous: binds `addrs[rank]`, dials every lower
/// rank, accepts every higher rank, handshakes each connection
/// (protocol version + net fingerprint + world size, both directions),
/// and returns a ready [`Transport`]. A persistent accept thread keeps
/// servicing redials from higher ranks for the life of the endpoint.
///
/// # Errors
///
/// [`TransportError::Handshake`] on any validation failure or when the
/// rendezvous deadline expires; [`TransportError::Io`] on socket
/// failures.
pub fn tcp_rendezvous(cfg: TcpConfig) -> Result<Endpoint<TcpWire>, TransportError> {
    let world = cfg.addrs.len();
    if cfg.rank >= world {
        return Err(TransportError::Handshake {
            detail: format!("rank {} out of range for {world} addrs", cfg.rank),
        });
    }
    let metrics = Arc::new(FaultMetrics::new());
    let router = Router::new(cfg.rank, world, metrics)?;
    let wire = Arc::new(TcpWire {
        peers: (0..world)
            .map(|_| TcpPeerSlot {
                stream: Mutex::new(None),
            })
            .collect(),
        closing: AtomicBool::new(false),
        own_addr: cfg.addrs[cfg.rank].clone(),
    });
    let listener = TcpListener::bind(&cfg.addrs[cfg.rank]).map_err(|e| TransportError::Io {
        detail: format!("bind {}: {e}", cfg.addrs[cfg.rank]),
    })?;

    // Accept thread: greets higher ranks, both at rendezvous and on any
    // later redial. Runs until the endpoint closes.
    let accepted: Arc<(Mutex<u32>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
    {
        let router = router.clone();
        let wire = Arc::clone(&wire);
        let cfg = cfg.clone();
        let accepted = Arc::clone(&accepted);
        std::thread::Builder::new()
            .name(format!("latte-tcp-accept-{}", cfg.rank))
            .spawn(move || {
                for conn in listener.incoming() {
                    if wire.closing.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let Ok(hello) = read_wire_frame(&mut stream) else {
                        continue;
                    };
                    let peer = match check_hello(&hello, cfg.addrs.len(), cfg.fingerprint) {
                        Ok(p) if p > cfg.rank => p,
                        // Wrong direction, bad version, or bad
                        // fingerprint: refuse by closing the socket.
                        _ => continue,
                    };
                    if write_wire_frame(
                        &mut stream,
                        &hello_frame(cfg.rank, cfg.addrs.len(), cfg.fingerprint),
                    )
                    .is_err()
                    {
                        continue;
                    }
                    wire.install(peer, stream);
                    router.mark_link_up(peer);
                    spawn_tcp_reader(router.clone(), Arc::clone(&wire), peer, cfg.clone());
                    let (lock, cv) = &*accepted;
                    *lock.lock().unwrap() |= 1 << peer;
                    cv.notify_all();
                }
            })
            .expect("spawn tcp acceptor");
    }

    // Dial every lower rank, retrying until the rendezvous deadline
    // (peers may not have bound their listeners yet).
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    for peer in 0..cfg.rank {
        loop {
            match dial_peer(&cfg, peer) {
                Ok(stream) => {
                    wire.install(peer, stream);
                    spawn_tcp_reader(router.clone(), Arc::clone(&wire), peer, cfg.clone());
                    break;
                }
                Err(e @ TransportError::Handshake { .. }) => return Err(e),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Handshake {
                            detail: format!("rendezvous with peer {peer} timed out: {e}"),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    // Wait for every higher rank to dial in.
    let want = full_mask(world) & !full_mask(cfg.rank + 1);
    let (lock, cv) = &*accepted;
    let mut got = lock.lock().unwrap();
    while *got & want != want {
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Handshake {
                detail: format!(
                    "rendezvous timed out waiting for higher ranks (mask {:08b} of {want:08b})",
                    *got
                ),
            });
        }
        let (guard, _) = cv.wait_timeout(got, deadline - now).unwrap();
        got = guard;
    }
    drop(got);
    Ok(Endpoint::new(router, wire))
}

impl<W: Wire> Drop for Endpoint<W> {
    fn drop(&mut self) {
        self.goodbye();
        self.wire.close();
    }
}

impl Wire for TcpWire {
    fn send(&self, to: usize, bytes: Vec<u8>) -> Result<(), TransportError> {
        let mut guard = self.peers[to].stream.lock().unwrap();
        let Some(stream) = guard.as_mut() else {
            return Err(TransportError::Disconnected { peer: to });
        };
        match write_wire_frame(stream, &bytes) {
            Ok(()) => Ok(()),
            Err(_) => {
                *guard = None;
                Err(TransportError::Disconnected { peer: to })
            }
        }
    }

    fn close(&self) {
        self.closing.store(true, Ordering::Relaxed);
        for slot in &self.peers {
            if let Some(s) = slot.stream.lock().unwrap().take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        // Unblock the accept loop so its thread can observe `closing`.
        let _ = TcpStream::connect(&self.own_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(step: u32, ring_step: u16) -> Key {
        Key {
            step,
            bucket: 0,
            phase: 0,
            ring_step,
        }
    }

    #[test]
    fn frame_roundtrip_preserves_everything() {
        let f = Frame {
            kind: FrameKind::Data,
            from: 3,
            key: Key {
                step: 7,
                bucket: 2,
                phase: 1,
                ring_step: 5,
            },
            chunk: 4,
            alive: 0b1011,
            failed: 0b0100,
            contributors: 0b0011,
            payload: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0],
        };
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        let p = Frame::peek(&bytes).unwrap();
        assert_eq!(p.kind, FrameKind::Data);
        assert_eq!(p.from, 3);
        assert_eq!(p.key, f.key);
        assert_eq!(p.payload_len, 16);
    }

    #[test]
    fn flipped_bit_is_caught_by_crc() {
        // The negative control for the corruption path: any single
        // flipped bit anywhere in the frame must fail decode.
        let f = Frame {
            kind: FrameKind::Data,
            from: 1,
            key: key(3, 0),
            chunk: 0,
            alive: 0b11,
            failed: 0,
            contributors: 0b01,
            payload: vec![0.25, 0.5, 0.75],
        };
        let clean = f.encode();
        assert!(Frame::decode(&clean).is_ok());
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 0x01;
            assert!(
                Frame::decode(&bad).is_err(),
                "flipping byte {byte} went undetected"
            );
        }
        // The injector's canonical corruption helper, too.
        let mut bad = clean.clone();
        assert!(corrupt_payload(&mut bad));
        assert_eq!(Frame::decode(&bad), Err(FrameError::BadCrc));
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        assert_eq!(Frame::decode(&[]), Err(FrameError::Truncated));
        let f = Frame::control(FrameKind::Data, 0, key(0, 0), 0);
        let mut bytes = f.encode();
        bytes[0] = 0xFF;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadMagic));
        let mut bytes = f.encode();
        bytes[2] = 0xEE;
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::BadVersion(_))));
        let mut bytes = f.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Frame::decode(&bytes), Err(FrameError::Truncated));
    }

    #[test]
    fn channel_group_delivers_and_services_resends() {
        let group = channel_group(2).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, key(1, 0), 0);
        f.payload = vec![1.0, 2.0];
        group[0].send_data(1, f.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        match group[1].recv(0, deadline, 0).unwrap() {
            Delivery::Frame(got) => assert_eq!(got.payload, vec![1.0, 2.0]),
            other => panic!("unexpected {other:?}"),
        }
        // Resend: endpoint 1 asks 0 to replay the frame it already sent.
        group[1].request_resend(0, key(1, 0)).unwrap();
        match group[1].recv(0, deadline, 0).unwrap() {
            Delivery::Frame(got) => assert_eq!(got.payload, vec![1.0, 2.0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(group[0].metrics().snapshot().send_retries, 1);
    }

    #[test]
    fn world_of_32_is_the_mask_boundary() {
        // 32 ranks fill the u32 masks exactly and must be accepted.
        let router = Router::new(31, MAX_WORLD, Arc::new(FaultMetrics::new())).unwrap();
        assert_eq!(router.world(), MAX_WORLD);
        assert_eq!(full_mask(MAX_WORLD), u32::MAX);
        // Rank 33+ would corrupt the alive/failed masks: structured
        // refusal, not silent truncation.
        let err = match Router::new(0, MAX_WORLD + 1, Arc::new(FaultMetrics::new())) {
            Ok(_) => panic!("a 33-rank router must be refused"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            TransportError::TooManyRanks { world: MAX_WORLD + 1, max: MAX_WORLD }
        );
        // Group constructors propagate the same error.
        let err = match channel_group(MAX_WORLD + 1) {
            Ok(_) => panic!("a 33-rank group must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, TransportError::TooManyRanks { world: 33, .. }));
        // Degenerate-but-small geometry still reports Handshake.
        assert!(matches!(
            Router::new(5, 2, Arc::new(FaultMetrics::new())),
            Err(TransportError::Handshake { .. })
        ));
    }

    #[test]
    fn recv_times_out_and_counts_it() {
        let group = channel_group(2).unwrap();
        let t0 = Instant::now();
        let err = group[0]
            .recv(1, t0 + Duration::from_millis(30), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::Timeout { peer: 1 });
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(group[0].metrics().snapshot().timeouts, 1);
    }

    #[test]
    fn eviction_broadcast_shrinks_every_mask() {
        let group = channel_group(3).unwrap();
        assert!(group[0].evict(2));
        assert!(!group[0].evict(2), "double eviction is a no-op");
        // Peer 1 learns about it from the broadcast.
        let deadline = Instant::now() + Duration::from_secs(2);
        while group[1].alive_mask() & (1 << 2) != 0 {
            assert!(Instant::now() < deadline, "evict broadcast never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(group[0].alive_mask(), 0b011);
        assert_eq!(group[1].alive_mask(), 0b011);
        assert_eq!(group[0].metrics().snapshot().peers_evicted, 1);
        assert_eq!(group[1].metrics().snapshot().peers_evicted, 1);
        // recv from the dead peer fails immediately.
        let err = group[1]
            .recv(2, Instant::now() + Duration::from_secs(5), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDead { peer: 2 });
    }

    #[test]
    fn stale_masks_are_dropped_and_news_is_adopted() {
        let group = channel_group(3).unwrap();
        // Node 0 evicts node 2 locally only (simulate a lost broadcast
        // by using the router directly).
        group[0].router().mark_dead(2, true);
        // A data frame from 0 now carries mask 0b011; node 1 adopts it.
        let mut f = Frame::control(FrameKind::Data, 0, key(5, 0), 0);
        f.payload = vec![9.0];
        group[0].send_data(1, f).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        match group[1].recv(0, deadline, 0).unwrap() {
            Delivery::Frame(got) => assert_eq!(got.payload, vec![9.0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(group[1].alive_mask(), 0b011, "death news adopted in-band");
        // A stale frame from 2 (whose mask still includes itself) is
        // dropped at node 1 — never delivered.
        let mut stale = Frame::control(FrameKind::Data, 2, key(5, 0), 0);
        stale.payload = vec![7.0];
        group[2].send_data(1, stale).unwrap();
        let err = group[1]
            .recv(2, Instant::now() + Duration::from_millis(50), 0)
            .unwrap_err();
        assert_eq!(err, TransportError::PeerDead { peer: 2 });
    }

    #[test]
    fn tcp_pair_handshakes_and_exchanges_frames() {
        let ports = super::tests::reserve_ports(2);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let a0 = addrs.clone();
        let h = std::thread::spawn(move || {
            tcp_rendezvous(TcpConfig::new(0, a0, 0xABCD)).expect("rank 0 rendezvous")
        });
        let t1 = tcp_rendezvous(TcpConfig::new(1, addrs, 0xABCD)).expect("rank 1 rendezvous");
        let t0 = h.join().unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, key(1, 0), 0);
        f.payload = vec![1.5, -2.5];
        t0.send_data(1, f).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        match t1.recv(0, deadline, 0).unwrap() {
            Delivery::Frame(got) => {
                assert_eq!(got.payload, vec![1.5, -2.5]);
                assert_eq!(got.from, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the reverse direction.
        let mut g = Frame::control(FrameKind::Data, 1, key(1, 1), 0);
        g.payload = vec![4.0];
        t1.send_data(0, g).unwrap();
        match t0.recv(1, deadline, 0).unwrap() {
            Delivery::Frame(got) => assert_eq!(got.payload, vec![4.0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tcp_handshake_rejects_fingerprint_mismatch() {
        let ports = super::tests::reserve_ports(2);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let a0 = addrs.clone();
        let h = std::thread::spawn(move || {
            let mut cfg = TcpConfig::new(0, a0, 0x1111);
            cfg.rendezvous_timeout = Duration::from_millis(900);
            tcp_rendezvous(cfg)
        });
        let mut cfg = TcpConfig::new(1, addrs, 0x2222);
        cfg.rendezvous_timeout = Duration::from_millis(900);
        let r1 = tcp_rendezvous(cfg);
        assert!(r1.is_err(), "mismatched fingerprint must not rendezvous");
        assert!(h.join().unwrap().is_err());
    }

    /// Reserves `n` distinct loopback ports by binding and dropping
    /// listeners (a small race window, fine for tests).
    pub(crate) fn reserve_ports(n: usize) -> Vec<u16> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().port())
            .collect()
    }
}
