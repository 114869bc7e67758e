//! Lazy traces: eager op recording and shape-aware structure hashing.
//!
//! This module splits *describing* a computation from *compiling* it.
//! A [`TraceSession`] records ensemble additions and connections as
//! they happen — it derefs to [`Net`], so every existing `latte-nn`
//! builder works unchanged as an eager op recorder — and
//! [`TraceSession::finish`] seals the recording into a [`Trace`]: the
//! recorded network plus its canonical [`TraceKey`].
//!
//! The key is the contract with the JIT cache
//! (`latte_runtime::trace::TraceCache`): two traces with equal keys
//! compile to interchangeable programs, so the second execution of any
//! `(structure, dynamic dims)` pair never touches the pass pipeline.
//! It factors as **structure fingerprint × dynamic dims**:
//!
//! * [`structure_hash`] fingerprints everything that determines the
//!   compiled program *except* the dynamic dimensions: ensemble names,
//!   grid shapes, kinds (including full normalization specs), neuron
//!   types (field declarations plus the *built* forward/backward bodies
//!   — closures are hashed by the IR they emit against a probe
//!   context), field storage (sharing flags, init shape, and the exact
//!   init bits, since compiled programs carry parameter initializers),
//!   parameter declarations, and every connection's mapping (probed
//!   over a deterministic sample of the sink index space).
//! * The dynamic dims — batch size and, for bucketed variable-length
//!   sequence workloads, the power-of-two length bucket — stay out of
//!   the hash and live as explicit key fields, so plan caches
//!   specialize per shape while sharing one structural identity.

use std::ops::{Deref, DerefMut};

use crate::dsl::{EnsembleKind, Net, SourceRegion};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The workspace's one fingerprint hasher: FNV-1a, 64-bit (dependency-free
/// and stable across platforms), with length-prefixed field framing (so
/// `("ab","c")` and `("a","bc")` hash differently). Trace keys
/// ([`structure_hash`]), compiled-program identities
/// ([`crate::CompiledNet::fingerprint`]) and the distributed handshake
/// all hash through it.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Feeds a byte string, prefixed with its length.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one `i64` field.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Feeds one `usize` field.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds one `str` field.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feeds one `bool` field.
    pub fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }

    /// Feeds one `f32` field.
    pub fn f32(&mut self, v: f32) {
        self.u64(v.to_bits() as u64);
    }

    /// Feeds one `f64` field.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The canonical identity of a trace: what must match for a cached
/// compiled program to be reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// [`structure_hash`] of the recorded network (batch-independent).
    pub structure: u64,
    /// Batch size the trace will execute at.
    pub batch: usize,
    /// Power-of-two sequence-length bucket for variable-length
    /// recurrent workloads; `None` for fixed-shape networks.
    pub seq_bucket: Option<usize>,
}

impl TraceKey {
    /// A filesystem-safe label, used for `LATTE_DUMP_IR` dump names:
    /// `trace-<hash>-b<batch>[-l<bucket>]`.
    pub fn label(&self) -> String {
        match self.seq_bucket {
            Some(l) => format!("trace-{:016x}-b{}-l{}", self.structure, self.batch, l),
            None => format!("trace-{:016x}-b{}", self.structure, self.batch),
        }
    }
}

/// A sealed recording: the network plus its canonical key.
#[derive(Debug, Clone)]
pub struct Trace {
    net: Net,
    key: TraceKey,
}

impl Trace {
    /// Seals an already-built network as a fixed-shape trace.
    pub fn from_net(net: Net) -> Trace {
        let key = TraceKey {
            structure: structure_hash(&net),
            batch: net.batch(),
            seq_bucket: None,
        };
        Trace { net, key }
    }

    /// Seals a network that realizes the given sequence-length bucket
    /// of a variable-length workload. The bucket becomes part of the
    /// key's dynamic dims, alongside the batch.
    pub fn from_net_bucketed(net: Net, seq_bucket: usize) -> Trace {
        let key = TraceKey {
            structure: structure_hash(&net),
            batch: net.batch(),
            seq_bucket: Some(seq_bucket),
        };
        Trace { net, key }
    }

    /// The canonical key.
    pub fn key(&self) -> TraceKey {
        self.key
    }

    /// The recorded network.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Unwraps the recorded network.
    pub fn into_net(self) -> Net {
        self.net
    }
}

/// An eager recorder: ops applied to the session build up a [`Net`]
/// exactly as they would directly — the session derefs to [`Net`], so
/// the whole `latte-nn` builder vocabulary records through it — and
/// [`finish`](TraceSession::finish) seals the result into a [`Trace`].
///
/// # Examples
///
/// ```
/// use latte_core::trace::TraceSession;
/// use latte_core::dsl::Ensemble;
///
/// let mut s = TraceSession::new(4);
/// s.add(Ensemble::data("data", vec![8])); // any &mut Net op records
/// assert_eq!(s.ops(), 1);
/// let trace = s.finish();
/// assert_eq!(trace.key().batch, 4);
/// ```
#[derive(Debug)]
pub struct TraceSession {
    net: Net,
    seq_bucket: Option<usize>,
}

impl TraceSession {
    /// Starts recording at a batch size.
    pub fn new(batch: usize) -> Self {
        TraceSession {
            net: Net::new(batch),
            seq_bucket: None,
        }
    }

    /// Starts recording one sequence-length bucket of a variable-length
    /// workload.
    pub fn for_bucket(batch: usize, seq_bucket: usize) -> Self {
        TraceSession {
            net: Net::new(batch),
            seq_bucket: Some(seq_bucket),
        }
    }

    /// Wraps an existing network (e.g. the output of
    /// [`Net::unroll`](crate::dsl::Net::unroll)) so further ops keep
    /// recording onto it.
    pub fn from_net(net: Net) -> Self {
        TraceSession {
            net,
            seq_bucket: None,
        }
    }

    /// Recorded op count: ensembles plus connections.
    pub fn ops(&self) -> usize {
        let conns: usize = self
            .net
            .ensembles()
            .map(|(id, _)| self.net.connections(id).len())
            .sum();
        self.net.len() + conns
    }

    /// Seals the recording.
    pub fn finish(self) -> Trace {
        match self.seq_bucket {
            Some(b) => Trace::from_net_bucketed(self.net, b),
            None => Trace::from_net(self.net),
        }
    }
}

impl Deref for TraceSession {
    type Target = Net;

    fn deref(&self) -> &Net {
        &self.net
    }
}

impl DerefMut for TraceSession {
    fn deref_mut(&mut self) -> &mut Net {
        &mut self.net
    }
}

/// How many sink indices a connection's mapping is probed at. Small
/// ensembles are probed exhaustively; larger ones at this many strided
/// samples (always including the first and last sink).
const MAPPING_SAMPLES: usize = 64;

/// Deterministic sample of the flat sink index space.
fn sample_indices(len: usize) -> Vec<usize> {
    if len <= MAPPING_SAMPLES {
        return (0..len).collect();
    }
    let stride = len / MAPPING_SAMPLES;
    let mut v: Vec<usize> = (0..MAPPING_SAMPLES).map(|i| i * stride).collect();
    if *v.last().unwrap() != len - 1 {
        v.push(len - 1);
    }
    v
}

/// Decodes a flat index into a row-major multi-index over `dims`.
fn unflatten(mut flat: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; dims.len()];
    for d in (0..dims.len()).rev() {
        idx[d] = flat % dims[d];
        flat /= dims[d];
    }
    idx
}

fn hash_region(h: &mut Fingerprint, region: &SourceRegion) {
    h.usize(region.ranges.len());
    for r in &region.ranges {
        h.i64(r.start as i64);
        h.i64(r.stop as i64);
    }
}

/// The batch-independent structural fingerprint of a network.
///
/// Everything that flows into `compile` *except* the batch size is
/// hashed: two nets with equal hashes synthesize identical programs at
/// any common batch (and carry identical parameter initializers, so a
/// cached compiled program — which embeds them — is safe to reuse).
/// Mapping closures are opaque, so they are fingerprinted by *probing*:
/// the mapping is evaluated over a deterministic sample of the sink
/// index space ([`MAPPING_SAMPLES`] strided indices, endpoints always
/// included; exhaustive below that) and the resulting source regions
/// are hashed. Neuron bodies are likewise hashed by the IR they emit
/// against a probe context sized from the real connections. This is the
/// one place the key is an under-approximation — a pathological mapping
/// differing only between sample points collides — and the bucketing
/// policy in DESIGN.md §15 spells out why recorded workloads never do
/// that.
pub fn structure_hash(net: &Net) -> u64 {
    let mut h = Fingerprint::new();
    h.usize(net.len());
    for (id, ens) in net.ensembles() {
        h.str("E");
        h.str(ens.name());
        h.usize(ens.dims().len());
        for &d in ens.dims() {
            h.usize(d);
        }
        match ens.kind() {
            EnsembleKind::Standard => h.u64(0),
            EnsembleKind::Activation => h.u64(1),
            EnsembleKind::Normalization(spec) => {
                h.u64(2);
                h.str(&spec.op);
                h.usize(spec.attrs.len());
                for (k, v) in &spec.attrs {
                    h.str(k);
                    h.f64(*v);
                }
                h.usize(spec.state.len());
                for (suffix, shape, shared) in &spec.state {
                    h.str(suffix);
                    h.usize(shape.len());
                    for &d in shape {
                        h.usize(d);
                    }
                    h.bool(*shared);
                }
                h.bool(spec.loss);
            }
            EnsembleKind::Data => h.u64(3),
            EnsembleKind::Concat => h.u64(4),
        }
        // Input lengths for the body probe: each connection's region
        // size at sink 0 (constant across sinks for affine mappings).
        let zero = vec![0usize; ens.dims().len()];
        let input_lens: Vec<usize> = net
            .connections(id)
            .iter()
            .map(|c| c.mapping.eval(&zero).len())
            .collect();
        if let Some(neuron) = ens.neuron() {
            h.str("N");
            h.str(neuron.name());
            h.usize(neuron.fields().len());
            let mut field_lens = std::collections::HashMap::new();
            for spec in neuron.fields() {
                h.str(&spec.name);
                let len = match spec.len {
                    crate::dsl::FieldLen::Scalar => 1,
                    crate::dsl::FieldLen::Fixed(n) => n,
                    crate::dsl::FieldLen::InputLen(c) => {
                        input_lens.get(c).copied().unwrap_or(0)
                    }
                };
                h.usize(len);
                h.bool(spec.with_grad);
                field_lens.insert(spec.name.clone(), len);
            }
            // Closures are opaque; the IR they emit is not.
            let ctx = crate::dsl::BodyCtx::new(input_lens.clone(), field_lens);
            h.str(&format!("{:?}", neuron.build_forward(&ctx)));
            h.str(&format!("{:?}", neuron.build_backward(&ctx)));
        }
        h.usize(ens.fields().len());
        for f in ens.fields() {
            h.str(&f.name);
            h.usize(f.shared_dims.len());
            for &s in &f.shared_dims {
                h.bool(s);
            }
            h.usize(f.init.shape().dims().len());
            for &d in f.init.shape().dims() {
                h.usize(d);
            }
            // Compiled programs embed parameter initializers, so the
            // exact bits are part of the identity.
            for &v in f.init.as_slice() {
                h.f32(v);
            }
            match &f.share_global {
                Some(src) => {
                    h.u64(1);
                    h.str(src);
                }
                None => h.u64(0),
            }
        }
        h.usize(ens.params().len());
        for p in ens.params() {
            h.str(&p.field);
            h.f32(p.lr_mult);
        }
        h.str("C");
        h.usize(net.connections(id).len());
        for conn in net.connections(id) {
            h.usize(conn.source.index());
            h.bool(conn.recurrent);
            for flat in sample_indices(ens.len()) {
                let idx = unflatten(flat, ens.dims());
                h.usize(flat);
                hash_region(&mut h, &conn.mapping.eval(&idx));
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::stdlib::weighted_neuron;
    use crate::dsl::{Ensemble, Mapping};
    use latte_tensor::{init, Tensor};

    fn fc_net(batch: usize, seed: u64) -> Net {
        let mut net = Net::new(batch);
        let data = net.add(Ensemble::data("data", vec![8]));
        let fc = net.add(
            Ensemble::new("fc1", vec![2], weighted_neuron())
                .with_field("weights", vec![false], init::xavier(vec![2, 8], 8, seed))
                .with_field("bias", vec![false], Tensor::zeros(vec![2, 1]))
                .with_param("weights", 1.0)
                .with_param("bias", 2.0),
        );
        net.connect(data, fc, Mapping::all_to_all(vec![8]));
        net
    }

    #[test]
    fn hash_is_batch_invariant() {
        assert_eq!(structure_hash(&fc_net(1, 0)), structure_hash(&fc_net(16, 0)));
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(structure_hash(&fc_net(4, 0)), structure_hash(&fc_net(4, 0)));
    }

    #[test]
    fn hash_sees_param_values() {
        assert_ne!(structure_hash(&fc_net(4, 0)), structure_hash(&fc_net(4, 1)));
    }

    #[test]
    fn hash_sees_structure() {
        let mut other = fc_net(4, 0);
        let fc = other.find("fc1").unwrap();
        let extra = other.add(Ensemble::data("extra", vec![3]));
        let _ = (fc, extra);
        assert_ne!(structure_hash(&fc_net(4, 0)), structure_hash(&other));
    }

    #[test]
    fn session_records_and_keys() {
        let mut s = TraceSession::new(4);
        let data = s.add(Ensemble::data("data", vec![8]));
        let fc = s.add(
            Ensemble::new("fc1", vec![2], weighted_neuron())
                .with_field("weights", vec![false], init::xavier(vec![2, 8], 8, 0))
                .with_field("bias", vec![false], Tensor::zeros(vec![2, 1]))
                .with_param("weights", 1.0)
                .with_param("bias", 2.0),
        );
        s.connect(data, fc, Mapping::all_to_all(vec![8]));
        assert_eq!(s.ops(), 3);
        let trace = s.finish();
        assert_eq!(trace.key().batch, 4);
        assert_eq!(trace.key().seq_bucket, None);
        assert_eq!(trace.key().structure, structure_hash(&fc_net(4, 0)));
    }

    #[test]
    fn bucketed_sessions_key_on_the_bucket() {
        let a = TraceSession::for_bucket(2, 4).finish();
        let b = TraceSession::for_bucket(2, 8).finish();
        assert_eq!(a.key().structure, b.key().structure);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key().label(), format!("trace-{:016x}-b2-l4", a.key().structure));
    }

    #[test]
    fn key_label_is_filesystem_safe() {
        let t = Trace::from_net(fc_net(3, 0));
        let label = t.key().label();
        assert!(label.starts_with("trace-"));
        assert!(label.ends_with("-b3"));
        assert!(label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }
}
