//! The compiler's output: groups of optimized loop nests plus the buffer
//! plan, ready for the runtime to lower and execute.

use latte_ir::{BufferDecl, BufferKind, Stmt};
use std::fmt;

use crate::trace::Fingerprint;

/// Which pass of network execution a group belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
}

/// A step-sharing annotation: this group's statements are identical to
/// the named group's under the buffer rename `@t{j}` → `@t{j + delta}`
/// (unrolled recurrent time steps are clones of one another). Lowering
/// may compile the named group once and rebind its buffers through the
/// rename instead of re-lowering each step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepShare {
    /// Name of the group whose compiled body can be reused.
    pub group: String,
    /// Time-step offset applied to every `@t{j}` buffer name when
    /// rebinding (may be negative: backward groups run latest-step
    /// first).
    pub delta: i64,
}

/// Fusion/tiling metadata of a group, derived from the connection
/// structure during synthesis.
#[derive(Debug, Clone, Default)]
pub struct GroupMeta {
    /// Extent of the group's tileable outermost dimension, when every
    /// statement in the group iterates it (spatial ensembles of rank ≥ 2
    /// whose staging keeps dimension 0).
    pub dim0_extent: Option<usize>,
    /// The producing ensemble this group consumes, with the consumption
    /// `stride` and `halo` along dimension 0 — present only when the
    /// group's ensemble has exactly one non-recurrent connection with
    /// affine dim-0 structure. `halo == 0` is the fusion precondition.
    pub upstream: Option<Upstream>,
    /// Set by the step-share pass when this group is an α-equivalent
    /// clone of an earlier unrolled time step.
    pub share_body_with: Option<StepShare>,
    /// Set by the parallelize pass when a tuned schedule decided this
    /// group runs faster serially. The loops stay `parallel`-annotated —
    /// the annotation fixes the gradient-lane accumulation structure,
    /// which must not change with the decision — and the runtime drives
    /// all lanes from the calling thread instead of broadcasting to the
    /// pool.
    pub serial_hint: bool,
}

/// Producer relation used by the fusion pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upstream {
    /// Name of the producing ensemble.
    pub ensemble: String,
    /// Source rows of dimension 0 consumed per sink row.
    pub stride: usize,
    /// Extra source rows overlapped beyond the stride (overlapping
    /// windows); non-zero halo prevents fusion.
    pub halo: usize,
    /// Whether this group's ensemble is the *only* consumer of the
    /// producer. Backward fusion requires it: with several consumers the
    /// producer's gradient is complete only after every consumer's
    /// scatter, so no single consumer's tile may trigger the producer's
    /// backward.
    pub sole_consumer: bool,
}

/// A schedulable unit: the synthesized (and later optimized) statements of
/// one ensemble-phase, or of several fused ensembles.
#[derive(Debug, Clone)]
pub struct Group {
    /// Human-readable name, e.g. `"conv1.fwd"` or `"conv1+relu1+pool1.fwd"`.
    pub name: String,
    /// The ensemble(s) this group computes, in execution order.
    pub ensembles: Vec<String>,
    /// The phase the group runs in.
    pub phase: Phase,
    /// The statements, executed in order for each batch item.
    pub stmts: Vec<Stmt>,
    /// Fusion-preventing groups (normalization ensembles) are barriers.
    pub barrier: bool,
    /// Tiling/fusion metadata.
    pub meta: GroupMeta,
}

impl Group {
    /// Pretty-prints the group's statements.
    pub fn pretty(&self) -> String {
        format!("group {} {{\n{}}}\n", self.name, latte_ir::print_stmts(&self.stmts))
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty())
    }
}

/// A learnable parameter: its value and gradient buffers plus the
/// learning-rate multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBinding {
    /// The value buffer name.
    pub value: String,
    /// The gradient buffer name.
    pub grad: String,
    /// Per-parameter learning-rate multiplier.
    pub lr_mult: f32,
}

/// An input (data) ensemble the runtime feeds each iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBinding {
    /// The data ensemble's name.
    pub ensemble: String,
    /// Its value buffer.
    pub buffer: String,
    /// Per-item element count.
    pub len: usize,
}

/// Per-pass record written by the pass manager: one entry for every pass
/// in the pipeline, whether it ran or was disabled by the
/// [`OptLevel`](crate::OptLevel), so `CompileStats` is populated
/// uniformly across all configurations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStat {
    /// The pass's name, e.g. `"pattern-match"`.
    pub name: String,
    /// Whether the `OptLevel` enabled the pass (disabled passes record
    /// zero time and no size change).
    pub enabled: bool,
    /// Wall time the pass took, in microseconds.
    pub wall_micros: u128,
    /// Group count (both phases) before the pass ran.
    pub groups_before: usize,
    /// Group count (both phases) after the pass ran.
    pub groups_after: usize,
    /// Total IR statement count (both phases, nested statements included)
    /// before the pass ran.
    pub stmts_before: usize,
    /// Total IR statement count after the pass ran.
    pub stmts_after: usize,
}

impl PassStat {
    /// One-line human-readable rendering, used by reports.
    pub fn render(&self) -> String {
        if self.enabled {
            format!(
                "{:<20} {:>8} us  groups {:>3} -> {:<3} stmts {:>5} -> {:<5}",
                self.name,
                self.wall_micros,
                self.groups_before,
                self.groups_after,
                self.stmts_before,
                self.stmts_after
            )
        } else {
            format!("{:<20} (disabled)", self.name)
        }
    }
}

/// Statistics recorded by the compiler, used by tests and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of multiply-accumulate nests replaced by GEMM calls.
    pub gemms_matched: usize,
    /// Number of groups whose outer loop was tiled.
    pub groups_tiled: usize,
    /// Number of fusions performed (each merges two groups).
    pub fusions: usize,
    /// Number of buffers that alias other storage (dropped copies /
    /// in-place activations / shared inputs).
    pub aliased_buffers: usize,
    /// Number of staging buffer dimensions dropped by shared-variable
    /// analysis.
    pub dims_dropped: usize,
    /// Per-pass timing and IR-size deltas, in pipeline order. One entry
    /// per pass regardless of `OptLevel`, so every compile populates the
    /// same rows.
    pub passes: Vec<PassStat>,
    /// Every group's batch-parallel decision, `(group name, parallel)`,
    /// forward groups first then backward — whether the parallel-marking
    /// pass annotated the group's loops for the worker pool's static
    /// interleaved schedule. Makes bench output self-describing.
    pub group_parallel: Vec<(String, bool)>,
    /// Groups whose schedule runs batch-parallel (the `true` entries of
    /// [`CompileStats::group_parallel`]). Together with
    /// [`CompileStats::groups_serial`] this summarizes the per-group
    /// serial/parallel decisions a tuned schedule made.
    pub groups_parallel: usize,
    /// Groups left serial — no loop marked parallel, executed on the
    /// calling thread.
    pub groups_serial: usize,
    /// Unrolled time-step groups marked α-equivalent to an earlier step
    /// by the step-share pass (lowering reuses one compiled body for
    /// each).
    pub step_groups_shared: usize,
    /// IR statements in shared step groups — the duplicate-IR delta the
    /// lowering no longer has to re-compile.
    pub step_stmts_deduped: usize,
}

/// A compiled network: the runtime's entire input.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    /// Batch size the program was compiled for.
    pub batch: usize,
    /// Every buffer, allocation order = declaration order (aliases after
    /// their targets).
    pub buffers: Vec<BufferDecl>,
    /// Forward groups in execution order.
    pub forward: Vec<Group>,
    /// Backward groups in execution order.
    pub backward: Vec<Group>,
    /// Learnable parameters.
    pub params: Vec<ParamBinding>,
    /// Data ensembles to feed.
    pub inputs: Vec<InputBinding>,
    /// Loss buffers (per-item loss values) to report.
    pub losses: Vec<String>,
    /// Initial contents of every field buffer, `(buffer name, values)`.
    /// The runtime writes these once at executor construction and on
    /// `reset_params`.
    pub param_inits: Vec<(String, Vec<f32>)>,
    /// Whether the runtime may lower unit-stride inner loops to native
    /// slice kernels (the compiler's `vectorize` flag).
    pub vectorize: bool,
    /// Compiler statistics.
    pub stats: CompileStats,
}

impl CompiledNet {
    /// Looks up a buffer declaration by name.
    pub fn buffer(&self, name: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// The buffers a numerical sentinel should scan: every primary
    /// (non-alias) declaration with its kind. Aliases share storage with
    /// their target, so scanning them too would report the same trip
    /// twice under two names.
    pub fn sentinel_buffers(&self) -> impl Iterator<Item = (&str, BufferKind)> {
        self.buffers
            .iter()
            .filter(|b| b.alias_of.is_none())
            .map(|b| (b.name.as_str(), b.kind))
    }

    /// A stable identity hash of the compiled *model*: buffer plan
    /// (names, per-item shapes, kinds, aliases), parameter and input
    /// bindings, loss buffers, initial parameter values, the vectorize
    /// flag, and the full pretty-printed program of both phases.
    ///
    /// The batch size is deliberately **excluded**: per-item structure is
    /// batch-invariant, so two compiles of the same network at different
    /// batch sizes fingerprint identically. Plan caches key on
    /// `(fingerprint(), batch)` — the LazyTensor-style split that lets an
    /// odd-sized tail batch reuse a cached `ExecutionPlan` instead of
    /// recompiling (see `latte-serve`). `CompileStats` is excluded too:
    /// it carries wall-clock pass timings, not program identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.usize(self.buffers.len());
        for b in &self.buffers {
            h.str(&b.name);
            h.usize(b.shape.dims().len());
            for &d in b.shape.dims() {
                h.usize(d);
            }
            h.u64(b.kind as u64);
            h.str(b.alias_of.as_deref().unwrap_or(""));
            h.bool(b.alias_of.is_some());
        }
        h.usize(self.params.len());
        for p in &self.params {
            h.str(&p.value);
            h.str(&p.grad);
            h.f32(p.lr_mult);
        }
        h.usize(self.inputs.len());
        for i in &self.inputs {
            h.str(&i.ensemble);
            h.str(&i.buffer);
        }
        h.usize(self.losses.len());
        for l in &self.losses {
            h.str(l);
        }
        h.usize(self.param_inits.len());
        for (name, init) in &self.param_inits {
            h.str(name);
            h.usize(init.len());
            for &v in init {
                h.f32(v);
            }
        }
        h.bool(self.vectorize);
        h.str(&self.pretty());
        h.finish()
    }

    /// Pretty-prints the whole program (both phases), mainly for tests
    /// and debugging.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        s.push_str("== forward ==\n");
        for g in &self.forward {
            s.push_str(&g.pretty());
        }
        s.push_str("== backward ==\n");
        for g in &self.backward {
            s.push_str(&g.pretty());
        }
        s
    }
}
