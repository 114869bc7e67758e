//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call into a library crate, named `<layer>.<call>` (`runtime.forward`,
//! `serve.send`, ...). Each span has a start, an end, the span that
//! caused it, and — for serving — the request id. Spans stay in memory
//! until [`take`]; nothing is written while a workload runs. Recording is
//! off unless [`set_enabled`] turned it on, so untraced runs pay one
//! relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub req: Option<u64>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh span id, for spans recorded explicitly with [`record`].
pub fn alloc_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The innermost span open on this thread.
pub fn current() -> Option<u64> {
    OPEN.with(|o| o.borrow().last().copied())
}

/// Records a finished span (for spans whose start and end are taken on
/// different threads, such as a request from its due time to its reply).
pub fn record(span: Span) {
    if enabled() {
        SPANS.lock().expect("span store poisoned").push(span);
    }
}

/// Closes its span when dropped.
pub struct Guard(Option<(u64, Option<u64>, &'static str, Instant)>);

/// Opens a span on this thread, parented to the innermost open one.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = alloc_id();
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(id);
        parent
    });
    Guard(Some((id, parent, name, Instant::now())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.0.take() {
            let end = Instant::now();
            OPEN.with(|o| o.borrow_mut().retain(|&x| x != id));
            record(Span {
                id,
                parent,
                name,
                start,
                end,
                req: None,
            });
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: HashMap<u64, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur();
            };
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(cursor, s.end);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer (the span-name prefix before the first
/// `.`), in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += own.as_secs_f64() * 1e3;
    }
    out
}

/// Durations, in milliseconds, of the recorded spans called `name` whose
/// parent span is called `parent`.
pub fn durations_ms(name: &str, parent: &str) -> Vec<f64> {
    let spans = SPANS.lock().expect("span store poisoned");
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.and_then(|p| names.get(&p)) == Some(&parent))
        .map(|s| s.dur().as_secs_f64() * 1e3)
        .collect()
}

/// Writes the spans as JSON lines, times in microseconds since the
/// recorder was first enabled.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let us = |t: Instant| t.saturating_duration_since(epoch).as_micros();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{},\"req\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            us(s.start),
            us(s.end),
            own.as_micros(),
            opt(s.req),
        )?;
    }
    w.flush()
}
