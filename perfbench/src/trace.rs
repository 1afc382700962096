//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public
//! call it makes into the suite (`workload.build`, `workload.run`,
//! `obs.restore`, `experiments.sweep.*`, each microbench, ...). Nothing
//! is written while measuring: spans stay in memory and [`write_jsonl`]
//! dumps them at exit. Recording is off unless [`start`] was called, so
//! an untraced pass pays one thread-local check per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since [`start`].
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans are only kept while a traced pass or layer bench is open.
    enabled: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Creates the recorder (disabled); spans are kept once [`set_enabled`]
/// turns recording on.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: false,
        });
    });
}

/// Turns span recording on or off (no effect before [`start`]).
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.enabled = on;
        }
    });
}

fn open(name: &str) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().filter(|rec| rec.enabled)?;
        let id = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    })
}

/// Closes its span when dropped, so a span still ends if the call it
/// wraps panics (the benchmark counts panics as failed operations).
struct Open(Option<u32>);

impl Drop for Open {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let Some(rec) = guard.as_mut() else { return };
            rec.spans[id as usize].end_ns = rec.origin.elapsed().as_nanos() as u64;
            // Spans close in LIFO order; unwinding may skip inner ones.
            while rec.open.pop().is_some_and(|top| top != id) {}
        });
    }
}

/// Runs `f` inside a span named `name` (a plain call when not recording).
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _open = Open(open(name));
    f()
}

/// Every span recorded so far, in opening order.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.spans.clone())
            .unwrap_or_default()
    })
}

/// Self time of each span: its duration minus the time its direct
/// children cover (children never overlap: they are sequential calls
/// on the same thread).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Sums self time by layer (the span name up to its first `.`), over
/// the spans that descend from a span named `root` (the root included).
pub fn self_ns_by_layer(spans: &[Span], root: &str) -> BTreeMap<String, u64> {
    let selfs = self_times(spans);
    let mut under = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so one forward sweep marks subtrees.
        under[i] = s.name == root || s.parent.is_some_and(|p| under[p as usize]);
        if under[i] {
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            *out.entry(layer).or_insert(0) += selfs[i];
        }
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
