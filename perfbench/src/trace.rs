//! The traced run's span recorder, owned by the benchmark.
//!
//! Spans are recorded only when the recorder was switched on for this
//! process, and only around calls the benchmark itself makes, so no
//! span from inside the program under test can leak in. Each span
//! keeps its name, start, end, parent and request id; spans live in
//! memory until [`write_jsonl`] writes them out at the end of the run,
//! and [`fold_self_time`] turns them into per-layer self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Switches recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped. Inert while recording is off.
pub struct Guard {
    live: Option<(u64, Option<u64>, &'static str, u64, Instant)>,
}

/// Opens a span named `name` for request `request`, a child of the
/// innermost span open on this thread.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        live: Some((id, parent, name, request, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, request, start)) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        push(id, parent, name, request, start, end);
    }
}

fn push(
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
    end: Instant,
) {
    let r = recorder();
    let ns = |t: Instant| t.duration_since(r.epoch).as_nanos() as u64;
    let span = Span {
        id,
        parent,
        name,
        request,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    r.spans.lock().expect("span buffer poisoned").push(span);
}

/// Records an interval measured by the caller (for example the wait
/// before a lock's closure runs) as a child of the innermost open span.
pub fn record(name: &'static str, request: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    push(id, parent, name, request, start, end);
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    let _guard = span(name, request);
    f()
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .clone()
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Per-name totals: `(span count, total ns, self ns)`, where a span's
/// self time is its duration minus the time its children cover.
pub fn fold_self_time(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.duration_ns();
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(2, Some(1), "child", 10, 40),
            span(3, Some(1), "child", 50, 60),
            span(1, None, "parent", 0, 100),
        ];
        let fold = fold_self_time(&spans);
        assert_eq!(fold["parent"], (1, 100, 60));
        assert_eq!(fold["child"], (2, 40, 40));
    }
}
