//! In-memory spans recorded by the ledger around its calls into the
//! simulator's layers, written out at exit as a Chrome trace.
//!
//! Recording is off unless [`set_enabled`] turns it on, so the untraced
//! passes run the same code with one relaxed load per span. Spans are
//! coarse (one per simulator call, a few dozen per pass), so a global
//! mutex costs nothing measurable.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call: what ran, on which thread, under which parent.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (a layer entry point, or a ledger phase).
    pub name: &'static str,
    /// Unique id, for parent links.
    pub id: u32,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<u32>,
    /// Track: a dense per-thread number, 0 for the first thread traced.
    pub tid: u32,
    /// Index of the job within its pass, for spans around one job.
    pub job: Option<u32>,
    /// Start, in nanoseconds since the first span of the process.
    pub start: u64,
    /// End, in the same clock.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

// Relaxed is enough: the flag publishes no data, and it only changes
// between passes, on the main thread, when no worker is running.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn tid() -> u32 {
    TID.with(|t| {
        *t.get()
            .get_or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed))
    })
}

/// Run `f` inside a span named `name` under `parent`, tagged with `job`.
/// `f` receives the new span's id (`None` when recording is off) so it
/// can parent spans it starts on other threads.
pub fn record<R>(
    name: &'static str,
    parent: Option<u32>,
    job: Option<u32>,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    // Number the track on entry, so the main thread, which opens the
    // first span, is track 0.
    let tid = tid();
    let start = now_ns();
    let out = f(Some(id));
    let end = now_ns();
    let span = Span {
        name,
        id,
        parent,
        tid,
        job,
        start,
        end,
    };
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
        .push(span);
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("a thread panicked while recording a span"),
    )
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of `span`: its duration minus the part of it that its
/// direct children (on any thread) cover.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start, c.end))
        .collect();
    span.ns() - covered(children, span.start, span.end)
}

/// Render `spans` as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span on its thread's track, with id, parent, job
/// and self time as arguments.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut events: Vec<String> = tids
        .iter()
        .map(|t| {
            let name = if *t == 0 {
                "main".to_string()
            } else {
                format!("worker {t}")
            };
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{t},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )
        })
        .collect();
    for s in spans {
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"job\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.job.map_or("null".to_string(), |j| j.to_string()),
            self_ns(s, spans) as f64 / 1e3,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            tid: 0,
            job: None,
            start,
            end,
        }
    }

    #[test]
    fn union_coverage_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10), (2, 3)], 0, 100), 10);
        assert_eq!(covered(vec![(0, 50)], 10, 20), 10);
        assert_eq!(covered(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Two children on different threads overlap between 30 and 40.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 10, 20),
        ];
        assert_eq!(self_ns(&all[0], &all), 50);
        assert_eq!(self_ns(&all[1], &all), 20);
    }
}
