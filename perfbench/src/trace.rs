//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the simulator's public
//! functions (never inside the program). Each closed span adds its duration to
//! its layer's total, its duration minus its children's to the layer's self
//! time, and — when its parent is a `round` span — to the layer's
//! directly-under-round time, which is what the engine's phase slots contain.
//! Spans nest strictly on the one benchmark thread, so a parent's child
//! coverage is the plain sum of its children's durations.
//!
//! The first [`KEPT_SPANS`] span records are kept with name, start, end,
//! parent, run and round, and written out by [`write_spans`] when the traced
//! run ends. While tracing is off, [`span`] is one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span records kept for the trace file; later spans are aggregated only.
pub const KEPT_SPANS: usize = 100_000;

/// The span that wraps one `Harness::step_round` call.
pub const ROUND: &str = "round";

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SNAPSHOTS: Cell<u64> = const { Cell::new(0) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Aggregated time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus child coverage, nanoseconds.
    pub self_ns: u64,
    /// Summed durations of the spans whose parent is a [`ROUND`] span.
    pub under_round_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: Option<usize>,
}

/// One kept span.
struct SpanRecord {
    name: &'static str,
    run: u64,
    round: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Tracer {
    origin: Option<Instant>,
    open: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTime>,
    kept: Vec<SpanRecord>,
    dropped: u64,
    run: u64,
    round: u64,
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns span recording on or off. Turning it on clears every aggregate and
/// kept record.
pub fn set_enabled(on: bool) {
    if on {
        TRACER.with(|tracer| *tracer.borrow_mut() = Tracer::default());
    }
    ENABLED.with(|flag| flag.set(on));
}

/// Sets the run and round ids the next spans are tagged with.
pub fn set_position(run: u64, round: u64) {
    if enabled() {
        TRACER.with(|tracer| {
            let mut tracer = tracer.borrow_mut();
            tracer.run = run;
            tracer.round = round;
        });
    }
}

/// The engine round being executed (0 outside a round).
pub fn current_round() -> u64 {
    TRACER.with(|tracer| tracer.borrow().round)
}

/// Whether the innermost open span is a [`ROUND`] span.
pub fn directly_under_round() -> bool {
    TRACER.with(|tracer| tracer.borrow().open.last().is_some_and(|o| o.name == ROUND))
}

/// Counts one snapshotter call. Counted with tracing on or off, since the
/// count is part of the determinism check of every run.
pub fn count_snapshot() {
    SNAPSHOTS.with(|count| count.set(count.get() + 1));
}

/// Snapshotter calls counted so far on this thread.
pub fn snapshots() -> u64 {
    SNAPSHOTS.with(Cell::get)
}

/// Runs `f` inside a span named `name` (just runs it while tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    open(name);
    let result = f();
    close();
    result
}

fn open(name: &'static str) {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        let start = Instant::now();
        let origin = *tracer.origin.get_or_insert(start);
        let record = if tracer.kept.len() < KEPT_SPANS {
            let parent = tracer.open.last().and_then(|o| o.record);
            let (run, round) = (tracer.run, tracer.round);
            tracer.kept.push(SpanRecord {
                name,
                run,
                round,
                parent,
                start_ns: nanos(start - origin),
                end_ns: 0,
            });
            Some(tracer.kept.len() - 1)
        } else {
            tracer.dropped += 1;
            None
        };
        tracer.open.push(Open {
            name,
            start,
            child_ns: 0,
            record,
        });
    });
}

fn close() {
    TRACER.with(|tracer| {
        let mut tracer = tracer.borrow_mut();
        let end = Instant::now();
        let span = tracer.open.pop().expect("span closed without an open span");
        let duration = nanos(end - span.start);
        let under_round = match tracer.open.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                parent.name == ROUND
            }
            None => false,
        };
        let layer = tracer.layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += duration;
        layer.self_ns += duration.saturating_sub(span.child_ns);
        if under_round {
            layer.under_round_ns += duration;
        }
        if let Some(index) = span.record {
            let origin = tracer.origin.expect("origin set when the span opened");
            tracer.kept[index].end_ns = nanos(end - origin);
        }
    });
}

fn nanos(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// The aggregated time of every span name closed since tracing was enabled.
pub fn layers() -> BTreeMap<&'static str, LayerTime> {
    TRACER.with(|tracer| tracer.borrow().layers.clone())
}

/// Writes the kept span records as JSON lines (one span per line, then one
/// summary line) and returns how many spans were kept.
pub fn write_spans(path: &Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let (kept, dropped) = TRACER.with(|tracer| {
        let tracer = tracer.borrow();
        for (index, span) in tracer.kept.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"run\":{},\"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.run, span.round, span.start_ns, span.end_ns
            )?;
        }
        Ok::<_, std::io::Error>((tracer.kept.len(), tracer.dropped))
    })?;
    writeln!(out, "{{\"kept\":{kept},\"dropped\":{dropped}}}")?;
    out.flush()?;
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_round_children_are_tagged() {
        set_enabled(true);
        span(ROUND, || {
            span("outer", || {
                span("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let layers = layers();
        set_enabled(false);
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(outer.under_round_ns, outer.total_ns);
        assert_eq!(inner.under_round_ns, 0);
        assert!(layers[ROUND].total_ns >= outer.total_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(true);
        set_enabled(false);
        assert_eq!(span("quiet", || 7), 7);
        assert!(layers().is_empty());
    }
}
