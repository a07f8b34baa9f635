//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a layer of the simulator (see `README.md`). They stay in
//! memory as trace-event `B`/`E` pairs on one track — nesting gives the
//! parent, and every begin carries its span id and its parent's id — and
//! are rendered once, when the benchmark ends. Recording is off unless
//! [`start`] was called, so the timed runs pay one thread-local lookup
//! per span and nothing else.

use secpref_telemetry::TraceBuilder;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Recorder {
    origin: Instant,
    events: TraceBuilder,
    /// Ids of the spans open right now, innermost last.
    open: Vec<(u64, &'static str, Instant)>,
    next_id: u64,
    /// While set, spans run their closure and record nothing.
    paused: bool,
    /// Total time per span name.
    totals: BTreeMap<&'static str, Duration>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    let mut events = TraceBuilder::new();
    events.thread_name(0, "secbench");
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            events,
            open: Vec::new(),
            next_id: 1,
            paused: false,
            totals: BTreeMap::new(),
        });
    });
}

/// Pauses (`true`) or resumes (`false`) recording, so an untraced pass
/// can run between traced ones in the same process.
pub fn pause(paused: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

/// Total time recorded so far under span `name`.
pub fn total(name: &str) -> Duration {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .and_then(|rec| rec.totals.get(name).copied())
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span called `name` (a plain call unless recording
/// was started). The span also closes when `f` unwinds, so a caught
/// panic leaves the span stack balanced.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _open = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().filter(|rec| !rec.paused)?;
        let id = rec.next_id;
        rec.next_id += 1;
        let parent = rec.open.last().map_or(0, |s| s.0);
        let now = Instant::now();
        let ts = micros(now - rec.origin);
        rec.events.begin(
            0,
            name,
            ts,
            &[("id", &id.to_string()), ("parent", &parent.to_string())],
        );
        rec.open.push((id, name, now));
        Some(OpenSpan)
    });
    f()
}

/// Closes the innermost open span when dropped.
struct OpenSpan;

impl Drop for OpenSpan {
    fn drop(&mut self) {
        // `try_*`: a drop must not panic, even during thread teardown.
        let _ = RECORDER.try_with(|r| {
            let Ok(mut r) = r.try_borrow_mut() else {
                return;
            };
            let Some(rec) = r.as_mut() else { return };
            let Some((_, name, begun)) = rec.open.pop() else {
                return;
            };
            let now = Instant::now();
            rec.events.end(0, micros(now - rec.origin));
            *rec.totals.entry(name).or_default() += now - begun;
        });
    }
}

/// Stops recording and returns the trace-event JSON document, or `None`
/// when recording was never started.
pub fn finish() -> Option<String> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.events.finish())
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}
