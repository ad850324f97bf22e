//! gaplan-obs: a vendored, zero-dependency observability layer.
//!
//! The repo's vendor policy (no network, no registry) rules out `tracing`,
//! so this crate provides the small slice of it the planner actually needs:
//!
//! * [`Event`] — a named record with ordered key/value fields, rendered as
//!   one deterministic JSON line.
//! * [`Subscriber`] — where events and span boundaries go. Installed
//!   per-thread with [`install`]; when no subscriber is installed every
//!   instrumentation site is a branch on a thread-local flag and nothing
//!   else (benchmarked in `crates/bench/tests/obs_guard.rs`).
//! * [`span()`] — RAII wall-clock timing around a region, reported to the
//!   subscriber on drop.
//! * [`Histogram`] — mergeable log2-bucket histograms for metrics
//!   aggregation.
//! * [`golden`] — masking helpers that blank wall-clock fields so traces
//!   can be compared byte-for-byte across runs.
//!
//! Determinism contract: every field of every event is derived from seeded
//! computation or sim-time, **except** fields whose name contains `wall`,
//! which are the only place wall-clock durations may appear. Golden tests
//! mask exactly those fields.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

pub mod event;
pub mod golden;
pub mod hist;
pub mod span;
pub mod subscriber;

pub use event::{Event, FieldValue};
pub use hist::Histogram;
pub use span::SpanStack;
pub use subscriber::{JsonlSink, NoopSubscriber, RecordingSubscriber, SharedBuf, Subscriber};

thread_local! {
    /// Fast-path flag: number of installed subscribers on this thread.
    /// Kept separate from the stack so `enabled()` is a single `Cell` read.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The subscriber stack; `install` pushes, guard drop pops. A stack
    /// (rather than a slot) lets tests nest a recording subscriber inside
    /// an outer trace without clobbering it.
    static STACK: RefCell<Vec<Arc<dyn Subscriber>>> = const { RefCell::new(Vec::new()) };
}

/// True when a subscriber is installed on this thread. This is the only
/// cost instrumentation pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    DEPTH.with(|d| d.get() > 0)
}

/// Install `sub` as this thread's active subscriber until the returned
/// guard drops. Guards nest; the innermost installation wins.
#[must_use = "the subscriber is uninstalled when the guard drops"]
pub fn install(sub: Arc<dyn Subscriber>) -> InstallGuard {
    STACK.with(|s| s.borrow_mut().push(sub));
    DEPTH.with(|d| d.set(d.get() + 1));
    InstallGuard { _not_send: PhantomData }
}

/// Uninstalls the matching subscriber on drop. `!Send`: installation is
/// thread-local, so the guard must drop on the thread that created it.
pub struct InstallGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

fn active() -> Option<Arc<dyn Subscriber>> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().cloned())
}

/// Emit an event. The closure only runs when a subscriber is installed,
/// so field formatting costs nothing when tracing is off.
#[inline]
pub fn emit<F: FnOnce() -> Event>(build: F) {
    if let Some(sub) = active() {
        sub.on_event(&build());
    }
}

/// Enter a named span; the subscriber sees enter now and exit (with the
/// measured wall-clock nanoseconds) when the returned guard drops.
/// When tracing is off this neither reads the clock nor allocates.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    match active() {
        Some(sub) => {
            sub.on_span_enter(name);
            SpanGuard { name, start: Some(Instant::now()) }
        }
        None => SpanGuard { name, start: None },
    }
}

/// RAII handle returned by [`span()`].
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let wall_ns = start.elapsed().as_nanos() as u64;
            if let Some(sub) = active() {
                sub.on_span_exit(self.name, wall_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_emit_is_a_noop() {
        assert!(!enabled());
        emit(|| unreachable!("closure must not run without a subscriber"));
        let _span = span("quiet");
    }

    #[test]
    fn install_routes_events_and_guard_restores_previous() {
        let outer = Arc::new(RecordingSubscriber::default());
        let inner = Arc::new(RecordingSubscriber::default());
        let _g1 = install(outer.clone());
        emit(|| Event::new("outer.only"));
        {
            let _g2 = install(inner.clone());
            assert!(enabled());
            emit(|| Event::new("inner.only"));
        }
        emit(|| Event::new("outer.again"));
        let outer_lines = outer.lines();
        assert_eq!(outer_lines.len(), 2, "{outer_lines:?}");
        assert!(outer_lines[0].contains("outer.only"));
        assert!(outer_lines[1].contains("outer.again"));
        assert_eq!(inner.lines().len(), 1);
    }

    #[test]
    fn spans_report_enter_exit_with_wall_time() {
        let rec = Arc::new(RecordingSubscriber::default());
        let _g = install(rec.clone());
        {
            let _s = span("work");
            emit(|| Event::new("inside"));
        }
        let lines = rec.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains(r#""ev":"span_enter""#) && lines[0].contains("work"));
        assert!(lines[1].contains("inside"));
        assert!(lines[2].contains(r#""ev":"span_exit""#) && lines[2].contains("wall_ns"));
    }

    #[test]
    fn installation_is_thread_local() {
        let rec = Arc::new(RecordingSubscriber::default());
        let _g = install(rec.clone());
        std::thread::spawn(|| {
            assert!(!enabled(), "subscribers must not leak across threads");
        })
        .join()
        .unwrap();
        assert!(enabled());
    }
}
