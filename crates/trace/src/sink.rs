//! The global trace sink: a per-thread event buffer behind one atomic flag.
//!
//! Design constraints, in order:
//! 1. **Zero cost when disabled.** [`TraceSink::record`] and
//!    [`TraceSink::span`] start with a single `Relaxed` atomic load and
//!    return immediately when tracing is off — no allocation, no TLS
//!    access, no lock.
//! 2. **Lock-free recording when enabled.** Events land in a plain
//!    `thread_local!` `Vec`; there is no shared registry and therefore no
//!    contention. The engine (and everything it drives: GPU timelines,
//!    network endpoints) runs on one thread, so draining the calling
//!    thread's buffer captures the whole run. Worker-pool threads never
//!    record.
//! 3. **Deterministic output.** Events drain in insertion order, which is
//!    deterministic for a fixed seed; wall-clock time is carried alongside
//!    but never used for ordering.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::event::{Phase, TraceEvent};

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static BUFFER: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
    static CONTEXT: Cell<(Phase, Option<u32>)> = const { Cell::new((Phase::Other, None)) };
}

/// Handle to the process-wide trace sink. All methods are associated
/// functions; the type exists so the facade can re-export one name.
#[derive(Clone, Copy, Debug)]
pub struct TraceSink;

impl TraceSink {
    /// Turns tracing on for the whole process.
    pub fn enable() {
        EPOCH.get_or_init(Instant::now);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turns tracing off. Buffered events are kept until drained.
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Whether tracing is currently on. This is the only check on the
    /// disabled hot path.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Discards the calling thread's buffered events.
    pub fn clear() {
        BUFFER.with(|b| b.borrow_mut().clear());
    }

    /// Takes and returns the calling thread's buffered events, in
    /// insertion order.
    pub fn drain() -> Vec<TraceEvent> {
        BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()))
    }

    /// Records a fully-formed event. Phase/layer are filled from the
    /// ambient scope when the event carries none.
    #[inline]
    pub fn record(mut ev: TraceEvent) {
        if !Self::is_enabled() {
            return;
        }
        let (phase, layer) = CONTEXT.with(Cell::get);
        if ev.phase == Phase::Other {
            ev.phase = phase;
        }
        if ev.layer.is_none() {
            ev.layer = layer;
        }
        ev.wall_ns = Self::wall_ns();
        BUFFER.with(|b| b.borrow_mut().push(ev));
    }

    /// Records a simple span with ambient phase/layer. The common entry
    /// point for lower layers (timeline ops, network sends).
    #[inline]
    pub fn span(op: &str, track: &str, start_ns: u64, end_ns: u64, bytes: u64) {
        if !Self::is_enabled() {
            return;
        }
        Self::record(TraceEvent {
            phase: Phase::Other,
            op: op.to_string(),
            track: track.to_string(),
            layer: None,
            shape: None,
            placement: None,
            start_ns,
            end_ns,
            wall_ns: 0,
            bytes,
        });
    }

    /// Appends already-formed events to the calling thread's buffer,
    /// preserving their `wall_ns` stamps.
    ///
    /// This is the hand-over half of cross-thread tracing: a producer
    /// thread (the triple-provisioning pipeline) drains its own buffer
    /// and ships the events with its results; the engine thread adopts
    /// them at consumption time. Unlike [`TraceSink::record`], the wall
    /// clock is *not* re-stamped — the events describe when the work
    /// actually ran, which is exactly what makes offline/online overlap
    /// visible in the profile.
    pub fn adopt(events: Vec<TraceEvent>) {
        if !Self::is_enabled() || events.is_empty() {
            return;
        }
        BUFFER.with(|b| b.borrow_mut().extend(events));
    }

    /// Establishes the ambient `(phase, layer)` for the calling thread
    /// until the returned guard drops. Scopes nest; the previous context
    /// is restored on drop.
    #[must_use]
    pub fn scope(phase: Phase, layer: Option<u32>) -> PhaseGuard {
        let prev = CONTEXT.with(|c| c.replace((phase, layer)));
        PhaseGuard { prev }
    }

    /// The ambient `(phase, layer)` of the calling thread.
    pub fn current() -> (Phase, Option<u32>) {
        CONTEXT.with(Cell::get)
    }

    /// Wall-clock nanoseconds since the process epoch: the first
    /// [`TraceSink::enable`] or the first call of this function, whichever
    /// came first. It reads the clock whether or not tracing is on, so
    /// counters kept outside the span path (the triple provider's stall
    /// time) can be stamped with it.
    pub fn wall_ns() -> u64 {
        let n = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

/// RAII guard restoring the previous ambient phase/layer. Created by
/// [`TraceSink::scope`].
#[derive(Debug)]
pub struct PhaseGuard {
    prev: (Phase, Option<u32>),
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The buffer is thread-local so each test only observes its own
    // events, but the ENABLED flag is process-global: tests that toggle it
    // serialize on this lock so a concurrent test never sees the flag
    // flipped under it.
    static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _l = FLAG_LOCK.lock().unwrap();
        TraceSink::disable();
        TraceSink::clear();
        TraceSink::span("gemm", "gpu", 0, 10, 0);
        assert!(TraceSink::drain().is_empty());
    }

    #[test]
    fn enabled_records_with_ambient_context() {
        let _l = FLAG_LOCK.lock().unwrap();
        TraceSink::enable();
        TraceSink::clear();
        {
            let _g = TraceSink::scope(Phase::Communicate, Some(3));
            TraceSink::span("send", "net:S0->S1", 100, 250, 64);
        }
        TraceSink::span("idle", "cpu", 250, 260, 0);
        let evs = TraceSink::drain();
        TraceSink::disable();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, Phase::Communicate);
        assert_eq!(evs[0].layer, Some(3));
        assert_eq!(evs[0].bytes, 64);
        assert_eq!(evs[1].phase, Phase::Other);
        assert_eq!(evs[1].layer, None);
    }

    #[test]
    fn wall_clock_advances_without_enable() {
        // No `enable()` here (and none is needed by any other test for
        // this to hold): the epoch is set by the first reader.
        let before = TraceSink::wall_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(TraceSink::wall_ns() >= before + 1_000_000);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _outer = TraceSink::scope(Phase::Offline, None);
        assert_eq!(TraceSink::current(), (Phase::Offline, None));
        {
            let _inner = TraceSink::scope(Phase::Compute1, Some(1));
            assert_eq!(TraceSink::current(), (Phase::Compute1, Some(1)));
        }
        assert_eq!(TraceSink::current(), (Phase::Offline, None));
    }

    #[test]
    fn adopt_preserves_wall_clock_and_order() {
        let _l = FLAG_LOCK.lock().unwrap();
        TraceSink::enable();
        TraceSink::clear();
        // Events "produced on another thread", with wall stamps from the
        // past that record() would have overwritten.
        let foreign: Vec<TraceEvent> = (0..3)
            .map(|i| TraceEvent {
                phase: Phase::Offline,
                op: format!("provider:gen_triple:{i}"),
                track: "provider".into(),
                layer: None,
                shape: None,
                placement: None,
                start_ns: i * 10,
                end_ns: i * 10 + 5,
                wall_ns: 1000 + i,
                bytes: 0,
            })
            .collect();
        TraceSink::span("local", "cpu", 0, 1, 0);
        TraceSink::adopt(foreign.clone());
        let evs = TraceSink::drain();
        TraceSink::disable();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].op, "local");
        for (i, ev) in evs[1..].iter().enumerate() {
            assert_eq!(ev, &foreign[i], "adopted event {i} was altered");
        }
    }

    #[test]
    fn adopt_when_disabled_is_a_no_op() {
        let _l = FLAG_LOCK.lock().unwrap();
        TraceSink::disable();
        TraceSink::clear();
        TraceSink::adopt(vec![TraceEvent {
            phase: Phase::Offline,
            op: "x".into(),
            track: "provider".into(),
            layer: None,
            shape: None,
            placement: None,
            start_ns: 0,
            end_ns: 1,
            wall_ns: 7,
            bytes: 0,
        }]);
        assert!(TraceSink::drain().is_empty());
    }

    #[test]
    fn explicit_phase_wins_over_ambient() {
        let _l = FLAG_LOCK.lock().unwrap();
        TraceSink::enable();
        TraceSink::clear();
        let _g = TraceSink::scope(Phase::Compute1, Some(7));
        TraceSink::record(TraceEvent {
            phase: Phase::Activation,
            op: "relu".into(),
            track: "client".into(),
            layer: Some(2),
            shape: None,
            placement: None,
            start_ns: 0,
            end_ns: 5,
            wall_ns: 0,
            bytes: 0,
        });
        let evs = TraceSink::drain();
        TraceSink::disable();
        assert_eq!(evs[0].phase, Phase::Activation);
        assert_eq!(evs[0].layer, Some(2));
    }
}
