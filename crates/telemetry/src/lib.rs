//! Telemetry for the TORPEDO campaign loop: a lock-cheap span journal, a
//! registry of monotone counters and fixed-bucket histograms, and a
//! syz-manager-style status endpoint (§2.6.2: "serves these statistics over a
//! local HTTP server for human observers").
//!
//! The whole subsystem is opt-in. [`Telemetry::disabled`] returns a handle
//! whose every method is a single `Option` branch — no clock reads, no
//! allocation, no locking — so a campaign that never asks for telemetry pays
//! nothing for it. An enabled handle is an `Arc` and can be cloned freely
//! across observer workers and fleet workers; all sinks are either atomics
//! (counters, histograms, span aggregates) or a short-critical-section mutex
//! (the ring-buffer journal).
//!
//! This crate is intentionally std-only: the container build is offline and
//! the status server must work without any HTTP dependency.

pub mod events;
pub mod metrics;
pub mod prom;
pub mod series;
pub mod server;
pub mod trace;
pub mod wire;

pub use events::{load_journal, Event, EventJournal, EventKind, EventLog, EVENTS_SCHEMA};
pub use metrics::{CounterId, HistogramId, HistogramSnapshot, Registry, BUCKETS};
pub use prom::{check_exposition, prometheus_exposition, quantile_from_snapshot};
pub use series::{Bucket, Series, DEFAULT_BUCKET_ROUNDS};
pub use server::{ControlApi, StatusServer, StatusShared};
pub use trace::chrome_trace_json;

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Divide `n / d`, returning `0.0` whenever the result would be non-finite
/// (zero, NaN, or infinite denominators included). Every rate and mean in the
/// workspace funnels through this helper so an empty report can never produce
/// a NaN in a table or a JSON export.
pub fn safe_div(n: f64, d: f64) -> f64 {
    if d.is_finite() && d != 0.0 && n.is_finite() {
        let q = n / d;
        if q.is_finite() {
            q
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// The span taxonomy. Every stage of a campaign round is attributable to
/// exactly one of these kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// One full observer round (latch → run → measure → judge).
    Round = 0,
    /// One executor's `run_until` window (Algorithm 1 loop).
    Exec = 1,
    /// The per-round resource snapshot / measurement stage.
    Snapshot = 2,
    /// Oracle scoring and flagging of a finished round.
    Oracle = 3,
    /// Corpus mutation between rounds.
    Mutate = 4,
    /// Time spent waiting on a contended lock: a kernel partition's, for
    /// an execution window or for measurement.
    LockWait = 5,
    /// Checkpoint-bundle rendering/writing, and resume-time verification.
    Checkpoint = 6,
}

impl SpanKind {
    /// Every kind, in stable export order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Round,
        SpanKind::Exec,
        SpanKind::Snapshot,
        SpanKind::Oracle,
        SpanKind::Mutate,
        SpanKind::LockWait,
        SpanKind::Checkpoint,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Exec => "exec",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Oracle => "oracle",
            SpanKind::Mutate => "mutate",
            SpanKind::LockWait => "lock-wait",
            SpanKind::Checkpoint => "checkpoint",
        }
    }
}

/// One closed span in the journal: kind plus monotonic timestamps relative to
/// the telemetry epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Which stage this span measured.
    pub kind: SpanKind,
    /// Start offset from the telemetry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Fixed-capacity ring buffer of [`SpanEvent`]s. Appends overwrite the oldest
/// entry once full; `dropped` counts the overwritten events so exports can
/// say how much history was lost.
#[derive(Debug)]
pub(crate) struct Journal {
    events: Vec<SpanEvent>,
    capacity: usize,
    head: usize,
    recorded: u64,
}

impl Journal {
    fn new(capacity: usize) -> Journal {
        Journal {
            events: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            recorded: 0,
        }
    }

    fn push(&mut self, event: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Events in arrival order (oldest retained first).
    fn ordered(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

#[derive(Debug)]
pub(crate) struct Inner {
    epoch: Instant,
    pub(crate) journal: Mutex<Journal>,
    pub(crate) registry: Registry,
}

/// The telemetry handle threaded through the campaign. Cheap to clone; a
/// disabled handle is a `None` and every operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Default journal capacity (events retained before overwrite).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

impl Telemetry {
    /// The no-op handle. Every method is a single branch; no clocks are read
    /// and nothing is allocated. This is the default for every config.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default journal capacity.
    pub fn enabled() -> Telemetry {
        Telemetry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` journal events.
    pub fn with_journal_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                journal: Mutex::new(Journal::new(capacity)),
                registry: Registry::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a scoped span; it is recorded (journal + aggregate, plus the
    /// round-latency histogram for [`SpanKind::Round`]) when the guard drops.
    pub fn span(&self, kind: SpanKind) -> SpanGuard<'_> {
        SpanGuard {
            inner: self.inner.as_deref().map(|inner| (inner, Instant::now())),
            kind,
        }
    }

    /// Bump a monotone counter by `n`.
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(id, n);
        }
    }

    /// Bump a monotone counter by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(id, value);
        }
    }

    /// Fold an externally-measured lock wait in. Updates the lock-wait span
    /// aggregate and histogram with atomics only — no journal entry and no
    /// clock read, because this is called from the parallel exec hot loop.
    pub fn record_lock_wait(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record_span(SpanKind::LockWait, ns);
            inner.registry.observe(HistogramId::LockWaitNs, ns);
        }
    }

    /// Fold an externally-measured kernel-partition wait in: the once-per-
    /// window acquisition of a worker's own kernel partition. Shares the
    /// lock-wait span aggregate (it is still a lock wait) but feeds the
    /// dedicated `kernel_wait_ns` histogram so partition contention stays
    /// separable from the legacy shared-lock series. Atomics only.
    pub fn record_kernel_wait(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record_span(SpanKind::LockWait, ns);
            inner.registry.observe(HistogramId::KernelWaitNs, ns);
        }
    }

    /// Fold an externally-measured duration in as a span aggregate (no
    /// journal entry; use [`Telemetry::span`] for journalled spans).
    pub fn record_span_ns(&self, kind: SpanKind, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record_span(kind, ns);
            // Round durations always feed the latency histogram, whether
            // they arrive via a guard or an external measurement.
            if kind == SpanKind::Round {
                inner.registry.observe(HistogramId::RoundLatencyNs, ns);
            }
        }
    }

    /// Read one counter (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.registry.counter(id))
    }

    /// Snapshot one histogram (empty when disabled).
    pub fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        self.inner
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |inner| {
                inner.registry.snapshot(id)
            })
    }

    /// Aggregate `(count, total_ns)` for one span kind (zero when disabled).
    pub fn span_totals(&self, kind: SpanKind) -> (u64, u64) {
        self.inner
            .as_ref()
            .map_or((0, 0), |inner| inner.registry.span_totals(kind))
    }

    /// Span events overwritten (lost) in the journal ring so far — the
    /// saturation signal surfaced on the text status page.
    pub fn journal_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .journal
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .dropped()
        })
    }

    /// The retained journal events, oldest first (empty when disabled).
    pub fn journal_events(&self) -> Vec<SpanEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .journal
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .ordered()
        })
    }

    /// Serialize every counter, histogram, span aggregate, and the recent
    /// journal tail as a stable JSON document. The schema is exercised by the
    /// `logfmt::parse_metrics` round-trip test.
    pub fn export_json(&self) -> String {
        match &self.inner {
            None => "{\"schema\":\"torpedo-telemetry-v1\",\"enabled\":false}".to_string(),
            Some(inner) => {
                let journal = inner.journal.lock().unwrap_or_else(|e| e.into_inner());
                let events = journal.ordered();
                let dropped = journal.dropped();
                let recorded = journal.recorded;
                let capacity = journal.capacity;
                drop(journal);

                let mut out = String::with_capacity(4096);
                out.push_str("{\"schema\":\"torpedo-telemetry-v1\",\"enabled\":true,");
                inner.registry.write_json(&mut out);
                out.push_str(",\"journal\":{");
                out.push_str(&format!(
                    "\"capacity\":{capacity},\"recorded\":{recorded},\"dropped\":{dropped},\"events\":["
                ));
                // Cap the exported tail so /metrics stays small even for a
                // long campaign; the histograms carry the full distribution.
                const EXPORT_TAIL: usize = 64;
                let tail = &events[events.len().saturating_sub(EXPORT_TAIL)..];
                for (i, ev) in tail.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                        ev.kind.as_str(),
                        ev.start_ns,
                        ev.dur_ns
                    ));
                }
                out.push_str("]}}");
                out
            }
        }
    }

    fn record_closed_span(inner: &Inner, kind: SpanKind, start: Instant, end: Instant) {
        let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        inner.registry.record_span(kind, dur_ns);
        if kind == SpanKind::Round {
            inner.registry.observe(HistogramId::RoundLatencyNs, dur_ns);
        }
        inner
            .journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanEvent {
                kind,
                start_ns,
                dur_ns,
            });
    }
}

/// RAII guard returned by [`Telemetry::span`]; records the span on drop.
/// For a disabled handle the guard holds nothing and drop is a no-op.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard<'a> {
    inner: Option<(&'a Inner, Instant)>,
    kind: SpanKind,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, start)) = self.inner.take() {
            Telemetry::record_closed_span(inner, self.kind, start, Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _g = t.span(SpanKind::Round);
        }
        t.incr(CounterId::RoundsCompleted);
        t.observe(HistogramId::RoundLatencyNs, 123);
        t.record_lock_wait(55);
        assert_eq!(t.counter(CounterId::RoundsCompleted), 0);
        assert_eq!(t.histogram(HistogramId::RoundLatencyNs).count, 0);
        assert!(t.journal_events().is_empty());
        assert_eq!(
            t.export_json(),
            "{\"schema\":\"torpedo-telemetry-v1\",\"enabled\":false}"
        );
    }

    #[test]
    fn spans_land_in_journal_and_aggregates() {
        let t = Telemetry::enabled();
        {
            let _g = t.span(SpanKind::Round);
            let _h = t.span(SpanKind::Snapshot);
        }
        let events = t.journal_events();
        assert_eq!(events.len(), 2);
        // Guards drop in reverse declaration order: snapshot closes first.
        assert_eq!(events[0].kind, SpanKind::Snapshot);
        assert_eq!(events[1].kind, SpanKind::Round);
        let hist = t.histogram(HistogramId::RoundLatencyNs);
        assert_eq!(hist.count, 1);
        assert!(t.export_json().contains("\"round_latency_ns\""));
    }

    #[test]
    fn journal_ring_overwrites_oldest() {
        let t = Telemetry::with_journal_capacity(4);
        for _ in 0..10 {
            let _g = t.span(SpanKind::Exec);
        }
        let events = t.journal_events();
        assert_eq!(events.len(), 4);
        let json = t.export_json();
        assert!(json.contains("\"recorded\":10"));
        assert!(json.contains("\"dropped\":6"));
    }

    #[test]
    fn lock_waits_skip_the_journal() {
        let t = Telemetry::enabled();
        t.record_lock_wait(1_000);
        t.record_lock_wait(3_000);
        assert!(t.journal_events().is_empty());
        let hist = t.histogram(HistogramId::LockWaitNs);
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 4_000);
        assert_eq!(hist.max, 3_000);
    }

    #[test]
    fn safe_div_never_produces_non_finite() {
        assert_eq!(safe_div(1.0, 0.0), 0.0);
        assert_eq!(safe_div(0.0, 0.0), 0.0);
        assert_eq!(safe_div(f64::NAN, 2.0), 0.0);
        assert_eq!(safe_div(1.0, f64::INFINITY), 0.0);
        assert_eq!(safe_div(6.0, 3.0), 2.0);
        assert!(safe_div(f64::MAX, f64::MIN_POSITIVE).is_finite());
    }
}
