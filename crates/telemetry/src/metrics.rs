//! The metrics registry: named monotone counters, fixed-bucket histograms,
//! and per-span-kind duration aggregates. Everything is an atomic, indexed by
//! enum discriminant — no hashing, no locking, and a stable export order.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{safe_div, SpanKind};

/// Monotone counters. The discriminant is the registry slot; `ALL` fixes the
/// export order so the exposition is stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Observer rounds completed (including salvaged rounds).
    RoundsCompleted = 0,
    /// Program executions completed across all executors.
    ExecsTotal = 1,
    /// Corpus programs mutated between rounds.
    MutationsTotal = 2,
    /// Container crashes collected by the campaign.
    CrashesTotal = 3,
    /// Programs flagged adversarial by the oracle.
    FlaggedTotal = 4,
    /// Supervised-recovery events (restarts, respawns, salvages, …).
    RecoveryEvents = 5,
    /// Faults injected by the engine's deterministic fault plan.
    FaultsInjected = 6,
    /// HTTP requests served by the status endpoint.
    StatusRequests = 7,
    /// Forensics bundles emitted by the flight recorder.
    ForensicsBundles = 8,
    /// Checkpoint bundles written crash-safely to disk.
    CheckpointWrites = 9,
    /// Checkpoint writes killed mid-rename by fault injection.
    CheckpointWriteFails = 10,
    /// Campaigns resumed from a checkpoint bundle.
    CheckpointRestores = 11,
    /// Syscalls with a finite distance to the directed target (recorded
    /// once per directed campaign start; 0 for undirected campaigns).
    DirectedReachable = 12,
    /// Round-programs carrying a target-set (distance-0) call, summed per
    /// round of a directed campaign.
    DirectedOnTarget = 13,
}

impl CounterId {
    /// Every counter, in stable export order.
    pub const ALL: [CounterId; 14] = [
        CounterId::RoundsCompleted,
        CounterId::ExecsTotal,
        CounterId::MutationsTotal,
        CounterId::CrashesTotal,
        CounterId::FlaggedTotal,
        CounterId::RecoveryEvents,
        CounterId::FaultsInjected,
        CounterId::StatusRequests,
        CounterId::ForensicsBundles,
        CounterId::CheckpointWrites,
        CounterId::CheckpointWriteFails,
        CounterId::CheckpointRestores,
        CounterId::DirectedReachable,
        CounterId::DirectedOnTarget,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            CounterId::RoundsCompleted => "rounds_completed",
            CounterId::ExecsTotal => "execs_total",
            CounterId::MutationsTotal => "mutations_total",
            CounterId::CrashesTotal => "crashes_total",
            CounterId::FlaggedTotal => "flagged_total",
            CounterId::RecoveryEvents => "recovery_events",
            CounterId::FaultsInjected => "faults_injected",
            CounterId::StatusRequests => "status_requests",
            CounterId::ForensicsBundles => "forensics_bundles",
            CounterId::CheckpointWrites => "checkpoint_writes",
            CounterId::CheckpointWriteFails => "checkpoint_write_fails",
            CounterId::CheckpointRestores => "checkpoint_restores",
            CounterId::DirectedReachable => "directed_reachable",
            CounterId::DirectedOnTarget => "directed_on_target",
        }
    }
}

/// Histograms. Buckets are fixed power-of-4 upper bounds chosen per series so
/// two campaigns always bucket identically (no dynamic rebinning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HistogramId {
    /// Host wall-clock nanoseconds per observer round.
    RoundLatencyNs = 0,
    /// Virtual microseconds per program execution.
    ExecLatencyUs = 1,
}

/// Number of finite bucket bounds per histogram (plus one overflow bucket).
pub const BUCKETS: usize = 12;

/// Power-of-4 ladder: `base * 4^i` for `i` in `0..BUCKETS`.
const fn pow4_bounds(base: u64) -> [u64; BUCKETS] {
    let mut bounds = [0u64; BUCKETS];
    let mut i = 0;
    let mut bound = base;
    while i < BUCKETS {
        bounds[i] = bound;
        bound = bound.saturating_mul(4);
        i += 1;
    }
    bounds
}

/// 1 µs … ~17 s in host nanoseconds.
const ROUND_LATENCY_BOUNDS: [u64; BUCKETS] = pow4_bounds(1_024);
/// 4 µs … ~16.8 virtual seconds in virtual microseconds. The top bound must
/// clear a full executor window plus collider tail (observed max 5.4 Mµs),
/// or p99 drowns in the overflow bucket.
const EXEC_LATENCY_BOUNDS: [u64; BUCKETS] = pow4_bounds(4);

impl HistogramId {
    /// Every histogram, in stable export order.
    pub const ALL: [HistogramId; 2] = [HistogramId::RoundLatencyNs, HistogramId::ExecLatencyUs];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            HistogramId::RoundLatencyNs => "round_latency_ns",
            HistogramId::ExecLatencyUs => "exec_latency_us",
        }
    }

    /// The unit the series is recorded in.
    pub fn unit(self) -> &'static str {
        match self {
            HistogramId::RoundLatencyNs => "ns",
            HistogramId::ExecLatencyUs => "us",
        }
    }

    /// The fixed upper bounds (inclusive) of the finite buckets.
    pub fn bounds(self) -> &'static [u64; BUCKETS] {
        match self {
            HistogramId::RoundLatencyNs => &ROUND_LATENCY_BOUNDS,
            HistogramId::ExecLatencyUs => &EXEC_LATENCY_BOUNDS,
        }
    }
}

#[derive(Debug, Default)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn observe(&self, bounds: &[u64; BUCKETS], value: u64) {
        match bounds.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one histogram, safe to hold across exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Mean observed value (`0.0` for an empty histogram — never NaN).
    pub mean: f64,
    /// Count per finite bucket, aligned with [`HistogramId::bounds`].
    pub buckets: Vec<u64>,
    /// Observations above the last finite bound.
    pub overflow: u64,
}

#[derive(Debug, Default)]
struct SpanCells {
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// The registry itself: one atomic slot per counter, histogram, and span
/// kind.
#[derive(Debug, Default)]
pub struct Registry {
    counters: [AtomicU64; CounterId::ALL.len()],
    histograms: [HistogramCells; HistogramId::ALL.len()],
    spans: [SpanCells; SpanKind::ALL.len()],
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry::default()
    }

    pub(crate) fn add(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    pub(crate) fn observe(&self, id: HistogramId, value: u64) {
        self.histograms[id as usize].observe(id.bounds(), value);
    }

    pub(crate) fn record_span(&self, kind: SpanKind, ns: u64) {
        let cells = &self.spans[kind as usize];
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn span_totals(&self, kind: SpanKind) -> (u64, u64) {
        let cells = &self.spans[kind as usize];
        (
            cells.count.load(Ordering::Relaxed),
            cells.total_ns.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn snapshot(&self, id: HistogramId) -> HistogramSnapshot {
        let cells = &self.histograms[id as usize];
        let count = cells.count.load(Ordering::Relaxed);
        let sum = cells.sum.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum,
            max: cells.max.load(Ordering::Relaxed),
            mean: safe_div(sum as f64, count as f64),
            buckets: cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: cells.overflow.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_power_of_four_ladders() {
        for id in HistogramId::ALL {
            let bounds = id.bounds();
            for w in bounds.windows(2) {
                assert_eq!(w[1], w[0] * 4, "{}", id.as_str());
            }
        }
    }

    #[test]
    fn observations_land_in_the_right_bucket() {
        let reg = Registry::new();
        // Bound 0 of round_latency_ns is 1024: a 1024 ns round is inclusive.
        reg.observe(HistogramId::RoundLatencyNs, 1_024);
        reg.observe(HistogramId::RoundLatencyNs, 1_025);
        reg.observe(HistogramId::RoundLatencyNs, u64::MAX);
        let snap = reg.snapshot(HistogramId::RoundLatencyNs);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, u64::MAX);
    }

    #[test]
    fn exec_latency_top_bound_covers_long_windows() {
        let bounds = HistogramId::ExecLatencyUs.bounds();
        assert_eq!(bounds[0], 4);
        assert_eq!(bounds[BUCKETS - 1], 16_777_216);
        // The worst execution observed on the committed bench (5.4 Mµs)
        // must land in a finite bucket, not overflow.
        let reg = Registry::new();
        reg.observe(HistogramId::ExecLatencyUs, 5_401_390);
        let snap = reg.snapshot(HistogramId::ExecLatencyUs);
        assert_eq!(snap.overflow, 0);
        assert_eq!(snap.buckets[BUCKETS - 1], 1);
    }

    #[test]
    fn empty_histogram_mean_is_finite() {
        let reg = Registry::new();
        let snap = reg.snapshot(HistogramId::RoundLatencyNs);
        assert_eq!(snap.mean, 0.0);
        assert!(snap.mean.is_finite());
    }

    #[test]
    fn export_has_stable_keys() {
        let t = crate::Telemetry::enabled();
        t.add(CounterId::ExecsTotal, 42);
        let text = crate::prometheus_exposition(&t);
        let samples = crate::check_exposition(&text).unwrap();
        let names: Vec<&str> = samples.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names[..3],
            [
                "torpedo_telemetry_enabled",
                "torpedo_rounds_completed",
                "torpedo_execs_total"
            ]
        );
        assert_eq!(samples[2].1, 42.0);
        for id in HistogramId::ALL {
            assert!(names.contains(&format!("torpedo_{}_max", id.as_str()).as_str()));
        }
        for kind in SpanKind::ALL {
            assert!(names.contains(&format!("torpedo_span_{}_count", kind.as_str()).as_str()));
        }
    }
}
