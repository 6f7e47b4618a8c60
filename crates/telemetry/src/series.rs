//! Logical-time series: fold the event stream into fixed round-indexed
//! buckets, per campaign and fleet-wide.
//!
//! Buckets are keyed by *round* (the campaign's logical clock), never by
//! wall-clock, so the aggregate is a pure function of the event stream —
//! byte-stable across runs and worker counts whenever the producing
//! schedule is. Wall-clock quantities (round latency, checkpoint write
//! time, kernel wait) stay in the telemetry histograms; putting them here
//! would break the determinism contract every report in this workspace
//! holds.

use std::collections::BTreeMap;

use crate::events::{Event, EventKind};

/// Default bucket width, in rounds.
pub const DEFAULT_BUCKET_ROUNDS: u64 = 8;

/// One fixed-width logical-time bucket of aggregated events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Rounds completed in this bucket.
    pub rounds: u64,
    /// Executions summed over completed rounds.
    pub execs: u64,
    /// New coverage signals admitted (frontier growth).
    pub coverage_growth: u64,
    /// Oracle flags by heuristic channel, name-sorted.
    pub flags: BTreeMap<String, u64>,
    /// Executor crashes.
    pub crashes: u64,
    /// Programs quarantined.
    pub quarantines: u64,
    /// Checkpoints that came due.
    pub checkpoints: u64,
    /// Injected faults surfaced.
    pub faults: u64,
    /// Executor restarts by the supervisor.
    pub restarts: u64,
    /// Health findings by detector, name-sorted.
    pub health: BTreeMap<String, u64>,
}

impl Bucket {
    fn fold(&mut self, event: &Event) {
        match &event.kind {
            EventKind::RoundCompleted => {
                self.rounds += 1;
                self.execs += event.value;
                self.coverage_growth += event.extra;
            }
            EventKind::Flag(channel) => {
                *self.flags.entry(channel.clone()).or_insert(0) += event.value.max(1);
            }
            EventKind::Crash => self.crashes += event.value.max(1),
            EventKind::Quarantine => self.quarantines += event.value.max(1),
            EventKind::CheckpointWritten => self.checkpoints += 1,
            EventKind::FaultInjected => self.faults += event.value,
            EventKind::WorkerRestart => self.restarts += event.value,
            EventKind::HealthFinding(detector) => {
                *self.health.entry(detector.clone()).or_insert(0) += 1;
            }
            // Scheduling and lifecycle events shape the stream but carry
            // no per-bucket quantity; unknown kinds are future vocabulary.
            EventKind::Park
            | EventKind::Unpark
            | EventKind::ScheduleDecision
            | EventKind::Unknown(_) => {}
        }
    }

    fn add(&mut self, other: &Bucket) {
        self.rounds += other.rounds;
        self.execs += other.execs;
        self.coverage_growth += other.coverage_growth;
        for (k, v) in &other.flags {
            *self.flags.entry(k.clone()).or_insert(0) += v;
        }
        self.crashes += other.crashes;
        self.quarantines += other.quarantines;
        self.checkpoints += other.checkpoints;
        self.faults += other.faults;
        self.restarts += other.restarts;
        for (k, v) in &other.health {
            *self.health.entry(k.clone()).or_insert(0) += v;
        }
    }

    fn total_flags(&self) -> u64 {
        self.flags.values().sum()
    }

    fn render_line(&self, out: &mut String, label: &str) {
        out.push_str(&format!(
            "  {label}  rounds {:>5}  execs {:>7}  cov+ {:>5}  flags {:>4}  crashes {:>3}  quarantined {:>3}  checkpoints {:>3}  faults {:>3}  restarts {:>3}",
            self.rounds,
            self.execs,
            self.coverage_growth,
            self.total_flags(),
            self.crashes,
            self.quarantines,
            self.checkpoints,
            self.faults,
            self.restarts,
        ));
        if !self.flags.is_empty() {
            let parts: Vec<String> = self.flags.iter().map(|(k, v)| format!("{k} {v}")).collect();
            out.push_str(&format!("  [{}]", parts.join(", ")));
        }
        if !self.health.is_empty() {
            let parts: Vec<String> = self
                .health
                .iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect();
            out.push_str(&format!("  health[{}]", parts.join(", ")));
        }
        out.push('\n');
    }
}

/// The aggregator: per-campaign bucket vectors plus a fleet-wide sum,
/// all deterministic functions of the folded events.
#[derive(Debug, Clone)]
pub struct Series {
    bucket_rounds: u64,
    campaigns: BTreeMap<u64, Vec<Bucket>>,
}

impl Default for Series {
    fn default() -> Series {
        Series::new(DEFAULT_BUCKET_ROUNDS)
    }
}

impl Series {
    /// An empty series with `bucket_rounds`-wide buckets (minimum 1).
    pub fn new(bucket_rounds: u64) -> Series {
        Series {
            bucket_rounds: bucket_rounds.max(1),
            campaigns: BTreeMap::new(),
        }
    }

    /// Build a series by folding `events` in order.
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a Event>,
        bucket_rounds: u64,
    ) -> Series {
        let mut series = Series::new(bucket_rounds);
        for event in events {
            series.fold(event);
        }
        series
    }

    /// The configured bucket width in rounds.
    pub fn bucket_rounds(&self) -> u64 {
        self.bucket_rounds
    }

    /// Fold one event into its campaign's bucket.
    pub fn fold(&mut self, event: &Event) {
        let idx = (event.round / self.bucket_rounds) as usize;
        let buckets = self.campaigns.entry(event.campaign).or_default();
        if buckets.len() <= idx {
            buckets.resize(idx + 1, Bucket::default());
        }
        buckets[idx].fold(event);
    }

    /// Campaign ids with at least one folded event, ascending.
    pub fn campaign_ids(&self) -> Vec<u64> {
        self.campaigns.keys().copied().collect()
    }

    /// One campaign's buckets (empty when unseen).
    pub fn campaign(&self, id: u64) -> &[Bucket] {
        self.campaigns.get(&id).map_or(&[], Vec::as_slice)
    }

    /// The fleet-wide series: element-wise sum of every campaign's
    /// buckets.
    pub fn fleet(&self) -> Vec<Bucket> {
        let len = self.campaigns.values().map(Vec::len).max().unwrap_or(0);
        let mut total = vec![Bucket::default(); len];
        for buckets in self.campaigns.values() {
            for (i, bucket) in buckets.iter().enumerate() {
                total[i].add(bucket);
            }
        }
        total
    }

    /// A one-line-per-bucket sketch of one campaign's most recent
    /// activity: `"<last-event-kind> @r<round>"` — the status-page column.
    pub fn last_activity(bucket: &Bucket) -> String {
        if !bucket.health.is_empty() {
            let detectors: Vec<&str> = bucket.health.keys().map(String::as_str).collect();
            return detectors.join(",");
        }
        if bucket.total_flags() > 0 {
            return format!("{} flag(s)", bucket.total_flags());
        }
        if bucket.crashes > 0 {
            return format!("{} crash(es)", bucket.crashes);
        }
        "ok".to_string()
    }

    /// Deterministic text rendering: per-campaign buckets then the
    /// fleet-wide sum, stable across runs and worker counts.
    pub fn render(&self) -> String {
        let mut out = format!("event series  bucket_rounds {}\n", self.bucket_rounds);
        for (id, buckets) in &self.campaigns {
            out.push_str(&format!("campaign {id}\n"));
            for (i, bucket) in buckets.iter().enumerate() {
                let label = format!(
                    "bucket {:>3} (rounds {:>5}..{:>5})",
                    i,
                    i as u64 * self.bucket_rounds,
                    (i as u64 + 1) * self.bucket_rounds - 1,
                );
                bucket.render_line(&mut out, &label);
            }
        }
        out.push_str("fleet\n");
        for (i, bucket) in self.fleet().iter().enumerate() {
            let label = format!(
                "bucket {:>3} (rounds {:>5}..{:>5})",
                i,
                i as u64 * self.bucket_rounds,
                (i as u64 + 1) * self.bucket_rounds - 1,
            );
            bucket.render_line(&mut out, &label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(campaign: u64, round: u64, kind: EventKind, value: u64, extra: u64) -> Event {
        Event {
            campaign,
            seq: round,
            round,
            kind,
            value,
            extra,
            note: String::new(),
        }
    }

    #[test]
    fn buckets_index_by_round_not_arrival_order() {
        let events = [
            ev(1, 9, EventKind::RoundCompleted, 20, 1),
            ev(1, 0, EventKind::RoundCompleted, 10, 2),
            ev(1, 0, EventKind::Crash, 1, 0),
        ];
        let series = Series::from_events(events.iter(), 8);
        let buckets = series.campaign(1);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].rounds, 1);
        assert_eq!(buckets[0].execs, 10);
        assert_eq!(buckets[0].coverage_growth, 2);
        assert_eq!(buckets[0].crashes, 1);
        assert_eq!(buckets[1].execs, 20);
    }

    #[test]
    fn fleet_sums_campaigns_elementwise() {
        let events = [
            ev(1, 0, EventKind::RoundCompleted, 10, 0),
            ev(2, 0, EventKind::RoundCompleted, 5, 0),
            ev(
                2,
                8,
                EventKind::Flag("fuzz-core-below-floor".to_string()),
                1,
                0,
            ),
        ];
        let series = Series::from_events(events.iter(), 8);
        let fleet = series.fleet();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0].execs, 15);
        assert_eq!(fleet[1].flags.get("fuzz-core-below-floor"), Some(&1));
        assert_eq!(series.campaign_ids(), vec![1, 2]);
    }

    #[test]
    fn render_is_order_invariant_for_commutative_folds() {
        // Same multiset of events in two arrival orders → identical text.
        let mut a = [
            ev(1, 0, EventKind::RoundCompleted, 10, 1),
            ev(2, 0, EventKind::RoundCompleted, 4, 0),
            ev(
                1,
                1,
                EventKind::Flag("memory-beyond-limits".to_string()),
                1,
                0,
            ),
            ev(
                1,
                3,
                EventKind::HealthFinding("coverage-plateau".to_string()),
                2,
                0,
            ),
        ];
        let first = Series::from_events(a.iter(), 4).render();
        a.reverse();
        let second = Series::from_events(a.iter(), 4).render();
        assert_eq!(first, second);
        assert!(first.contains("campaign 1"));
        assert!(first.contains("fleet"));
        assert!(first.contains("health[coverage-plateau 1]"));
    }

    #[test]
    fn last_activity_prefers_health_over_flags_over_ok() {
        let mut bucket = Bucket::default();
        assert_eq!(Series::last_activity(&bucket), "ok");
        bucket.flags.insert("x".to_string(), 2);
        assert_eq!(Series::last_activity(&bucket), "2 flag(s)");
        bucket.health.insert("throughput-stall".to_string(), 1);
        assert_eq!(Series::last_activity(&bucket), "throughput-stall");
    }
}
