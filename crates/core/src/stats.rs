//! Campaign statistics: the syz-manager-style operational counters (§2.6.2:
//! "a central collection point for the program corpus and execution
//! statistics … serves these statistics over a local HTTP server for human
//! observers"). This port collects the same counters and renders them as a
//! text status page.

use torpedo_kernel::time::Usecs;
use torpedo_runtime::FaultCounters;
use torpedo_telemetry::{safe_div, HistogramId, Telemetry};

use crate::campaign::CampaignReport;

/// The telemetry-saturation footer for the status page: how much the
/// bounded telemetry stores have silently shed. Empty when telemetry is
/// disabled *or* nothing saturated, so the page only grows when there is
/// something to say. Callers append this to a rendered page
/// ([`CampaignStats::render`] itself stays byte-stable).
pub fn telemetry_saturation_section(telemetry: &Telemetry) -> String {
    if !telemetry.is_enabled() {
        return String::new();
    }
    let mut section = String::new();
    let dropped = telemetry.journal_dropped();
    if dropped > 0 {
        section.push_str(&format!("journal spans dropped {dropped}\n"));
    }
    for id in HistogramId::ALL {
        let snap = telemetry.histogram(id);
        if snap.overflow > 0 {
            section.push_str(&format!(
                "histogram overflow  {} {} of {} samples past the last bucket\n",
                id.as_str(),
                snap.overflow,
                snap.count,
            ));
        }
    }
    section
}

/// Recovery-event counters maintained by the supervised observers and the
/// campaign driver. Every counter is monotone; per-round deltas are taken
/// with [`RecoveryStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Executors respawned after a hang: each tears down its container
    /// and boots a fresh one.
    pub worker_restarts: u64,
    /// Executor hangs the supervisor handled (rolled by the fault plan).
    pub hangs_detected: u64,
    /// Rounds abandoned and retried from scratch.
    pub rounds_retried: u64,
    /// Rounds completed with a partial fleet (quorum salvage).
    pub rounds_salvaged: u64,
    /// Container start attempts that failed (and were retried with backoff).
    pub start_failures: u64,
    /// Programs quarantined for repeatedly killing executors.
    pub quarantined_programs: u64,
}

impl RecoveryStats {
    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.worker_restarts
            + self.hangs_detected
            + self.rounds_retried
            + self.rounds_salvaged
            + self.start_failures
            + self.quarantined_programs
    }

    /// True when nothing was ever recovered.
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// Add another counter set into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.worker_restarts += other.worker_restarts;
        self.hangs_detected += other.hangs_detected;
        self.rounds_retried += other.rounds_retried;
        self.rounds_salvaged += other.rounds_salvaged;
        self.start_failures += other.start_failures;
        self.quarantined_programs += other.quarantined_programs;
    }

    /// The per-counter delta `self - earlier` (saturating).
    pub fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            worker_restarts: self.worker_restarts.saturating_sub(earlier.worker_restarts),
            hangs_detected: self.hangs_detected.saturating_sub(earlier.hangs_detected),
            rounds_retried: self.rounds_retried.saturating_sub(earlier.rounds_retried),
            rounds_salvaged: self.rounds_salvaged.saturating_sub(earlier.rounds_salvaged),
            start_failures: self.start_failures.saturating_sub(earlier.start_failures),
            quarantined_programs: self
                .quarantined_programs
                .saturating_sub(earlier.quarantined_programs),
        }
    }
}

/// Aggregated campaign statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Total program executions across all rounds and executors.
    pub executions: u64,
    /// Virtual fuzzing time simulated.
    pub virtual_time: Usecs,
    /// Executions per virtual second (the throughput KPI).
    pub execs_per_vsec: f64,
    /// Corpus programs admitted.
    pub corpus: usize,
    /// Distinct coverage signals.
    pub signals: usize,
    /// Programs flagged adversarial.
    pub flagged: usize,
    /// Container crashes collected.
    pub crashes: usize,
    /// Crashes that reproduced.
    pub crashes_reproduced: usize,
    /// Fatal signals delivered to workloads (coredump storms).
    pub fatal_signals: u64,
    /// Best oracle score seen in any round.
    pub best_score: f64,
    /// Supervised-recovery event counters.
    pub recovery: RecoveryStats,
    /// Faults injected by the engine's fault plan (all zero without one).
    pub faults_injected: FaultCounters,
}

impl CampaignStats {
    /// Compute statistics from a finished campaign report.
    pub fn from_report(report: &CampaignReport) -> CampaignStats {
        let mut executions = 0u64;
        let mut fatal_signals = 0u64;
        let mut virtual_time = Usecs::ZERO;
        let mut best_score = 0.0f64;
        for log in &report.logs {
            virtual_time += log.observation.window;
            best_score = best_score.max(log.score);
            executions += log.executions;
            fatal_signals += log.fatal_signals;
        }
        CampaignStats {
            rounds: report.rounds_total,
            executions,
            virtual_time,
            execs_per_vsec: safe_div(executions as f64, virtual_time.as_secs_f64()),
            corpus: report.corpus.len(),
            signals: report.coverage_signals,
            flagged: report.flagged.len(),
            crashes: report.crashes.len(),
            crashes_reproduced: report.crashes.iter().filter(|c| c.reproduced).count(),
            fatal_signals,
            best_score,
            recovery: report.recovery,
            faults_injected: report.faults_injected,
        }
    }

    /// Render the status page.
    pub fn render(&self) -> String {
        let mut page = format!(
            "TORPEDO campaign status\n\
             =======================\n\
             rounds              {}\n\
             virtual time        {}\n\
             executions          {}\n\
             execs / vsec        {:.1}\n\
             corpus programs     {}\n\
             coverage signals    {}\n\
             flagged programs    {}\n\
             crashes             {} ({} reproduced)\n\
             fatal signals       {}\n\
             best oracle score   {:.2}\n",
            self.rounds,
            self.virtual_time,
            self.executions,
            self.execs_per_vsec,
            self.corpus,
            self.signals,
            self.flagged,
            self.crashes,
            self.crashes_reproduced,
            self.fatal_signals,
            self.best_score,
        );
        if !self.recovery.is_zero() || self.faults_injected.total() > 0 {
            let r = &self.recovery;
            page.push_str(&format!(
                "faults injected     {}\n\
                 worker restarts     {}\n\
                 hangs detected      {}\n\
                 rounds retried      {} ({} salvaged)\n\
                 start failures      {}\n\
                 quarantined progs   {}\n",
                self.faults_injected.total(),
                r.worker_restarts,
                r.hangs_detected,
                r.rounds_retried,
                r.rounds_salvaged,
                r.start_failures,
                r.quarantined_programs,
            ));
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::observer::ObserverConfig;
    use crate::seeds::{default_denylist, SeedCorpus};
    use torpedo_oracle::CpuOracle;
    use torpedo_prog::build_table;

    #[test]
    fn stats_from_a_small_campaign() {
        let table = build_table();
        let seeds =
            SeedCorpus::load(&["getpid()\n", "sync()\n"], &table, &default_denylist()).unwrap();
        let config = CampaignConfig {
            observer: ObserverConfig {
                window: Usecs::from_secs(1),
                executors: 2,
                ..ObserverConfig::default()
            },
            max_rounds_per_batch: 3,
            ..CampaignConfig::default()
        };
        let report = Campaign::new(config, table)
            .run(&seeds, &CpuOracle::new())
            .unwrap();
        let stats = CampaignStats::from_report(&report);
        assert_eq!(stats.rounds, report.rounds_total);
        assert!(stats.executions > 100, "{stats:?}");
        assert!(stats.execs_per_vsec > 100.0);
        assert!(stats.virtual_time >= Usecs::from_secs(3));
        assert!(stats.best_score > 0.0);
        let page = stats.render();
        assert!(page.contains("execs / vsec"));
        assert!(page.contains("corpus programs"));
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        // A restarted worker can report counters behind the campaign's
        // accumulated totals; the delta must clamp at zero, not wrap.
        let behind = RecoveryStats {
            worker_restarts: 1,
            hangs_detected: 2,
            ..RecoveryStats::default()
        };
        let ahead = RecoveryStats {
            worker_restarts: 3,
            start_failures: 4,
            ..RecoveryStats::default()
        };
        let delta = ahead.since(&behind);
        assert_eq!(delta.worker_restarts, 2);
        assert_eq!(delta.start_failures, 4);
        assert_eq!(delta.hangs_detected, 0, "must saturate, not underflow");
        // since(self) is identically zero.
        assert!(ahead.since(&ahead).is_zero());
    }

    #[test]
    fn absorb_is_associative() {
        let a = RecoveryStats {
            worker_restarts: 1,
            rounds_retried: 5,
            ..RecoveryStats::default()
        };
        let b = RecoveryStats {
            worker_restarts: 2,
            rounds_salvaged: 3,
            ..RecoveryStats::default()
        };
        let c = RecoveryStats {
            start_failures: 7,
            quarantined_programs: 1,
            hangs_detected: 9,
            ..RecoveryStats::default()
        };
        // (a + b) + c
        let mut left = a;
        left.absorb(&b);
        left.absorb(&c);
        // a + (b + c)
        let mut bc = b;
        bc.absorb(&c);
        let mut right = a;
        right.absorb(&bc);
        assert_eq!(left, right);
        assert_eq!(left.total(), a.total() + b.total() + c.total());
    }

    #[test]
    fn empty_report_rates_are_finite() {
        let report = CampaignReport {
            rounds_total: 0,
            logs: Vec::new(),
            flagged: Vec::new(),
            crashes: Vec::new(),
            corpus: torpedo_prog::Corpus::new(),
            coverage_signals: 0,
            recovery: RecoveryStats::default(),
            faults_injected: FaultCounters::default(),
            quarantined: Vec::new(),
            forensics: Vec::new(),
        };
        let stats = CampaignStats::from_report(&report);
        assert!(stats.execs_per_vsec.is_finite());
        assert_eq!(stats.execs_per_vsec, 0.0);
        assert!(stats.best_score.is_finite());
        // Rendering a zeroed report must not panic or emit NaN.
        let page = stats.render();
        assert!(page.contains("execs / vsec        0.0"));
        assert!(!page.contains("NaN"));
    }

    #[test]
    fn saturation_section_reports_drops_and_overflow() {
        use torpedo_telemetry::{SpanKind, Telemetry};

        // Disabled telemetry: nothing to report, nothing rendered.
        assert_eq!(telemetry_saturation_section(&Telemetry::disabled()), "");

        // Enabled but unsaturated: still empty (the page only grows when
        // a bounded store actually shed data).
        let telemetry = Telemetry::enabled();
        telemetry.observe(HistogramId::ExecLatencyUs, 3);
        assert_eq!(telemetry_saturation_section(&telemetry), "");

        // Overflow the journal ring and a histogram's last bucket.
        for _ in 0..2000 {
            drop(telemetry.span(SpanKind::Round));
        }
        telemetry.observe(HistogramId::ExecLatencyUs, u64::MAX);
        let section = telemetry_saturation_section(&telemetry);
        assert!(section.contains("journal spans dropped"), "{section}");
        assert!(
            section.contains("histogram overflow  exec_latency_us 1 of 2 samples"),
            "{section}"
        );
    }

    #[test]
    fn render_golden_page() {
        let stats = CampaignStats {
            rounds: 12,
            executions: 34_567,
            virtual_time: Usecs::from_secs(60),
            execs_per_vsec: 576.1,
            corpus: 40,
            signals: 210,
            flagged: 3,
            crashes: 2,
            crashes_reproduced: 1,
            fatal_signals: 5,
            best_score: 0.87,
            recovery: RecoveryStats::default(),
            faults_injected: FaultCounters::default(),
        };
        let expected = "TORPEDO campaign status\n\
                        =======================\n\
                        rounds              12\n\
                        virtual time        60.000s\n\
                        executions          34567\n\
                        execs / vsec        576.1\n\
                        corpus programs     40\n\
                        coverage signals    210\n\
                        flagged programs    3\n\
                        crashes             2 (1 reproduced)\n\
                        fatal signals       5\n\
                        best oracle score   0.87\n";
        assert_eq!(stats.render(), expected);
        // The recovery block appears only when something was recovered.
        let mut with_recovery = stats.clone();
        with_recovery.recovery.worker_restarts = 1;
        let page = with_recovery.render();
        assert!(page.starts_with(expected));
        assert!(page.contains("worker restarts     1\n"));
    }
}
