//! Fleet health detectors (DESIGN.md §5g): pure functions over the
//! deterministic per-campaign statistics the scheduler absorbs at
//! generation barriers.
//!
//! Detectors never read wall-clock, telemetry histograms, or any other
//! nondeterministic source — two fleets with the same campaign set and
//! any worker count raise byte-identical findings at the same
//! generations. Each finding is emitted as a `health:<detector>` event
//! on the fleet stream, rendered on the `/health` endpoint, exported as
//! a `torpedo_fleet_health_findings` Prometheus gauge, and annotated
//! onto the fleet report.

/// The health-detector vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthDetector {
    /// No new coverage for N consecutive executed windows.
    CoveragePlateau,
    /// A window executed rounds but averaged fewer executions per round
    /// than the configured floor.
    ThroughputStall,
    /// A checkpointing campaign has run too many rounds past its last
    /// observed checkpoint.
    CheckpointLag,
    /// A runnable campaign has been left unscheduled for too many
    /// generations (the bandit starved it short of the hard bound).
    BanditStarvation,
}

impl HealthDetector {
    /// Every detector, in stable order.
    pub const ALL: [HealthDetector; 4] = [
        HealthDetector::CoveragePlateau,
        HealthDetector::ThroughputStall,
        HealthDetector::CheckpointLag,
        HealthDetector::BanditStarvation,
    ];

    /// The wire name: the `<detector>` payload of a `health:<detector>`
    /// event and the `detector` label of the Prometheus gauge.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthDetector::CoveragePlateau => "coverage-plateau",
            HealthDetector::ThroughputStall => "throughput-stall",
            HealthDetector::CheckpointLag => "checkpoint-lag",
            HealthDetector::BanditStarvation => "bandit-starvation",
        }
    }
}

/// Detector thresholds. All comparisons are over barrier-absorbed
/// statistics; the defaults suit the workspace's small deterministic
/// fleets and are deliberately conservative.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive executed windows without new coverage before
    /// [`HealthDetector::CoveragePlateau`] fires.
    pub plateau_windows: u64,
    /// Minimum executions per round; a window below it raises
    /// [`HealthDetector::ThroughputStall`].
    pub min_execs_per_round: u64,
    /// Rounds past the last observed checkpoint before
    /// [`HealthDetector::CheckpointLag`] fires (checkpointing campaigns
    /// only).
    pub checkpoint_lag_rounds: u64,
    /// Generations a runnable campaign may go unscheduled before
    /// [`HealthDetector::BanditStarvation`] fires.
    pub starvation_generations: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            plateau_windows: 4,
            min_execs_per_round: 1,
            checkpoint_lag_rounds: 64,
            starvation_generations: 8,
        }
    }
}

/// One campaign's barrier-absorbed statistics, as the detectors see
/// them. The fleet fills this from its entry table; tests can build it
/// directly.
#[derive(Debug, Clone, Default)]
pub struct HealthSample {
    /// Total rounds executed.
    pub rounds: u64,
    /// Execution windows granted so far.
    pub windows: u64,
    /// Rounds executed in the last absorbed window.
    pub w_rounds: u64,
    /// Executions completed in the last absorbed window.
    pub w_execs: u64,
    /// Consecutive executed windows with zero new coverage.
    pub zero_cov_windows: u64,
    /// Round of the campaign's last checkpoint (due and not faulted,
    /// replayed rounds included), when it checkpoints at all.
    pub last_checkpoint_round: Option<u64>,
    /// Whether the campaign has a checkpoint policy (lag is undefined
    /// otherwise).
    pub checkpointing: bool,
    /// Current scheduler generation.
    pub generation: u64,
    /// Generation the campaign was last granted a window.
    pub last_scheduled: u64,
}

/// One raised finding: the detector plus a deterministic human-readable
/// detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// Which detector fired.
    pub detector: HealthDetector,
    /// Deterministic detail (no wall-clock, no addresses).
    pub detail: String,
}

/// Evaluate every detector against one campaign's sample. Findings come
/// back in [`HealthDetector::ALL`] order — the fleet emits them in this
/// order so the event stream is byte-stable.
pub fn evaluate(config: &HealthConfig, sample: &HealthSample) -> Vec<HealthFinding> {
    let mut findings = Vec::new();
    if sample.windows >= config.plateau_windows && sample.zero_cov_windows >= config.plateau_windows
    {
        findings.push(HealthFinding {
            detector: HealthDetector::CoveragePlateau,
            detail: format!(
                "no new coverage for {} consecutive windows",
                sample.zero_cov_windows
            ),
        });
    }
    if sample.w_rounds > 0 && sample.w_execs < config.min_execs_per_round * sample.w_rounds {
        findings.push(HealthFinding {
            detector: HealthDetector::ThroughputStall,
            detail: format!(
                "last window averaged {}/{} executions per round",
                sample.w_execs, sample.w_rounds
            ),
        });
    }
    if sample.checkpointing {
        let behind = sample
            .rounds
            .saturating_sub(sample.last_checkpoint_round.unwrap_or(0));
        if sample.rounds > 0 && behind > config.checkpoint_lag_rounds {
            findings.push(HealthFinding {
                detector: HealthDetector::CheckpointLag,
                detail: format!("{behind} rounds past the last checkpoint"),
            });
        }
    }
    let idle = sample.generation.saturating_sub(sample.last_scheduled);
    if idle >= config.starvation_generations {
        findings.push(HealthFinding {
            detector: HealthDetector::BanditStarvation,
            detail: format!("unscheduled for {idle} generations"),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_sample_raises_nothing() {
        let sample = HealthSample {
            rounds: 40,
            windows: 10,
            w_rounds: 4,
            w_execs: 16,
            zero_cov_windows: 1,
            last_checkpoint_round: Some(32),
            checkpointing: true,
            generation: 10,
            last_scheduled: 9,
        };
        assert!(evaluate(&HealthConfig::default(), &sample).is_empty());
    }

    #[test]
    fn each_detector_fires_on_its_own_condition() {
        let config = HealthConfig::default();
        let plateau = HealthSample {
            windows: 4,
            zero_cov_windows: 4,
            ..Default::default()
        };
        assert_eq!(
            evaluate(&config, &plateau)[0].detector,
            HealthDetector::CoveragePlateau
        );
        let stall = HealthSample {
            w_rounds: 4,
            w_execs: 0,
            ..Default::default()
        };
        assert_eq!(
            evaluate(&config, &stall)[0].detector,
            HealthDetector::ThroughputStall
        );
        let lag = HealthSample {
            rounds: 100,
            checkpointing: true,
            last_checkpoint_round: Some(10),
            ..Default::default()
        };
        assert_eq!(
            evaluate(&config, &lag)[0].detector,
            HealthDetector::CheckpointLag
        );
        // Without a checkpoint policy the same sample is healthy.
        let no_ckpt = HealthSample {
            checkpointing: false,
            ..lag.clone()
        };
        assert!(evaluate(&config, &no_ckpt).is_empty());
        let starved = HealthSample {
            generation: 20,
            last_scheduled: 2,
            ..Default::default()
        };
        assert_eq!(
            evaluate(&config, &starved)[0].detector,
            HealthDetector::BanditStarvation
        );
    }

    #[test]
    fn findings_come_back_in_stable_detector_order() {
        let config = HealthConfig::default();
        let sample = HealthSample {
            rounds: 100,
            windows: 6,
            w_rounds: 4,
            w_execs: 0,
            zero_cov_windows: 6,
            last_checkpoint_round: None,
            checkpointing: true,
            generation: 30,
            last_scheduled: 1,
        };
        let detectors: Vec<HealthDetector> = evaluate(&config, &sample)
            .into_iter()
            .map(|f| f.detector)
            .collect();
        assert_eq!(detectors, HealthDetector::ALL.to_vec());
    }
}
