//! The startup-time oracle — the §5.1 future-work metric.
//!
//! "Another extremely relevant metric for container systems is startup
//! time, which could be monitored while workloads are running to search
//! for correlation. How to adequately design an oracle to measure this
//! metric while taking into account known phenomena like cold start remains
//! a task for the future." This implementation takes the obvious design:
//! maintain an exponential moving baseline of warm startup times, exempt
//! the first (cold-start) samples, and flag when a warm startup exceeds the
//! baseline by a configurable factor.

use torpedo_kernel::time::Usecs;

use crate::observation::Observation;
use crate::violation::{HeuristicKind, Violation};
use crate::Oracle;

/// Configuration for the startup oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupConfig {
    /// Samples treated as cold starts and excluded from the baseline.
    pub cold_start_samples: usize,
    /// A warm startup above `baseline * degradation_factor` flags.
    pub degradation_factor: f64,
    /// Exponential-moving-average weight for new samples.
    pub ema_alpha: f64,
}

impl Default for StartupConfig {
    fn default() -> Self {
        StartupConfig {
            cold_start_samples: 2,
            degradation_factor: 2.0,
            ema_alpha: 0.25,
        }
    }
}

/// The startup-time oracle. Stateful: it accumulates a baseline across
/// rounds, so one instance should live for a whole campaign.
#[derive(Debug, Clone, Default)]
pub struct StartupOracle {
    config: StartupConfig,
    baseline_us: Option<f64>,
    samples_seen: usize,
    last_violations: Vec<Violation>,
}

impl StartupOracle {
    /// An oracle with default configuration.
    pub fn new() -> StartupOracle {
        StartupOracle::default()
    }

    /// Feed startup samples (mutates the baseline); returns violations for
    /// the degraded warm samples.
    pub fn ingest(&mut self, samples: &[Usecs]) -> Vec<Violation> {
        let mut violations = Vec::new();
        for sample in samples {
            let us = sample.as_micros() as f64;
            self.samples_seen += 1;
            if self.samples_seen <= self.config.cold_start_samples {
                // Cold starts seed the baseline but never flag.
                self.baseline_us = Some(match self.baseline_us {
                    Some(b) => b.min(us),
                    None => us,
                });
                continue;
            }
            let baseline = self.baseline_us.get_or_insert(us);
            if us > *baseline * self.config.degradation_factor {
                violations.push(Violation {
                    heuristic: HeuristicKind::StartupDegraded,
                    core: None,
                    measured: us / 1000.0,
                    threshold: *baseline * self.config.degradation_factor / 1000.0,
                });
            } else {
                // Healthy warm sample: fold into the baseline.
                *baseline = *baseline * (1.0 - self.config.ema_alpha) + us * self.config.ema_alpha;
            }
        }
        self.last_violations = violations.clone();
        violations
    }

    /// The current warm baseline, if established.
    pub fn baseline(&self) -> Option<Usecs> {
        self.baseline_us.map(|us| Usecs(us as u64))
    }
}

impl Oracle for StartupOracle {
    fn name(&self) -> &'static str {
        "startup"
    }

    /// Score: the worst startup this round relative to baseline (1.0 =
    /// nominal). Higher is more adversarial.
    fn score(&self, obs: &Observation) -> f64 {
        let Some(baseline) = self.baseline_us else {
            return 0.0;
        };
        obs.startup_times
            .iter()
            .map(|s| s.as_micros() as f64 / baseline)
            .fold(0.0, f64::max)
    }

    fn flag(&self, obs: &Observation) -> Vec<Violation> {
        // The immutable trait path can only judge against the established
        // baseline; campaigns use `ingest` to also update it.
        let Some(baseline) = self.baseline_us else {
            return Vec::new();
        };
        obs.startup_times
            .iter()
            .filter(|s| s.as_micros() as f64 > baseline * self.config.degradation_factor)
            .map(|s| Violation {
                heuristic: HeuristicKind::StartupDegraded,
                core: None,
                measured: s.as_micros() as f64 / 1000.0,
                threshold: baseline * self.config.degradation_factor / 1000.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_starts_never_flag() {
        let mut oracle = StartupOracle::new();
        // First samples are slow (cold) but exempt.
        let v = oracle.ingest(&[Usecs::from_millis(900), Usecs::from_millis(850)]);
        assert!(v.is_empty());
        assert!(oracle.baseline().is_some());
    }

    #[test]
    fn warm_degradation_flags() {
        let mut oracle = StartupOracle::new();
        oracle.ingest(&[Usecs::from_millis(400), Usecs::from_millis(300)]);
        // Warm samples near baseline: fine.
        assert!(oracle.ingest(&[Usecs::from_millis(320)]).is_empty());
        // A 3x degradation: flagged.
        let v = oracle.ingest(&[Usecs::from_millis(950)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].heuristic, HeuristicKind::StartupDegraded);
    }

    #[test]
    fn baseline_tracks_healthy_samples() {
        let mut oracle = StartupOracle::new();
        oracle.ingest(&[Usecs::from_millis(400), Usecs::from_millis(400)]);
        for _ in 0..20 {
            oracle.ingest(&[Usecs::from_millis(200)]);
        }
        let baseline = oracle.baseline().unwrap();
        assert!(
            baseline < Usecs::from_millis(260),
            "baseline {baseline} did not converge down"
        );
    }

    #[test]
    fn trait_flag_uses_observation_samples() {
        let mut oracle = StartupOracle::new();
        oracle.ingest(&[Usecs::from_millis(300), Usecs::from_millis(300)]);
        let obs = Observation {
            window: Usecs::from_secs(5),
            per_core: Vec::new(),
            top: None,
            containers: Vec::new(),
            sidecar_core: None,
            startup_times: vec![Usecs::from_millis(2000)],
        };
        let v = oracle.flag(&obs);
        assert_eq!(v.len(), 1);
        assert!(oracle.score(&obs) > 2.0);
    }
}
