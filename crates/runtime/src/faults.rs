//! Deterministic fault injection for the engine's I/O callsites.
//!
//! FoundationDB-style simulation testing: every fault decision is a pure
//! function of `(seed, fault kind, scope, per-scope sequence number)`, so a
//! campaign replayed with the same seeds takes *exactly* the same faults —
//! regardless of thread scheduling — and a recovery bug found once can be
//! reproduced forever.
//!
//! The engine holds an `Option<Arc<dyn FaultInjector>>`; production runs
//! leave it `None` and pay nothing. Tests and robustness campaigns install
//! a [`FaultPlan`] built from a [`FaultConfig`] with per-kind rates.
//!
//! # Examples
//! ```
//! use torpedo_runtime::faults::{FaultConfig, FaultInjector, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new(FaultConfig {
//!     seed: 7,
//!     start_fail: 1.0,
//!     ..FaultConfig::default()
//! });
//! assert!(plan.roll(FaultKind::StartFail, "fuzz-0"));
//! assert!(!plan.roll(FaultKind::ContainerCrash, "fuzz-0"));
//! assert_eq!(plan.counters().start_fail, 1);
//! ```

use std::collections::HashMap;
use std::sync::Mutex;

/// The fault classes the engine knows how to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Container creation (or restart) fails before the executor spawns.
    StartFail,
    /// Writing the container's cgroup limits fails during creation.
    CgroupWriteFail,
    /// The container dies mid-window as if under a runtime bug.
    ContainerCrash,
    /// The runtime returns a transient exec error instead of an outcome.
    ExecError,
    /// The executor hangs before signalling ready, or instead of
    /// reporting.
    ExecutorHang,
    /// A campaign checkpoint write dies mid-rename: the temp file lands
    /// but the atomic rename to the final name never happens, leaving the
    /// previous good checkpoint in place.
    CheckpointWriteFail,
}

impl FaultKind {
    /// All kinds, in a stable order (counter layout, reports).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::StartFail,
        FaultKind::CgroupWriteFail,
        FaultKind::ContainerCrash,
        FaultKind::ExecError,
        FaultKind::ExecutorHang,
        FaultKind::CheckpointWriteFail,
    ];

    /// Stable name used in logs and hashing.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::StartFail => "start-fail",
            FaultKind::CgroupWriteFail => "cgroup-write-fail",
            FaultKind::ContainerCrash => "container-crash",
            FaultKind::ExecError => "exec-error",
            FaultKind::ExecutorHang => "executor-hang",
            FaultKind::CheckpointWriteFail => "checkpoint-write-fail",
        }
    }

    fn tag(&self) -> u64 {
        match self {
            FaultKind::StartFail => 0x51,
            FaultKind::CgroupWriteFail => 0x52,
            FaultKind::ContainerCrash => 0x53,
            FaultKind::ExecError => 0x54,
            FaultKind::ExecutorHang => 0x55,
            FaultKind::CheckpointWriteFail => 0x56,
        }
    }
}

/// Per-kind injection rates plus the seed that fixes the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the decision hash; same seed + same call sequence per
    /// scope ⇒ same faults.
    pub seed: u64,
    /// Probability a container start fails.
    pub start_fail: f64,
    /// Probability the cgroup write during creation fails.
    pub cgroup_write_fail: f64,
    /// Probability an exec crashes the container mid-window.
    pub container_crash: f64,
    /// Probability an exec returns a transient runtime error.
    pub exec_error: f64,
    /// Probability an executor hangs at a round stage (rolled once for
    /// ready and once for report).
    pub executor_hang: f64,
    /// Probability a due campaign checkpoint write dies mid-rename.
    pub checkpoint_write_fail: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            start_fail: 0.0,
            cgroup_write_fail: 0.0,
            container_crash: 0.0,
            exec_error: 0.0,
            executor_hang: 0.0,
            checkpoint_write_fail: 0.0,
        }
    }
}

impl FaultConfig {
    /// True when every rate is zero — the production configuration.
    pub fn is_noop(&self) -> bool {
        FaultKind::ALL.iter().all(|k| self.rate(*k) <= 0.0)
    }

    /// The configured rate for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::StartFail => self.start_fail,
            FaultKind::CgroupWriteFail => self.cgroup_write_fail,
            FaultKind::ContainerCrash => self.container_crash,
            FaultKind::ExecError => self.exec_error,
            FaultKind::ExecutorHang => self.executor_hang,
            FaultKind::CheckpointWriteFail => self.checkpoint_write_fail,
        }
    }
}

/// Count of faults actually injected, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected container-start failures.
    pub start_fail: u64,
    /// Injected cgroup-write failures.
    pub cgroup_write_fail: u64,
    /// Injected mid-window container crashes.
    pub container_crash: u64,
    /// Injected transient exec errors.
    pub exec_error: u64,
    /// Injected executor hangs.
    pub executor_hang: u64,
    /// Injected checkpoint-write failures (counted by the campaign
    /// driver's checkpoint ledger, not the engine).
    pub checkpoint_write_fail: u64,
}

impl FaultCounters {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.start_fail
            + self.cgroup_write_fail
            + self.container_crash
            + self.exec_error
            + self.executor_hang
            + self.checkpoint_write_fail
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::StartFail => self.start_fail += 1,
            FaultKind::CgroupWriteFail => self.cgroup_write_fail += 1,
            FaultKind::ContainerCrash => self.container_crash += 1,
            FaultKind::ExecError => self.exec_error += 1,
            FaultKind::ExecutorHang => self.executor_hang += 1,
            FaultKind::CheckpointWriteFail => self.checkpoint_write_fail += 1,
        }
    }
}

/// A source of deterministic fault decisions.
///
/// Implementations must be decided purely by `(kind, scope, call number
/// within that scope)` so concurrent callers on different scopes cannot
/// perturb each other's schedules.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Should the next operation of `kind` in `scope` fail?
    fn roll(&self, kind: FaultKind, scope: &str) -> bool;

    /// Faults injected so far.
    fn counters(&self) -> FaultCounters;
}

/// The standard injector: seeded, per-scope sequenced, thread-safe.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    state: Mutex<PlanState>,
}

#[derive(Debug, Default)]
struct PlanState {
    /// Next sequence number per `(kind, scope)` stream.
    seq: HashMap<(FaultKind, String), u64>,
    injected: FaultCounters,
}

impl FaultPlan {
    /// Build a plan from `config`.
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            state: Mutex::new(PlanState::default()),
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }
}

impl FaultInjector for FaultPlan {
    fn roll(&self, kind: FaultKind, scope: &str) -> bool {
        let rate = self.config.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let mut state = self.state.lock().expect("fault plan lock");
        let seq = state
            .seq
            .entry((kind, scope.to_string()))
            .and_modify(|n| *n += 1)
            .or_insert(0);
        let draw = decision_draw(self.config.seed, kind, scope, *seq);
        let hit = draw < rate;
        if hit {
            state.injected.bump(kind);
        }
        hit
    }

    fn counters(&self) -> FaultCounters {
        self.state.lock().expect("fault plan lock").injected
    }
}

/// splitmix64 finalizer — the avalanche step that turns structured inputs
/// into uniform bits.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic checkpoint-write-fault decision, keyed only by the fault
/// seed and the global round number the checkpoint is due at.
///
/// Unlike [`FaultPlan::roll`], this is a *pure* function with no sequence
/// state: a resumed campaign that replays rounds without re-writing their
/// checkpoints still computes the same decisions (and hence the same fault
/// counters) as the uninterrupted run — the property the byte-identical
/// resume contract depends on.
pub fn checkpoint_fault_hit(config: &FaultConfig, round: u64) -> bool {
    let rate = config.rate(FaultKind::CheckpointWriteFail);
    if rate <= 0.0 {
        return false;
    }
    decision_draw(
        config.seed,
        FaultKind::CheckpointWriteFail,
        "checkpoint",
        round,
    ) < rate
}

/// Uniform draw in `[0, 1)` keyed by the full decision identity.
fn decision_draw(seed: u64, kind: FaultKind, scope: &str, seq: u64) -> f64 {
    let mut h = mix(seed ^ 0x9E37_79B9_7F4A_7C15);
    h = mix(h ^ kind.tag());
    for chunk in scope.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    h = mix(h ^ seq.wrapping_add(1));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            start_fail: rate,
            cgroup_write_fail: rate,
            container_crash: rate,
            exec_error: rate,
            executor_hang: rate,
            checkpoint_write_fail: rate,
        })
    }

    #[test]
    fn rate_zero_never_fires_and_counts_nothing() {
        let p = plan(42, 0.0);
        for kind in FaultKind::ALL {
            for _ in 0..64 {
                assert!(!p.roll(kind, "fuzz-0"));
            }
        }
        assert_eq!(p.counters().total(), 0);
    }

    #[test]
    fn rate_one_always_fires() {
        let p = plan(42, 1.0);
        for _ in 0..16 {
            assert!(p.roll(FaultKind::ContainerCrash, "fuzz-1"));
        }
        assert_eq!(p.counters().container_crash, 16);
        assert_eq!(p.counters().total(), 16);
    }

    #[test]
    fn same_seed_same_stream() {
        let a = plan(0xDEAD_BEEF, 0.3);
        let b = plan(0xDEAD_BEEF, 0.3);
        for i in 0..256 {
            let scope = format!("fuzz-{}", i % 3);
            assert_eq!(
                a.roll(FaultKind::ExecError, &scope),
                b.roll(FaultKind::ExecError, &scope),
                "divergence at roll {i}"
            );
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = plan(1, 0.5);
        let b = plan(2, 0.5);
        let same = (0..256)
            .filter(|_| {
                a.roll(FaultKind::StartFail, "fuzz-0") == b.roll(FaultKind::StartFail, "fuzz-0")
            })
            .count();
        assert!(same < 256, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn scopes_are_independent_streams() {
        // Stream for scope B must not depend on how often scope A rolled —
        // this is what makes the schedule immune to thread interleaving.
        let reference = plan(99, 0.4);
        let b_only: Vec<bool> = (0..64)
            .map(|_| reference.roll(FaultKind::ExecutorHang, "fuzz-b"))
            .collect();

        let interleaved = plan(99, 0.4);
        let mut b_seen = Vec::new();
        for i in 0..64 {
            // Arbitrary extra traffic on other scopes between B's rolls.
            for _ in 0..(i % 5) {
                interleaved.roll(FaultKind::ExecutorHang, "fuzz-a");
                interleaved.roll(FaultKind::ExecError, "fuzz-b");
            }
            b_seen.push(interleaved.roll(FaultKind::ExecutorHang, "fuzz-b"));
        }
        assert_eq!(b_only, b_seen);
    }

    #[test]
    fn mid_rate_fires_sometimes() {
        let p = plan(7, 0.5);
        let hits = (0..512)
            .filter(|_| p.roll(FaultKind::ContainerCrash, "fuzz-0"))
            .count();
        assert!(
            hits > 128 && hits < 384,
            "rate 0.5 produced {hits}/512 hits"
        );
        assert_eq!(p.counters().container_crash, hits as u64);
    }

    #[test]
    fn noop_detection() {
        assert!(FaultConfig::default().is_noop());
        assert!(!FaultConfig {
            executor_hang: 0.01,
            ..FaultConfig::default()
        }
        .is_noop());
    }

    #[test]
    fn kind_names_are_stable() {
        let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "start-fail",
                "cgroup-write-fail",
                "container-crash",
                "exec-error",
                "executor-hang",
                "checkpoint-write-fail"
            ]
        );
    }

    #[test]
    fn checkpoint_fault_is_pure_and_rate_gated() {
        let config = FaultConfig {
            seed: 11,
            checkpoint_write_fail: 0.5,
            ..FaultConfig::default()
        };
        // Stateless: the same round always decides the same way, however
        // often (or in whatever order) it is consulted.
        let first: Vec<bool> = (0..64).map(|r| checkpoint_fault_hit(&config, r)).collect();
        let again: Vec<bool> = (0..64).map(|r| checkpoint_fault_hit(&config, r)).collect();
        assert_eq!(first, again);
        let hits = first.iter().filter(|h| **h).count();
        assert!(hits > 8 && hits < 56, "rate 0.5 produced {hits}/64 hits");
        // Zero rate never fires.
        let off = FaultConfig {
            seed: 11,
            ..FaultConfig::default()
        };
        assert!((0..64).all(|r| !checkpoint_fault_hit(&off, r)));
    }
}
