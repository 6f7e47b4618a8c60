//! The parallel observer: Algorithm 2 with real threads, under supervision.
//!
//! §1.2's fifth contribution: "To retain SYZKALLER's inherent efficiency, we
//! introduce a series of synchronization mechanisms that allow for multiple
//! fuzzing processes to run simultaneously without compromising measurement
//! accuracy." This module runs one persistent OS thread per executor
//! through the supervised round protocol that [`crate::observer`] writes
//! once for both observers; only the released windows are threaded here.
//! Every released window is handed to its worker before any report is
//! collected, so the windows run at once, and none of them starts before
//! the round is open on every partition.
//!
//! # Partitioned kernels
//!
//! There is no shared kernel and no lock. Worker `i` runs on kernel
//! **partition** `i`: a full simulated [`Kernel`] plus its own [`Engine`]
//! hosting exactly one executor container, pinned to core `i`. The
//! observer keeps the partitions in a plain `Vec`. At release it moves
//! partition `i` by value to worker `i` together with the job, one message
//! over a capacity-1 `std::sync::mpsc::sync_channel`, and gets it back with
//! the report, a second message. So a partition has exactly one owner at
//! any instant, and the exec hot path runs on plain `&mut Kernel`. A panic
//! in a window is caught on the worker and re-raised on the observer
//! thread, as it would be in the sequential layout.
//!
//! Executor hangs are fault decisions the supervisor rolls and handles
//! itself, in both layouts: no worker ever stalls, and nothing waits on a
//! wall-clock deadline.
//!
//! Determinism is the headline guarantee. Every partition boots from the
//! same [`KernelConfig`] (identical daemon pids, identical noise seed), and
//! at measurement time the partitions are merged in canonical
//! partition-index order: secondary partitions are drained raw
//! ([`Kernel::take_round_raw`] — no noise, no RNG, no cumulative fold) and
//! replayed into the primary ([`Kernel::absorb_round_raw`]) before the
//! primary alone runs [`Kernel::finish_round`]. Only the primary's noise
//! RNG ever advances — on abandoned attempts too — so the 1-worker round
//! log is byte-identical to the pre-partition single-kernel output, and
//! N-worker output is a pure function of the configuration, independent of
//! thread interleaving. Per-partition `top` frames merge via
//! [`merge_frames`] keyed on `(pid, name)`.
//!
//! [`Kernel`]: torpedo_kernel::kernel::Kernel
//! [`Kernel::take_round_raw`]: torpedo_kernel::kernel::Kernel::take_round_raw
//! [`Kernel::absorb_round_raw`]: torpedo_kernel::kernel::Kernel::absorb_round_raw
//! [`Kernel::finish_round`]: torpedo_kernel::kernel::Kernel::finish_round
//! [`Engine`]: torpedo_runtime::engine::Engine
//! [`KernelConfig`]: torpedo_kernel::KernelConfig
//! [`merge_frames`]: torpedo_kernel::top::merge_frames

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use torpedo_kernel::time::Usecs;
use torpedo_prog::{Program, SyscallDesc};
use torpedo_runtime::engine::EngineError;
use torpedo_runtime::FaultCounters;

use crate::error::TorpedoError;
use crate::executor::{ExecReport, Executor};
use crate::observer::{ObserverConfig, Partition, RoundRecord, SlotReport, Slots, Supervisor};
use crate::stats::RecoveryStats;

/// Partition-lock wait, as perfbench reads it. Partitions move by value
/// and are never locked, so every field is always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Always zero.
    pub exec_kernel_wait_ns: u64,
    /// Always zero.
    pub measure_wait_ns: u64,
}

/// One window for a worker, with the partition it runs on.
struct Job {
    part: Partition,
    executor: Executor,
    program: Arc<Program>,
    window: Usecs,
}

/// The partition back from a window, with the window's report or the
/// payload of the panic that cut it short.
type Done = (
    Partition,
    std::thread::Result<Result<ExecReport, EngineError>>,
);

/// A persistent worker thread: one [`Job`] in, one [`Done`] out.
struct Worker {
    jobs: SyncSender<Job>,
    done: Receiver<Done>,
    handle: JoinHandle<()>,
}

/// Spawn a worker that runs Algorithm 1 ([`Executor::run_until`]) for
/// every job it is sent, until the observer hangs up.
fn spawn_worker(table: Arc<[SyscallDesc]>) -> Worker {
    let (jobs, job_rx) = sync_channel::<Job>(1);
    let (done_tx, done) = sync_channel::<Done>(1);
    let handle = std::thread::spawn(move || {
        for mut job in job_rx {
            let report = catch_unwind(AssertUnwindSafe(|| {
                let part = &mut job.part;
                job.executor.run_until(
                    &mut part.kernel,
                    &part.engine,
                    &table,
                    &job.program,
                    job.window,
                )
            }));
            if done_tx.send((job.part, report)).is_err() {
                return;
            }
        }
    });
    Worker { jobs, done, handle }
}

/// A threaded observer: same protocol and measurements as
/// [`crate::observer::Observer`], executed by concurrent workers over
/// partitioned kernels.
pub struct ParallelObserver {
    sup: Supervisor,
    workers: Vec<Worker>,
}

impl std::fmt::Debug for ParallelObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelObserver")
            .field("workers", &self.workers.len())
            .field("rounds", &self.sup.rounds)
            .field("recovery", &self.sup.recovery)
            .finish()
    }
}

impl ParallelObserver {
    /// Boot one kernel partition per executor (identical configuration, so
    /// identical boot state), deploy each container into its own partition,
    /// and spawn one worker thread per executor. Injected start failures
    /// are retried with backoff.
    ///
    /// # Errors
    /// Engine errors from container creation; [`TorpedoError::RestartBudget`]
    /// when a container cannot be started within the restart budget.
    pub fn new(
        kernel_config: torpedo_kernel::KernelConfig,
        config: ObserverConfig,
        table: impl Into<Arc<[SyscallDesc]>>,
    ) -> Result<ParallelObserver, TorpedoError> {
        // One partition per worker; at least one so measurement always has
        // a primary kernel even with an empty fleet.
        let partitions = config.executors.max(1);
        let sup = Supervisor::new(kernel_config, config, partitions, &IDLE)?;
        let table = table.into();
        let workers = (0..sup.config.executors)
            .map(|_| spawn_worker(Arc::clone(&table)))
            .collect();
        Ok(ParallelObserver { sup, workers })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Recovery events so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.sup.recovery
    }

    /// Faults injected so far. The injector is shared across partitions, so
    /// any partition's engine reports the fleet-wide aggregate.
    pub fn fault_counters(&self) -> FaultCounters {
        self.sup.parts[0].engine.fault_counters()
    }

    /// Partition-lock wait so far: always zero, since no partition is
    /// locked.
    pub fn lock_stats(&self) -> LockStats {
        LockStats::default()
    }

    /// Restart any crashed containers (between batches), as the sequential
    /// observer does. Injected start failures are retried with backoff.
    /// Each partition heals independently — no fleet-wide stall.
    ///
    /// # Errors
    /// Engine restart failures; [`TorpedoError::RestartBudget`] when the
    /// backoff budget runs out.
    pub fn restart_crashed(&mut self) -> Result<(), TorpedoError> {
        self.sup.restart_crashed(&IDLE)
    }

    /// Run one synchronized round across all workers under supervision:
    /// damaged rounds (hung workers below quorum) are retried up to the
    /// configured budget.
    ///
    /// Idle workers (when `programs` is shorter than the fleet) are
    /// released with an empty assignment, which runs nothing and reports
    /// [`ExecReport::missed`].
    ///
    /// # Errors
    /// Engine failures, exhausted restart budgets, or
    /// [`TorpedoError::RoundRetriesExhausted`] when retries run out.
    pub fn round(&mut self, programs: &[Arc<Program>]) -> Result<RoundRecord, TorpedoError> {
        let n = self.workers.len();
        let slots = Threaded {
            workers: &self.workers,
            programs,
        };
        self.sup.round(&slots, n, n.min(programs.len()))
    }
}

/// The threaded layout: slot `i` runs on its own partition `i`, which
/// travels to worker `i` with the job and comes back with the report.
struct Threaded<'r> {
    workers: &'r [Worker],
    programs: &'r [Arc<Program>],
}

/// No workers and no programs: the layout for booting and healing.
const IDLE: Threaded<'static> = Threaded {
    workers: &[],
    programs: &[],
};

impl Slots for Threaded<'_> {
    fn host(&self, i: usize) -> usize {
        i
    }

    fn run(
        &self,
        parts: &mut Vec<Partition>,
        executors: &[Executor],
        released: &[bool],
        config: &ObserverConfig,
    ) -> Vec<SlotReport> {
        let mut held: Vec<Option<Partition>> =
            std::mem::take(parts).into_iter().map(Some).collect();
        // An idle slot's empty assignment runs nothing.
        let mut results: Vec<SlotReport> = released
            .iter()
            .map(|&released| released.then(|| Ok(ExecReport::missed())))
            .collect();
        // Hand out every window before collecting any, so they run at once.
        let mut busy = Vec::new();
        for (i, worker) in self.workers.iter().enumerate() {
            let program = self.programs.get(i);
            let Some(program) = program.filter(|p| released[i] && !p.is_empty()) else {
                continue;
            };
            let job = Job {
                part: held[i].take().expect("a partition per slot"),
                executor: executors[i].clone(),
                program: Arc::clone(program),
                window: config.window,
            };
            worker
                .jobs
                .send(job)
                .expect("workers outlive their observer");
            busy.push(i);
        }
        for i in busy {
            let done = self.workers[i].done.recv();
            let (part, report) = done.expect("workers outlive their observer");
            held[i] = Some(part);
            results[i] = Some(report.unwrap_or_else(|panic| resume_unwind(panic)));
        }
        *parts = held
            .into_iter()
            .map(|p| p.expect("every partition came back"))
            .collect();
        results
    }
}

impl Drop for ParallelObserver {
    /// Hang up on each worker, then join it.
    fn drop(&mut self) {
        for Worker { jobs, handle, .. } in self.workers.drain(..) {
            drop(jobs);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{Observer, SupervisorConfig};
    use std::time::Duration;
    use torpedo_kernel::KernelConfig;
    use torpedo_prog::{build_table, deserialize};
    use torpedo_runtime::FaultConfig;

    fn config(executors: usize) -> ObserverConfig {
        ObserverConfig {
            window: Usecs::from_secs(1),
            executors,
            ..ObserverConfig::default()
        }
    }

    /// The executor-hang plan the recovery tests share: a 25% hang rate
    /// and a 50 µs backoff base.
    fn hang_config(executors: usize) -> ObserverConfig {
        ObserverConfig {
            faults: FaultConfig {
                seed: 5,
                executor_hang: 0.25,
                ..FaultConfig::default()
            },
            supervisor: SupervisorConfig {
                backoff_base: Duration::from_micros(50),
                ..SupervisorConfig::default()
            },
            ..config(executors)
        }
    }

    fn prog(text: &str, table: &[SyscallDesc]) -> Arc<Program> {
        Arc::new(deserialize(text, table).unwrap())
    }

    #[test]
    fn parallel_round_conserves_core_time() {
        let table = build_table();
        let programs = vec![
            prog("getpid()\n", &table),
            prog("uname(0x0)\n", &table),
            prog("sync()\n", &table),
        ];
        let mut obs =
            ParallelObserver::new(KernelConfig::default(), config(3), table.clone()).unwrap();
        let rec = obs.round(&programs).unwrap();
        assert_eq!(rec.reports.len(), 3);
        for (core, row) in rec.observation.per_core.iter().enumerate() {
            assert_eq!(
                row.total(),
                Usecs::from_secs(1),
                "core {core}: {}",
                row.total()
            );
        }
        for report in &rec.reports {
            assert!(report.executions > 0);
        }
    }

    #[test]
    fn parallel_matches_sequential_shape() {
        let table = build_table();
        let programs = vec![
            prog("getpid()\nuname(0x0)\n", &table),
            prog("stat(&'/etc/passwd', 0x0)\n", &table),
            prog("getuid()\n", &table),
        ];
        let mut par =
            ParallelObserver::new(KernelConfig::default(), config(3), table.clone()).unwrap();
        let mut seq = Observer::new(KernelConfig::default(), config(3)).unwrap();
        let pr = par.round(&programs).unwrap();
        let sr = seq.round(&table, &programs).unwrap();
        // Interleaving differs, but per-executor throughput must be close.
        for (p, s) in pr.reports.iter().zip(&sr.reports) {
            let ratio = p.executions as f64 / s.executions.max(1) as f64;
            assert!(
                (0.7..1.3).contains(&ratio),
                "throughput diverged: parallel {} vs sequential {}",
                p.executions,
                s.executions
            );
        }
        // Fuzz cores busy in both.
        for core in 0..3 {
            assert!(pr.observation.busy_percent(core) > 50.0);
        }
    }

    /// The tentpole determinism guarantee, observer layer: a 1-worker
    /// partitioned round is byte-identical to the sequential single-kernel
    /// observer's round — fault-free, under injected executor hangs (the
    /// supervised protocol is one function), and across a container crash
    /// healed between rounds.
    #[test]
    fn one_worker_round_matches_sequential_byte_for_byte() {
        let table = build_table();
        let crasher = ObserverConfig {
            runtime: "runsc".to_string(),
            ..config(1)
        };
        let inputs = [
            (config(1), "getpid()\nuname(0x0)\n", 3),
            (hang_config(1), "getpid()\nuname(0x0)\n", 12),
            (
                crasher,
                "open(&'/lib/x86_64-Linux-gnu/libc.so.6', 0x680002, 0x20)\n",
                3,
            ),
        ];
        for (cfg, text, rounds) in inputs {
            let programs = vec![prog(text, &table)];
            let mut par =
                ParallelObserver::new(KernelConfig::default(), cfg.clone(), table.clone()).unwrap();
            let mut seq = Observer::new(KernelConfig::default(), cfg).unwrap();
            for _ in 0..rounds {
                let pr = par.round(&programs).unwrap();
                let sr = seq.round(&table, &programs).unwrap();
                assert_eq!(format!("{pr:?}"), format!("{sr:?}"));
                par.restart_crashed().unwrap();
                seq.restart_crashed().unwrap();
            }
            assert_eq!(par.recovery(), seq.recovery(), "{text}");
        }
    }

    /// At three executors the layouts differ (one kernel vs three
    /// partitions) but the protocol does not: under the same hang plan both
    /// observers miss the same slots in every round and count the same
    /// recovery events.
    #[test]
    fn three_executors_recover_identically_from_hangs() {
        let table = build_table();
        let programs = vec![
            prog("getpid()\n", &table),
            prog("getuid()\n", &table),
            prog("uname(0x0)\n", &table),
        ];
        let mut par =
            ParallelObserver::new(KernelConfig::default(), hang_config(3), table.clone()).unwrap();
        let mut seq = Observer::new(KernelConfig::default(), hang_config(3)).unwrap();
        let missed = |rec: &RoundRecord| -> Vec<bool> {
            rec.reports.iter().map(|r| r.executions == 0).collect()
        };
        for round in 1..=12 {
            let pr = par.round(&programs).unwrap();
            let sr = seq.round(&table, &programs).unwrap();
            assert_eq!(missed(&pr), missed(&sr), "round {round}");
            assert_eq!(par.recovery(), seq.recovery(), "round {round}");
        }
        assert!(seq.recovery().hangs_detected > 0, "the plan must inject");
    }

    /// Respawns spend a per-executor budget in both observers: an executor
    /// that hangs every attempt fails the round with `RestartBudget` once
    /// its budget is spent, before the round retries run out.
    #[test]
    fn restart_budget_binds_both_observers() {
        let table = build_table();
        let mut cfg = hang_config(1);
        cfg.faults.executor_hang = 1.0;
        cfg.supervisor.max_worker_restarts = 2;
        let programs = vec![prog("getpid()\n", &table)];
        let mut par =
            ParallelObserver::new(KernelConfig::default(), cfg.clone(), table.clone()).unwrap();
        let mut seq = Observer::new(KernelConfig::default(), cfg).unwrap();
        for err in [
            par.round(&programs).unwrap_err(),
            seq.round(&table, &programs).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    TorpedoError::RestartBudget {
                        executor: 0,
                        restarts: 3
                    }
                ),
                "{err}"
            );
        }
        assert_eq!(par.recovery(), seq.recovery());
    }

    #[test]
    fn partitioned_rounds_are_deterministic_across_runs() {
        let table = build_table();
        let programs = vec![
            prog("getpid()\n", &table),
            prog("uname(0x0)\n", &table),
            prog("sync()\n", &table),
        ];
        let run = |table: &Arc<[SyscallDesc]>| {
            let mut obs =
                ParallelObserver::new(KernelConfig::default(), config(3), Arc::clone(table))
                    .unwrap();
            let mut log = String::new();
            for _ in 0..3 {
                log.push_str(&format!("{:?}\n", obs.round(&programs).unwrap()));
            }
            log
        };
        let table: Arc<[SyscallDesc]> = table.into();
        assert_eq!(
            run(&table),
            run(&table),
            "thread interleaving must not leak"
        );
    }

    #[test]
    fn multiple_rounds_reuse_the_latch() {
        let table = build_table();
        let programs = vec![prog("getpid()\n", &table)];
        let mut obs = ParallelObserver::new(KernelConfig::default(), config(1), table).unwrap();
        for expected in 1..=3 {
            let rec = obs.round(&programs).unwrap();
            assert_eq!(rec.round, expected);
        }
    }

    #[test]
    fn idle_workers_still_latch() {
        let table = build_table();
        let programs = vec![prog("getpid()\n", &table)];
        let mut obs = ParallelObserver::new(KernelConfig::default(), config(3), table).unwrap();
        let rec = obs.round(&programs).unwrap();
        assert_eq!(rec.reports.len(), 3);
        assert!(rec.reports[0].executions > 0);
        assert_eq!(rec.reports[1].executions, 0, "idle worker reports empty");
        assert_eq!(rec.reports[2].executions, 0);
    }

    #[test]
    fn crash_in_parallel_round_is_reported() {
        let table = build_table();
        let mut cfg = config(2);
        cfg.runtime = "runsc".to_string();
        let programs = vec![
            prog(
                "open(&'/lib/x86_64-Linux-gnu/libc.so.6', 0x680002, 0x20)\n",
                &table,
            ),
            prog("getpid()\n", &table),
        ];
        let mut obs = ParallelObserver::new(KernelConfig::default(), cfg, table).unwrap();
        let rec = obs.round(&programs).unwrap();
        assert!(rec.reports[0].crash.is_some());
        assert!(rec.reports[1].crash.is_none());
    }

    /// A hung worker is detected, its container respawned, and the round
    /// still produces an observation with the full fleet shape.
    #[test]
    fn hung_worker_is_detected_restarted_and_round_salvaged() {
        let table = build_table();
        let programs = vec![
            prog("getpid()\n", &table),
            prog("getuid()\n", &table),
            prog("uname(0x0)\n", &table),
        ];
        let mut obs =
            ParallelObserver::new(KernelConfig::default(), hang_config(3), table).unwrap();
        let mut salvaged_rounds = 0;
        for _ in 0..12 {
            let rec = obs.round(&programs).unwrap();
            assert_eq!(rec.reports.len(), 3, "salvaged rounds keep fleet shape");
            if rec.reports.iter().any(|r| r.executions == 0) {
                salvaged_rounds += 1;
            }
        }
        let rec = obs.recovery();
        assert!(rec.hangs_detected > 0, "25% hang rate over 12 rounds");
        assert!(rec.worker_restarts > 0);
        assert!(salvaged_rounds > 0);
        // The fleet is whole again: a fault-free round misses no slot.
        obs.sup.faults = None;
        let before = obs.recovery();
        let rec = obs.round(&programs).unwrap();
        assert_eq!(rec.reports.len(), 3);
        assert!(rec.reports.iter().all(|r| r.executions > 0));
        assert_eq!(obs.recovery(), before);
        assert_eq!(obs.workers(), 3);
    }

    /// Without a fault plan a round records no recovery events and the
    /// engines count no injected faults.
    #[test]
    fn fault_free_recovery_counters_are_zero() {
        let table = build_table();
        let programs = vec![prog("getpid()\n", &table)];
        let mut obs = ParallelObserver::new(KernelConfig::default(), config(1), table).unwrap();
        obs.round(&programs).unwrap();
        assert!(obs.recovery().is_zero());
        assert_eq!(obs.fault_counters().total(), 0);
    }
}
