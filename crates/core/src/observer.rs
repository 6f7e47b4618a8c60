//! The Observer (§3.4, Algorithm 2): rounds, synchronized execution, and
//! measurement — with supervised recovery.
//!
//! The observer delegates workloads to executors, releases every
//! executor's window at once so it coincides with the measurement window,
//! takes the `/proc/stat` and `top` measurements, and logs round results
//! for offline oracle flagging.
//!
//! The supervised round is written once, in `Supervisor`, for both
//! observers. They differ only in their `Slots` layout: which partition
//! hosts each slot, and how the released windows run. [`Observer`] runs
//! every window inline, in executor order, on one kernel that hosts all its
//! executors; [`crate::parallel::ParallelObserver`] moves each executor's
//! own kernel partition to a worker thread for the window.
//!
//! Robustness: an executor hang is a fault decision rolled before the
//! round, so recovery is deterministic and no stage waits on a clock. A
//! slot that hangs before ready is respawned before the window opens; one
//! that hangs before reporting runs its window, loses its report, and is
//! respawned after. A respawn replaces the container within a per-executor
//! restart budget; the round is salvaged when at least a quorum of
//! executors still report, and closed and retried from scratch otherwise.
//! All recovery events are counted in [`RecoveryStats`].

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;

use torpedo_kernel::kernel::Kernel;
use torpedo_kernel::procfs::ProcStatSnapshot;
use torpedo_kernel::time::Usecs;
use torpedo_kernel::top::{merge_frames, TopSampler};
use torpedo_kernel::{DeferralEvent, KernelConfig};
use torpedo_oracle::observation::{ContainerInfo, Observation};
use torpedo_prog::{Program, SyscallDesc};
use torpedo_runtime::engine::{ContainerId, ContainerState, Engine, EngineError};
use torpedo_runtime::faults::{FaultConfig, FaultInjector, FaultKind, FaultPlan};
use torpedo_runtime::spec::ContainerSpec;
use torpedo_runtime::FaultCounters;
use torpedo_telemetry::{CounterId, HistogramId, SpanKind, Telemetry};

use crate::error::{RoundStage, TorpedoError};
use crate::executor::{ExecReport, Executor, GlueCost};
use crate::stats::RecoveryStats;

/// Restart, retry and quorum policy for the supervised observer fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Restart budget per worker; exceeding it is a hard
    /// [`TorpedoError::RestartBudget`] failure.
    pub max_worker_restarts: u32,
    /// First restart backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How many times a damaged round is retried before
    /// [`TorpedoError::RoundRetriesExhausted`].
    pub round_retries: u32,
    /// Fraction of the fleet that must report for a round to be salvaged
    /// rather than retried.
    pub quorum: f64,
    /// Executor-killing crashes a program may cause before it is
    /// quarantined by the campaign driver.
    pub quarantine_threshold: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_worker_restarts: 16,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            round_retries: 5,
            quorum: 0.5,
            quarantine_threshold: 3,
        }
    }
}

/// Observer configuration.
#[derive(Debug, Clone)]
pub struct ObserverConfig {
    /// Round window `T` (§4.2 uses 5 s; §3.4 recommends 3–5 s).
    pub window: Usecs,
    /// Number of parallel executors (§4.2 uses 3).
    pub executors: usize,
    /// The container runtime to deploy (`"runc"`, `"runsc"`, `"kata"`).
    pub runtime: String,
    /// Enable the executor collider pass.
    pub collider: bool,
    /// Entry-point overhead model.
    pub glue: GlueCost,
    /// `--cpus` quota per container.
    pub cpus_per_container: f64,
    /// `--memory` limit per executor container. `None` (the default)
    /// deploys unconstrained containers, matching the paper's CPU-focused
    /// evaluation; set it to put the memory cgroup under pressure so the
    /// writeback/kswapd deferral channel (and the memory oracle) have a
    /// limit to push against.
    pub memory_bytes_per_container: Option<u64>,
    /// Deterministic fault injection; all-zero rates (the default) install
    /// no injector and cost nothing.
    pub faults: FaultConfig,
    /// Restart / retry / quorum policy.
    pub supervisor: SupervisorConfig,
    /// Span/metrics sink. [`Telemetry::disabled`] (the default) is a no-op
    /// handle: no clocks, no allocation, one branch per call site.
    pub telemetry: Telemetry,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            window: Usecs::from_secs(5),
            executors: 3,
            runtime: "runc".to_string(),
            collider: true,
            glue: GlueCost::fuzzing(),
            cpus_per_container: 1.0,
            memory_bytes_per_container: None,
            faults: FaultConfig::default(),
            supervisor: SupervisorConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The record of one observation round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round sequence number.
    pub round: u64,
    /// What the oracles see.
    pub observation: Observation,
    /// Per-executor execution reports, in executor order. An executor that
    /// missed the round (a hang) reports [`ExecReport::missed`].
    pub reports: Vec<ExecReport>,
    /// Ground-truth deferral events — for the confirmation stage only,
    /// never handed to oracles.
    pub deferrals: Vec<DeferralEvent>,
}

/// The spec every executor container is created with.
fn executor_spec(config: &ObserverConfig, i: usize) -> ContainerSpec {
    let spec = ContainerSpec::new(&format!("fuzz-{i}"))
        .runtime_name(&config.runtime)
        .cpuset_cpus(&[i])
        .cpus(config.cpus_per_container);
    match config.memory_bytes_per_container {
        Some(bytes) => spec.memory(bytes),
        None => spec,
    }
}

/// Run `start` (a container create or restart), retrying injected or
/// transient start failures with exponential backoff; past the restart
/// budget, executor `executor` fails with [`TorpedoError::RestartBudget`].
fn retry_start<T>(
    policy: &SupervisorConfig,
    recovery: &mut RecoveryStats,
    executor: usize,
    mut start: impl FnMut() -> Result<T, EngineError>,
) -> Result<T, TorpedoError> {
    let mut delay = policy.backoff_base;
    let mut attempts = 0u32;
    loop {
        match start() {
            Ok(started) => return Ok(started),
            Err(EngineError::StartFailed(_) | EngineError::CgroupWriteFailed(_)) => {
                recovery.start_failures += 1;
                attempts += 1;
                if attempts > policy.max_worker_restarts {
                    return Err(TorpedoError::RestartBudget {
                        executor,
                        restarts: attempts,
                    });
                }
                std::thread::sleep(delay);
                delay = (delay * 2).min(policy.backoff_cap);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// One kernel partition: a full simulated kernel plus the engine hosting
/// its executor containers. The sequential observer has one hosting every
/// executor; the threaded observer has one per executor.
#[derive(Debug)]
pub(crate) struct Partition {
    pub(crate) kernel: Kernel,
    pub(crate) engine: Engine,
}

/// The executor-hang faults rolled for one slot before a round attempt.
#[derive(Debug, Clone, Copy, Default)]
struct Hang {
    /// Hang before signalling ready: the slot sits the round out.
    ready: bool,
    /// Run the window, then hang instead of reporting.
    report: bool,
}

/// A slot's window result, or `None` for a slot held back.
pub(crate) type SlotReport = Option<Result<ExecReport, EngineError>>;

/// What the two observers do differently: which partition hosts each slot,
/// and how the released windows run.
pub(crate) trait Slots {
    /// The partition hosting slot `i`'s container.
    fn host(&self, i: usize) -> usize;
    /// Run every `released` slot's window over `parts`, with slot `i`
    /// driven by `executors[i]`; results come back in slot order. A panic
    /// in a window propagates to the caller.
    fn run(
        &self,
        parts: &mut Vec<Partition>,
        executors: &[Executor],
        released: &[bool],
        config: &ObserverConfig,
    ) -> Vec<SlotReport>;
}

/// The supervised round protocol, and the state both observers keep the
/// same way: policy, fault schedule, recovery counters, the kernel
/// partitions, the executors, per-executor restart budgets and one `top`
/// sampler per partition.
#[derive(Debug)]
pub(crate) struct Supervisor {
    pub(crate) config: ObserverConfig,
    pub(crate) faults: Option<Arc<dyn FaultInjector>>,
    pub(crate) recovery: RecoveryStats,
    pub(crate) rounds: u64,
    /// The kernel partitions, primary first.
    pub(crate) parts: Vec<Partition>,
    /// One executor per slot, in slot order.
    executors: Vec<Executor>,
    /// Respawns each executor has spent of `max_worker_restarts`.
    restarts: Vec<u32>,
    samplers: Vec<TopSampler>,
}

impl Supervisor {
    /// Boot `partitions` kernels from one configuration (so identical boot
    /// state) and deploy `config.executors` executors, each into the
    /// partition `slots` hosts it in. The fault injector exists only when
    /// some rate is nonzero; every partition shares its `Arc`, so fault
    /// decisions stay a pure per-scope function of the seed and counters
    /// aggregate fleet-wide.
    ///
    /// # Errors
    /// Engine errors from container creation; [`TorpedoError::RestartBudget`]
    /// when a container cannot be started within the restart budget.
    pub(crate) fn new(
        kernel_config: KernelConfig,
        config: ObserverConfig,
        partitions: usize,
        slots: &impl Slots,
    ) -> Result<Supervisor, TorpedoError> {
        let faults = (!config.faults.is_noop())
            .then(|| Arc::new(FaultPlan::new(config.faults.clone())) as Arc<dyn FaultInjector>);
        let parts = (0..partitions)
            .map(|_| {
                let mut kernel = Kernel::new(kernel_config.clone());
                let mut engine = Engine::new(&mut kernel);
                engine.set_telemetry(config.telemetry.clone());
                if let Some(f) = &faults {
                    engine.set_fault_injector(Arc::clone(f));
                }
                Partition { kernel, engine }
            })
            .collect();
        let mut sup = Supervisor {
            restarts: vec![0; config.executors],
            samplers: vec![TopSampler::new(); partitions],
            executors: Vec::with_capacity(config.executors),
            parts,
            config,
            faults,
            recovery: RecoveryStats::default(),
            rounds: 0,
        };
        for i in 0..sup.config.executors {
            let executor = sup.boot(slots.host(i), i)?;
            sup.executors.push(executor);
        }
        Ok(sup)
    }

    /// Deploy executor `i`'s container into partition `host`, pinned to
    /// core `i` with the Table 3.1 restrictions. Start failures are retried
    /// with backoff.
    fn boot(&mut self, host: usize, i: usize) -> Result<Executor, TorpedoError> {
        let config = &self.config;
        let part = &mut self.parts[host];
        let id = retry_start(&config.supervisor, &mut self.recovery, i, || {
            part.engine
                .create(&mut part.kernel, executor_spec(config, i))
        })?;
        let mut executor = Executor::new(id);
        executor.collider = config.collider;
        executor.glue = config.glue;
        Ok(executor)
    }

    fn fault(&self, kind: FaultKind, scope: &str) -> bool {
        self.faults.as_ref().is_some_and(|f| f.roll(kind, scope))
    }

    /// Restart any crashed executor containers (between batches, and
    /// between attempts of a damaged round). Heals do not spend the
    /// restart budget; their start failures are retried with backoff.
    pub(crate) fn restart_crashed(&mut self, slots: &impl Slots) -> Result<(), TorpedoError> {
        for (i, executor) in self.executors.iter().enumerate() {
            let host = &mut self.parts[slots.host(i)];
            let id = &executor.container;
            let crashed = host
                .engine
                .container(id)
                .is_some_and(|c| matches!(c.state(), ContainerState::Crashed(_)));
            if crashed {
                retry_start(&self.config.supervisor, &mut self.recovery, i, || {
                    host.engine.restart(&mut host.kernel, id)
                })?;
            }
        }
        Ok(())
    }

    /// Slot `i` hung: count it, spend one unit of executor `i`'s restart
    /// budget, and replace its container (same name and spec) inside its
    /// own partition.
    fn respawn(&mut self, slots: &impl Slots, i: usize) -> Result<(), TorpedoError> {
        self.recovery.hangs_detected += 1;
        let restarts = self.restarts[i] + 1;
        if restarts > self.config.supervisor.max_worker_restarts {
            return Err(TorpedoError::RestartBudget {
                executor: i,
                restarts,
            });
        }
        let host = slots.host(i);
        let part = &mut self.parts[host];
        match part
            .engine
            .remove(&mut part.kernel, &self.executors[i].container)
        {
            Ok(()) | Err(EngineError::NoSuchContainer(_)) => {}
            Err(e) => return Err(e.into()),
        }
        self.executors[i] = self.boot(host, i)?;
        self.restarts[i] = restarts;
        self.recovery.worker_restarts += 1;
        Ok(())
    }

    /// Run one round over `n` slots, the first `assigned` of which carry a
    /// program, under supervision: attempts that fall below quorum are
    /// retried up to the configured budget.
    pub(crate) fn round(
        &mut self,
        slots: &impl Slots,
        n: usize,
        assigned: usize,
    ) -> Result<RoundRecord, TorpedoError> {
        let mut attempts = 0u32;
        loop {
            match self.attempt(slots, n, assigned) {
                Ok(record) => return Ok(record),
                Err(e) if e.is_retriable() && attempts < self.config.supervisor.round_retries => {
                    attempts += 1;
                    self.recovery.rounds_retried += 1;
                    // An abandoned attempt may leave containers crashed with
                    // the crash report lost alongside the round; heal them
                    // before retrying.
                    self.restart_crashed(slots)?;
                }
                Err(e) if e.is_retriable() => {
                    return Err(TorpedoError::RoundRetriesExhausted {
                        attempts: attempts + 1,
                        last: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn quorum_met(&self, failed: &[bool]) -> bool {
        let n = failed.len();
        let healthy = failed.iter().filter(|f| !**f).count();
        n == 0 || (healthy > 0 && healthy as f64 >= self.config.supervisor.quorum * n as f64)
    }

    /// Close an attempt that fell below quorum at `stage`, blaming the
    /// first slot that hung.
    fn abandon(
        &mut self,
        fuzz_cores: &[usize],
        failed: &[bool],
        stage: RoundStage,
    ) -> TorpedoError {
        close_round(&mut self.parts, fuzz_cores);
        TorpedoError::WorkerTimeout {
            executor: failed.iter().position(|f| *f).unwrap_or(0),
            stage,
        }
    }

    /// One round attempt — Algorithm 2's loop body: roll the hangs, respawn
    /// the slots that hang before ready, release every other window at
    /// once, drop the reports of slots that hang before reporting, measure.
    fn attempt(
        &mut self,
        slots: &impl Slots,
        n: usize,
        assigned: usize,
    ) -> Result<RoundRecord, TorpedoError> {
        let window = self.config.window;
        // Local clone so span guards never borrow `self` across the
        // `&mut self` recovery calls; failed attempts still close their span.
        let telemetry = self.config.telemetry.clone();
        let _round_span = telemetry.span(SpanKind::Round);

        // Roll fault-injected hang decisions up front, in slot order, so
        // the schedule is a pure function of the fault seed in both layouts.
        let hangs: Vec<Hang> = (0..n)
            .map(|i| {
                if i >= assigned {
                    return Hang::default();
                }
                Hang {
                    ready: self.fault(FaultKind::ExecutorHang, &format!("fuzz-{i}/ready")),
                    report: self.fault(FaultKind::ExecutorHang, &format!("fuzz-{i}/report")),
                }
            })
            .collect();

        let fuzz_cores: Vec<usize> = (0..self.config.executors).collect();
        let before = open_round(&mut self.parts, window, &fuzz_cores);

        // A slot that hangs before ready is respawned now and sits the
        // round out.
        let mut failed: Vec<bool> = hangs.iter().map(|h| h.ready).collect();
        for i in (0..n).filter(|&i| failed[i]) {
            self.respawn(slots, i)?;
        }
        if !self.quorum_met(&failed) {
            return Err(self.abandon(&fuzz_cores, &failed, RoundStage::Ready));
        }

        // Open the measurement window for every healthy slot at once.
        let released: Vec<bool> = failed.iter().map(|f| !f).collect();
        let results = slots.run(&mut self.parts, &self.executors, &released, &self.config);

        // A slot that hangs before reporting ran its window, but its report
        // is lost; it is respawned after the window.
        let mut reports: Vec<Option<ExecReport>> = vec![None; n];
        for (i, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            if hangs[i].report {
                failed[i] = true;
                self.respawn(slots, i)?;
            } else {
                reports[i] = Some(result?);
            }
        }
        if !self.quorum_met(&failed) {
            return Err(self.abandon(&fuzz_cores, &failed, RoundStage::Collect));
        }

        let (observation, deferrals) = {
            let _snapshot_span = telemetry.span(SpanKind::Snapshot);
            let containers: Vec<&ContainerId> =
                self.executors.iter().map(|e| &e.container).collect();
            measure(
                &mut self.parts,
                &mut self.samplers,
                &containers,
                &before,
                window,
                &fuzz_cores,
            )?
        };
        if failed.contains(&true) {
            self.recovery.rounds_salvaged += 1;
        }
        let reports: Vec<ExecReport> = reports
            .into_iter()
            .map(|r| r.unwrap_or_else(ExecReport::missed))
            .collect();
        self.rounds += 1;
        telemetry.incr(CounterId::RoundsCompleted);
        for report in &reports {
            telemetry.add(CounterId::ExecsTotal, report.executions);
            if report.executions > 0 {
                telemetry.observe(HistogramId::ExecLatencyUs, report.avg_exec_time.as_micros());
            }
            if report.crash.is_some() {
                telemetry.incr(CounterId::CrashesTotal);
            }
        }
        Ok(RoundRecord {
            round: self.rounds,
            observation,
            reports,
            deferrals,
        })
    }
}

/// Open the round on every partition. The `/proc/stat` baseline is the
/// primary's: it alone accumulates the merged cumulative counters.
fn open_round(parts: &mut [Partition], window: Usecs, fuzz_cores: &[usize]) -> ProcStatSnapshot {
    let before = ProcStatSnapshot::capture(&parts[0].kernel);
    for part in parts.iter_mut() {
        part.kernel.begin_round(window);
        part.kernel.set_reserved_cores(fuzz_cores);
    }
    before
}

/// Close an abandoned round so the next attempt starts from a clean
/// measurement window. The primary finishes its round — consuming exactly
/// the noise entropy a completed round would — and secondaries are drained
/// raw (they never touch the RNG).
fn close_round(parts: &mut [Partition], fuzz_cores: &[usize]) {
    let (primary, secondaries) = parts.split_first_mut().expect("a primary partition");
    let _ = primary.kernel.finish_round(fuzz_cores);
    for part in secondaries {
        let _ = part.kernel.take_round_raw();
    }
}

/// Measure the round: the canonical merge. Partitions are visited in
/// partition order, so per-core charges, deferral-ledger entries, top rows
/// and startup logs concatenate identically whichever worker finished
/// first. Secondary partitions drain raw (no noise, no RNG) into the
/// primary; the primary alone finishes the round — with one partition,
/// exactly the single-kernel sequence. Container rows follow `containers`
/// (executor order), each read from the partition that hosts it.
fn measure(
    parts: &mut [Partition],
    samplers: &mut [TopSampler],
    containers: &[&ContainerId],
    before: &ProcStatSnapshot,
    window: Usecs,
    fuzz_cores: &[usize],
) -> Result<(Observation, Vec<DeferralEvent>), EngineError> {
    let (primary, secondaries) = parts.split_first_mut().expect("a primary partition");
    primary.engine.round_overhead(&mut primary.kernel, window);
    for part in secondaries {
        part.engine.round_overhead(&mut part.kernel, window);
        primary
            .kernel
            .absorb_round_raw(part.kernel.take_round_raw());
    }
    let out = primary.kernel.finish_round(fuzz_cores);
    let per_core = ProcStatSnapshot::capture(&primary.kernel).since(before);
    let top = merge_frames(
        parts
            .iter()
            .zip(samplers)
            .map(|(p, sampler)| sampler.sample(&p.kernel, window))
            .collect(),
    );
    let containers = containers
        .iter()
        .map(|id| {
            parts
                .iter()
                .find_map(|p| container_info(p, id))
                .ok_or_else(|| EngineError::NoSuchContainer(id.name().to_string()))
        })
        .collect::<Result<_, _>>()?;
    let startup_times = parts
        .iter_mut()
        .flat_map(|p| p.engine.drain_startup_log())
        .collect();
    let observation = Observation {
        window,
        sidecar_core: Some(fuzz_cores.len() % per_core.len()),
        per_core,
        top,
        containers,
        startup_times,
    };
    Ok((observation, out.deferrals))
}

/// Container `id`'s row, if `part` hosts it.
fn container_info(part: &Partition, id: &ContainerId) -> Option<ContainerInfo> {
    let c = part.engine.container(id)?;
    let cg = part.kernel.cgroups.get(c.cgroup());
    Some(ContainerInfo {
        name: id.name().to_string(),
        cpuset: c.spec().cpuset.clone(),
        cpu_quota: c.spec().cpus,
        memory_limit: c.spec().memory_bytes,
        memory_used: cg.map_or(0, |g| g.charged_memory()),
        io_bytes: cg.map_or(0, |g| g.charged_io_bytes()),
        oom_events: cg.map_or(0, |g| g.oom_events()),
    })
}

/// The sequential layout: one kernel hosts every executor, and the released
/// windows run inline, in executor order.
struct Inline<'r, P> {
    table: &'r [SyscallDesc],
    programs: &'r [P],
}

impl<P: Borrow<Program>> Slots for Inline<'_, P> {
    fn host(&self, _i: usize) -> usize {
        0
    }

    fn run(
        &self,
        parts: &mut Vec<Partition>,
        executors: &[Executor],
        released: &[bool],
        config: &ObserverConfig,
    ) -> Vec<SlotReport> {
        let part = &mut parts[0];
        released
            .iter()
            .zip(executors.iter().zip(self.programs))
            .map(|(&released, (executor, program))| {
                released.then(|| {
                    let _exec_span = config.telemetry.span(SpanKind::Exec);
                    executor.run_until(
                        &mut part.kernel,
                        &part.engine,
                        self.table,
                        program.borrow(),
                        config.window,
                    )
                })
            })
            .collect()
    }
}

/// No programs: the layout for booting and healing.
const IDLE: Inline<'static, Program> = Inline {
    table: &[],
    programs: &[],
};

/// The observer: owns the kernel, engine, and executor fleet.
#[derive(Debug)]
pub struct Observer {
    sup: Supervisor,
}

impl Observer {
    /// Boot a kernel, start an engine, and deploy `config.executors`
    /// containers pinned to cores `0..n` with the Table 3.1 restrictions.
    /// Injected start failures are retried with backoff.
    ///
    /// # Errors
    /// Engine errors from container creation; [`TorpedoError::RestartBudget`]
    /// when a container cannot be started within the restart budget.
    pub fn new(
        kernel_config: KernelConfig,
        config: ObserverConfig,
    ) -> Result<Observer, TorpedoError> {
        let sup = Supervisor::new(kernel_config, config, 1, &IDLE)?;
        Ok(Observer { sup })
    }

    /// The observer's configuration.
    pub fn config(&self) -> &ObserverConfig {
        &self.sup.config
    }

    /// The cores hosting executor containers.
    pub fn fuzz_cores(&self) -> Vec<usize> {
        (0..self.sup.config.executors).collect()
    }

    /// Immutable access to the kernel (diagnostics).
    pub fn kernel(&self) -> &Kernel {
        &self.sup.parts[0].kernel
    }

    /// Immutable access to the engine.
    pub fn engine(&self) -> &Engine {
        &self.sup.parts[0].engine
    }

    /// Container ids, in executor order.
    pub fn container_ids(&self) -> Vec<ContainerId> {
        self.sup
            .executors
            .iter()
            .map(|e| e.container.clone())
            .collect()
    }

    /// Recovery events so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.sup.recovery
    }

    /// Faults the engine's injector has taken so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.engine().fault_counters()
    }

    /// Restart any crashed containers (between batches).
    ///
    /// # Errors
    /// Propagates engine restart failures; injected start failures are
    /// retried with backoff up to the restart budget.
    pub fn restart_crashed(&mut self) -> Result<(), TorpedoError> {
        self.sup.restart_crashed(&IDLE)
    }

    /// Run one observation round under supervision: assign `programs[i]`
    /// to executor `i` (executors beyond the programs sit the round out),
    /// drive the supervised round protocol, execute the window, and
    /// measure. Damaged rounds (executor hangs) are retried up to the
    /// configured budget.
    ///
    /// # Errors
    /// Engine failures, an exhausted restart budget, or
    /// [`TorpedoError::RoundRetriesExhausted`] when retries run out. A
    /// container *crash* is not an error; it is reported in the record.
    /// Programs are accepted through [`std::borrow::Borrow`] so callers can
    /// pass plain `&[Program]` slices (confirmation, minimization) or the
    /// campaign's copy-on-write `&[Arc<Program>]` batches without cloning.
    pub fn round<P: Borrow<Program>>(
        &mut self,
        table: &[SyscallDesc],
        programs: &[P],
    ) -> Result<RoundRecord, TorpedoError> {
        let n = self.sup.executors.len().min(programs.len());
        self.sup.round(&Inline { table, programs }, n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_kernel::KernelConfig;
    use torpedo_prog::{build_table, deserialize};

    fn observer(executors: usize) -> Observer {
        observer_with_window(executors, 1)
    }

    /// Noise spikes are absolute-duration events, so short windows are
    /// "more easily disrupted by temporary noise spikes" (§3.4) — shape
    /// assertions use a paper-sized window.
    fn observer_with_window(executors: usize, secs: u64) -> Observer {
        Observer::new(
            KernelConfig::default(),
            ObserverConfig {
                window: Usecs::from_secs(secs),
                executors,
                ..ObserverConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn baseline_round_shape_matches_table_a1() {
        let table = build_table();
        let mut obs = observer_with_window(3, 4);
        let programs = vec![
            deserialize("getpid()\nuname(0x0)\n", &table).unwrap(),
            deserialize("stat(&'/etc/passwd', 0x7f0000000000)\n", &table).unwrap(),
            deserialize("getuid()\nclock_gettime(0x0, 0x7f0000000000)\n", &table).unwrap(),
        ];
        // Warm-up round for the top sampler.
        obs.round(&table, &programs).unwrap();
        let rec = obs.round(&table, &programs).unwrap();
        let ob = &rec.observation;
        for core in 0..3 {
            let busy = ob.busy_percent(core);
            assert!(busy > 55.0, "fuzz core {core} busy {busy:.1}%");
        }
        for core in ob.idle_cores() {
            let busy = ob.busy_percent(core);
            assert!(busy < 16.0, "idle core {core} busy {busy:.1}%");
        }
        // Sidecar core shows the framework softirq side-effect.
        let sidecar = ob.sidecar_core.unwrap();
        assert!(ob.per_core[sidecar].softirq > Usecs::from_millis(20));
        assert!(rec.observation.top.is_some(), "second frame is post-warmup");
        assert_eq!(rec.reports.len(), 3);
    }

    #[test]
    fn first_round_top_is_warming_up() {
        let table = build_table();
        let mut obs = observer(1);
        let programs = vec![deserialize("getpid()\n", &table).unwrap()];
        let rec = obs.round(&table, &programs).unwrap();
        assert!(rec.observation.top.is_none());
    }

    #[test]
    fn fewer_programs_than_executors_is_fine() {
        let table = build_table();
        let mut obs = observer(3);
        let programs = vec![deserialize("getpid()\n", &table).unwrap()];
        let rec = obs.round(&table, &programs).unwrap();
        assert_eq!(rec.reports.len(), 1);
    }

    #[test]
    fn deferrals_are_recorded_but_hidden_from_observation() {
        let table = build_table();
        let mut obs = observer(1);
        let programs = vec![deserialize("sync()\n", &table).unwrap()];
        let rec = obs.round(&table, &programs).unwrap();
        assert!(
            rec.deferrals
                .iter()
                .any(|e| e.channel == torpedo_kernel::DeferralChannel::IoFlush),
            "sync must defer flush work"
        );
    }

    #[test]
    fn round_numbers_increment() {
        let table = build_table();
        let mut obs = observer(1);
        let programs = vec![deserialize("getpid()\n", &table).unwrap()];
        assert_eq!(obs.round(&table, &programs).unwrap().round, 1);
        assert_eq!(obs.round(&table, &programs).unwrap().round, 2);
    }

    #[test]
    fn boot_retries_injected_start_failures() {
        let obs = Observer::new(
            KernelConfig::default(),
            ObserverConfig {
                executors: 2,
                faults: FaultConfig {
                    seed: 11,
                    start_fail: 0.5,
                    ..FaultConfig::default()
                },
                supervisor: SupervisorConfig {
                    backoff_base: Duration::from_micros(50),
                    backoff_cap: Duration::from_micros(200),
                    ..SupervisorConfig::default()
                },
                ..ObserverConfig::default()
            },
        )
        .unwrap();
        // Both containers came up despite the 50% start-failure rate.
        assert_eq!(obs.container_ids().len(), 2);
    }

    #[test]
    fn hung_executor_is_respawned_and_round_salvaged() {
        let table = build_table();
        let mut obs = Observer::new(
            KernelConfig::default(),
            ObserverConfig {
                window: Usecs::from_secs(1),
                executors: 3,
                faults: FaultConfig {
                    seed: 5,
                    executor_hang: 0.25,
                    ..FaultConfig::default()
                },
                supervisor: SupervisorConfig {
                    backoff_base: Duration::from_micros(50),
                    ..SupervisorConfig::default()
                },
                ..ObserverConfig::default()
            },
        )
        .unwrap();
        let programs = vec![
            deserialize("getpid()\n", &table).unwrap(),
            deserialize("getuid()\n", &table).unwrap(),
            deserialize("uname(0x0)\n", &table).unwrap(),
        ];
        let mut salvaged_rounds = 0;
        for _ in 0..12 {
            let rec = obs.round(&table, &programs).unwrap();
            assert_eq!(rec.reports.len(), 3, "salvaged rounds keep fleet shape");
            if rec.reports.iter().any(|r| r.executions == 0) {
                salvaged_rounds += 1;
            }
        }
        let rec = obs.recovery();
        assert!(rec.hangs_detected > 0, "25% hang rate over 12 rounds");
        assert!(rec.worker_restarts >= rec.hangs_detected.min(1));
        // Each respawn counts once toward the recovery-events total.
        assert_eq!(
            rec.total(),
            rec.hangs_detected
                + rec.worker_restarts
                + rec.rounds_retried
                + rec.rounds_salvaged
                + rec.start_failures
                + rec.quarantined_programs
        );
        assert!(salvaged_rounds > 0);
        // All containers alive and running after all that.
        assert_eq!(obs.container_ids().len(), 3);
    }
}
