//! The campaign driver: the syz-manager-equivalent loop that ties seeds,
//! observer rounds, the batch state machine, coverage-driven corpus
//! admission, crash handling, and offline oracle flagging together
//! (§4.1's testing procedure).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use torpedo_rng::rngs::StdRng;
use torpedo_rng::SeedableRng;

use torpedo_kernel::time::Usecs;
use torpedo_kernel::{DeferralEvent, KernelConfig};
use torpedo_oracle::observation::Observation;
use torpedo_oracle::violation::Violation;
use torpedo_oracle::Oracle;
use torpedo_prog::{
    Corpus, CorpusItem, CoverageSet, DirectedTarget, DistanceMap, MutatePolicy, Mutator, Program,
    ProgramId, SyscallDesc,
};
use torpedo_runtime::{checkpoint_fault_hit, ContainerCrash, FaultCounters};
use torpedo_telemetry::{
    safe_div, CounterId, EventKind, EventLog, SpanKind, StatusServer, StatusShared, Telemetry,
};

use crate::batch::{BatchAction, BatchConfig, BatchMachine, BatchState};
use crate::crash::{reproduce_and_minimize, CrashRecord};
use crate::error::TorpedoError;
use crate::forensics::{
    deferral_excerpt, BundleKind, FlightRecorder, ForensicsBundle, MinimizationSummary,
    DEFERRAL_EXCERPT_CAP, FORENSICS_MINIMIZE_CAP,
};
use crate::minimize::{minimize_with_oracle, ViolationHarness};
use crate::observer::{Observer, ObserverConfig, RoundRecord};
use crate::parallel::ParallelObserver;
use crate::prog_sm::{ProgEvent, ProgramStateMachine};
use crate::seeds::SeedCorpus;
use crate::snapshot::{
    derive_round_seed, render_campaign_config, stage_name, CheckpointConfig, CheckpointWriter,
    CorpusEntry, CrashSite, ForensicsSnapshot, JournalRound, MachineSnapshot, QuarantineSnapshot,
    SnapshotBundle, SnapshotError,
};
use crate::stats::RecoveryStats;

/// Attempts at reproducing each collected crash. The rendered config
/// fingerprint still records it, as a literal.
const CRASH_REPRO_ATTEMPTS: u32 = 3;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Kernel model.
    pub kernel: KernelConfig,
    /// Observer/executor fleet configuration.
    pub observer: ObserverConfig,
    /// Batch state-machine tuning (§4.2 values by default).
    pub batch: BatchConfig,
    /// Mutation policy (incl. the generation denylist).
    pub mutate: MutatePolicy,
    /// RNG seed for the campaign.
    pub seed: u64,
    /// Hard cap on rounds per batch (on top of batch patience).
    pub max_rounds_per_batch: u32,
    /// Run executors on real threads through the [`crate::parallel`]
    /// observer instead of the sequential one.
    pub parallel: bool,
    /// Bind a syz-manager-style status endpoint here (e.g.
    /// `"127.0.0.1:8090"`) for the duration of the run. `None` (the
    /// default) serves nothing. `/` is the text status page, `/metrics`
    /// the telemetry JSON, `/metrics.prom` the Prometheus exposition,
    /// `/trace.json` the Chrome trace.
    pub status_addr: Option<String>,
    /// Record finding forensics: mutation lineage, per-batch score
    /// trajectories, and a [`ForensicsBundle`] per flag / crash /
    /// quarantine in [`CampaignReport::forensics`]. Off by default; the
    /// recorder never touches the campaign RNG, so every other report
    /// field is byte-identical with this on or off.
    pub forensics: bool,
    /// Periodic crash-safe checkpointing (`None`, the default, writes
    /// nothing). When set, a `torpedo-snapshot-v1` bundle is written every
    /// [`CheckpointConfig::interval_rounds`] rounds;
    /// [`Campaign::resume`] finishes a killed campaign from one with a
    /// byte-identical report.
    pub checkpoint: Option<CheckpointConfig>,
    /// Warm-start corpus: programs from a prior campaign's exported corpus
    /// ([`crate::snapshot::export_corpus`]) appended to the seed list,
    /// deduplicated by [`ProgramId`], with provenance recorded as round-0
    /// lineage roots when forensics is on.
    pub warm_start: Option<Corpus>,
    /// Directed-fuzzing target. When set, a [`DistanceMap`] is built once
    /// at campaign start from the syscall table and folded into call
    /// selection (generation and mutation both amplify on-path syscalls).
    /// `None` (the default) is byte-identical to the undirected campaign —
    /// the directed machinery consumes no extra RNG draws. The target is
    /// part of the rendered config fingerprint, so directed and undirected
    /// checkpoints never cross-resume.
    pub directed: Option<DirectedTarget>,
    /// Event-stream sink (DESIGN.md §5g). The default disabled handle makes
    /// every emission a no-op branch; the per-event sequence counter still
    /// advances so checkpoints from events-on and events-off runs stay
    /// cross-resumable — the handle is deliberately *not* part of the
    /// rendered config fingerprint.
    pub events: EventLog,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            kernel: KernelConfig::default(),
            observer: ObserverConfig::default(),
            batch: BatchConfig::default(),
            mutate: MutatePolicy::default(),
            seed: 0x70CA_FE42,
            max_rounds_per_batch: 40,
            parallel: false,
            status_addr: None,
            forensics: false,
            checkpoint: None,
            warm_start: None,
            directed: None,
            events: EventLog::disabled(),
        }
    }
}

/// One logged round (the input to offline flagging, §3.6.1).
#[derive(Debug, Clone)]
pub struct RoundLog {
    /// Batch index.
    pub batch: usize,
    /// Global round number.
    pub round: u64,
    /// Oracle score for the round.
    pub score: f64,
    /// The observation (kept for offline flagging).
    pub observation: Observation,
    /// The programs that ran, executor-indexed — copy-on-write handles,
    /// so logging a round shares the batch instead of deep-copying it.
    pub programs: Vec<Arc<Program>>,
    /// The round's first [`DEFERRAL_EXCERPT_CAP`] ground-truth deferral
    /// events: the excerpt a forensics bundle carries. Oracles never see
    /// them.
    pub deferrals: Vec<DeferralEvent>,
    /// Program executions completed this round, summed over executors.
    pub executions: u64,
    /// Fatal signals delivered this round, summed over executors.
    pub fatal_signals: u64,
    /// Recovery events this round (restarts, hangs, retries, salvages).
    pub recovery: RecoveryStats,
}

/// A program flagged adversarial by offline log analysis.
#[derive(Debug, Clone)]
pub struct FlaggedFinding {
    /// The program under suspicion (shared, copy-on-write).
    pub program: Arc<Program>,
    /// The violations the round exhibited — shared across every finding
    /// from the same round instead of cloned per program.
    pub violations: Arc<Vec<Violation>>,
    /// The round's oracle score.
    pub score: f64,
    /// Where it was observed.
    pub batch: usize,
    /// Round number.
    pub round: u64,
}

/// Campaign output.
#[derive(Debug)]
pub struct CampaignReport {
    /// Total rounds executed.
    pub rounds_total: u64,
    /// Every round log.
    pub logs: Vec<RoundLog>,
    /// Programs flagged by offline oracle analysis (deduplicated).
    pub flagged: Vec<FlaggedFinding>,
    /// Container crashes with reproduction results.
    pub crashes: Vec<CrashRecord>,
    /// The coverage-admitted corpus.
    pub corpus: Corpus,
    /// Distinct coverage signals observed.
    pub coverage_signals: usize,
    /// Supervised-recovery event totals for the whole campaign.
    pub recovery: RecoveryStats,
    /// Faults the engine's injector took (all zero without fault config).
    pub faults_injected: FaultCounters,
    /// Programs quarantined for repeatedly killing executors (serialized).
    pub quarantined: Vec<String>,
    /// Forensics bundles, one per flag / crash / quarantine event. Empty
    /// unless [`CampaignConfig::forensics`] was set.
    pub forensics: Vec<ForensicsBundle>,
}

/// Dispatch between the sequential and threaded observers.
enum Driver {
    Seq(Box<Observer>),
    Par(Box<ParallelObserver>),
}

impl Driver {
    fn new(
        parallel: bool,
        kernel: KernelConfig,
        config: ObserverConfig,
        table: &Arc<[SyscallDesc]>,
    ) -> Result<Driver, TorpedoError> {
        Ok(if parallel {
            // The threaded observer shares the campaign's table — an Arc
            // clone, not a per-campaign copy of every description.
            Driver::Par(Box::new(ParallelObserver::new(
                kernel,
                config,
                Arc::clone(table),
            )?))
        } else {
            Driver::Seq(Box::new(Observer::new(kernel, config)?))
        })
    }

    fn round(
        &mut self,
        table: &[SyscallDesc],
        programs: &[Arc<Program>],
    ) -> Result<RoundRecord, TorpedoError> {
        match self {
            Driver::Seq(o) => o.round(table, programs),
            Driver::Par(o) => o.round(programs),
        }
    }

    fn restart_crashed(&mut self) -> Result<(), TorpedoError> {
        match self {
            Driver::Seq(o) => o.restart_crashed(),
            Driver::Par(o) => o.restart_crashed(),
        }
    }

    fn recovery(&self) -> RecoveryStats {
        match self {
            Driver::Seq(o) => o.recovery(),
            Driver::Par(o) => o.recovery(),
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        match self {
            Driver::Seq(o) => o.fault_counters(),
            Driver::Par(o) => o.fault_counters(),
        }
    }
}

/// The campaign driver.
pub struct Campaign {
    config: CampaignConfig,
    table: Arc<[SyscallDesc]>,
    /// The status endpoint, once started; kept on the campaign (not the
    /// run) so the final stats stay served after [`Campaign::run`] returns.
    status: Mutex<Option<(Arc<StatusShared>, StatusServer)>>,
}

impl Campaign {
    /// A campaign over `table` with `config`. The table is shared (and
    /// shareable across campaigns) as an `Arc<[SyscallDesc]>`; a plain
    /// `Vec<SyscallDesc>` converts in place.
    pub fn new(config: CampaignConfig, table: impl Into<Arc<[SyscallDesc]>>) -> Campaign {
        Campaign {
            config,
            table: table.into(),
            status: Mutex::new(None),
        }
    }

    /// The syscall table in use.
    pub fn table(&self) -> &[SyscallDesc] {
        &self.table
    }

    /// The campaign configuration (the fleet clones it as the template
    /// for control-plane submissions).
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Start the status endpoint on `addr` (use port 0 for an ephemeral
    /// port), serving the live status page at `/` and the telemetry JSON at
    /// `/metrics`. Idempotent: a second call returns the existing address.
    /// [`Campaign::run`] calls this automatically when
    /// [`CampaignConfig::status_addr`] is set.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn serve_status(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let mut slot = self.status.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, server)) = slot.as_ref() {
            return Ok(server.local_addr());
        }
        let shared = Arc::new(StatusShared::new(self.config.observer.telemetry.clone()));
        // A just-dropped campaign's listener socket can linger briefly in
        // the kernel even though its accept thread was joined; retry
        // AddrInUse for a bounded window so checkpoint/resume in the same
        // process can rebind the same address deterministically.
        let server = {
            let mut attempt = 0;
            loop {
                match StatusServer::bind(addr, Arc::clone(&shared)) {
                    Ok(server) => break server,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && attempt < 40 => {
                        attempt += 1;
                        std::thread::sleep(std::time::Duration::from_millis(25));
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let local = server.local_addr();
        *slot = Some((shared, server));
        Ok(local)
    }

    /// Shut the status endpoint down deterministically: the accept loop is
    /// signalled and its listener thread joined before this returns, so the
    /// address is immediately rebindable (e.g. by a resumed campaign).
    /// No-op when nothing is serving.
    pub fn shutdown_status(&self) {
        let mut slot = self.status.lock().unwrap_or_else(|e| e.into_inner());
        // StatusServer::drop sets the shutdown flag and joins the thread.
        *slot = None;
    }

    /// The bound status-endpoint address, if one is serving.
    pub fn status_local_addr(&self) -> Option<SocketAddr> {
        self.status
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|(_, server)| server.local_addr())
    }

    fn status_shared(&self) -> Option<Arc<StatusShared>> {
        self.status
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|(shared, _)| Arc::clone(shared))
    }

    /// Run the campaign: every seed batch is fuzzed through the batch state
    /// machine, logs are collected, and flagging runs offline at the end.
    ///
    /// Supervision rides along: hung or dead executors are restarted by the
    /// observers (counted in the report's [`RecoveryStats`]), and a program
    /// whose container crashes [`SupervisorConfig::quarantine_threshold`]
    /// times is quarantined — swapped out and never re-admitted, so one
    /// executor-killing workload cannot starve the rest of the campaign.
    ///
    /// [`SupervisorConfig::quarantine_threshold`]:
    /// crate::observer::SupervisorConfig::quarantine_threshold
    ///
    /// # Errors
    /// Fails only on observer boot problems or exhausted recovery budgets;
    /// runtime crashes are data.
    pub fn run(
        &self,
        seeds: &SeedCorpus,
        oracle: &dyn Oracle,
    ) -> Result<CampaignReport, TorpedoError> {
        let mut run = self.start(seeds, false)?;
        while matches!(run.step(oracle)?, CampaignStep::Ran(_)) {}
        run.finish(oracle)
    }

    /// Resume a killed campaign from a checkpoint bundle and finish it.
    ///
    /// Resume is *verified replay*: rounds `1..=bundle.rounds` re-execute
    /// through the exact live code path (the per-round
    /// [`derive_round_seed`] reseed makes them identical by construction)
    /// while each round's pre-round programs are checked against the
    /// bundle journal; at the checkpointed round the full re-rendered
    /// bundle is compared byte-for-byte against the loaded one, then the
    /// campaign continues live. The final report and logfmt stream are
    /// therefore byte-identical to the uninterrupted run's.
    ///
    /// The campaign must be configured identically to the writer
    /// ([`crate::snapshot::render_campaign_config`] decides); the
    /// checkpoint *directory* may differ, and
    /// [`CampaignConfig::warm_start`] is ignored — the bundle's seed list
    /// already includes warm-started programs.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] or
    /// [`SnapshotError::ReplayDivergence`] (wrapped in
    /// [`TorpedoError::Snapshot`]) on a config or replay mismatch, plus
    /// everything [`Campaign::run`] can fail with.
    pub fn resume(
        &self,
        bundle: &SnapshotBundle,
        oracle: &dyn Oracle,
    ) -> Result<CampaignReport, TorpedoError> {
        let mut run = self.start_resume(bundle, false)?;
        while matches!(run.step(oracle)?, CampaignStep::Ran(_)) {}
        run.finish(oracle)
    }

    /// Start the campaign without driving it: the returned [`CampaignRun`]
    /// is a resumable stepper — each [`CampaignRun::step`] executes exactly
    /// one round through the identical code path [`Campaign::run`] uses, so
    /// a fully stepped run produces a byte-identical report. The fleet
    /// scheduler uses this to time-slice many campaigns over one worker
    /// pool.
    ///
    /// `track_for_park` forces per-round journal tracking even without a
    /// checkpoint policy, so [`CampaignRun::park_bundle`] can render a
    /// `torpedo-snapshot-v1` bundle at any round boundary (the fleet's
    /// park/unpark path). Plain campaigns leave it `false` and pay nothing.
    ///
    /// # Errors
    /// Observer boot problems, exactly as [`Campaign::run`].
    pub fn start(
        &self,
        seeds: &SeedCorpus,
        track_for_park: bool,
    ) -> Result<CampaignRun, TorpedoError> {
        let (effective, warm_started) = self.effective_seeds(seeds);
        self.start_run(effective, warm_started, None, track_for_park)
    }

    /// The stepper form of [`Campaign::resume`]: verified replay happens
    /// across the initial [`CampaignRun::step`] calls (the bundle's rounds
    /// re-execute and are journal-checked), after which stepping continues
    /// live. See [`Campaign::start`] for `track_for_park`.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] when this campaign's rendered
    /// config differs from the bundle's, plus anything [`Campaign::start`]
    /// can fail with.
    pub fn start_resume(
        &self,
        bundle: &SnapshotBundle,
        track_for_park: bool,
    ) -> Result<CampaignRun, TorpedoError> {
        if render_campaign_config(&self.config) != bundle.config {
            return Err(SnapshotError::ConfigMismatch.into());
        }
        let mut programs = Vec::with_capacity(bundle.seeds.len());
        for (i, text) in bundle.seeds.iter().enumerate() {
            let program = torpedo_prog::deserialize(text, &self.table)
                .map_err(|e| SnapshotError::Parse(format!("seed program {i}: {e:?}")))?;
            programs.push(Arc::new(program));
        }
        let seeds = SeedCorpus {
            programs,
            filtered_calls: Vec::new(),
        };
        self.config
            .observer
            .telemetry
            .incr(CounterId::CheckpointRestores);
        self.start_run(
            seeds,
            bundle.warm_started as usize,
            Some(bundle),
            track_for_park,
        )
    }

    /// Merge the warm-start corpus into `seeds`: corpus programs not
    /// already seeded are appended (deduplicated by [`ProgramId`], export
    /// order preserved). Returns the effective corpus and how many
    /// trailing programs were warm-started.
    fn effective_seeds(&self, seeds: &SeedCorpus) -> (SeedCorpus, usize) {
        let mut programs = seeds.programs.clone();
        let mut warm_started = 0usize;
        if let Some(corpus) = &self.config.warm_start {
            let mut known: HashSet<ProgramId> = programs.iter().map(|p| ProgramId::of(p)).collect();
            for item in corpus.items() {
                if known.insert(ProgramId::of(&item.program)) {
                    programs.push(Arc::clone(&item.program));
                    warm_started += 1;
                }
            }
        }
        (
            SeedCorpus {
                programs,
                filtered_calls: seeds.filtered_calls.clone(),
            },
            warm_started,
        )
    }

    fn start_run(
        &self,
        seeds: SeedCorpus,
        warm_started: usize,
        resume: Option<&SnapshotBundle>,
        track_for_park: bool,
    ) -> Result<CampaignRun, TorpedoError> {
        // Directed mode: the distance map is a pure function of the table
        // and the rendered target — deterministic, RNG-free, built once.
        // An all-unreachable map (unknown target name, empty trigger set)
        // is dropped outright: the campaign then runs the exact undirected
        // path — same RNG draws, byte-identical report — instead of a
        // steering-nowhere variant with different mutation-op weights.
        let distance = self
            .config
            .directed
            .as_ref()
            .map(|target| DistanceMap::build(&self.table, target))
            .filter(|map| map.reachable() > 0);
        let telemetry = self.config.observer.telemetry.clone();
        if let Some(map) = &distance {
            telemetry.add(CounterId::DirectedReachable, map.reachable() as u64);
        }
        let mutator = Mutator::directed(self.config.mutate.clone(), distance);
        if let Some(addr) = &self.config.status_addr {
            self.serve_status(addr)
                .map_err(|e| TorpedoError::StatusBind {
                    addr: addr.clone(),
                    source: e,
                })?;
        }
        let status = self.status_shared();
        if let Some(shared) = &status {
            if self.config.events.is_enabled() {
                // Mount the stream for the `/events?since=N` live tail.
                shared.set_events(self.config.events.clone());
            }
        }
        let observer = Driver::new(
            self.config.parallel,
            self.config.kernel.clone(),
            self.config.observer.clone(),
            &self.table,
        )?;
        // The flight recorder exists only when forensics is on; every hook
        // in the stepper is a no-op `if let` otherwise, and none of them
        // touch the campaign RNG — reports are byte-identical either way.
        let mut recorder = self.config.forensics.then(FlightRecorder::default);

        // Checkpoint/replay state. Rendering a bundle at a round boundary
        // needs the per-round journal; both are tracked only when a
        // checkpoint policy, a resume bundle, or the fleet's park path asks
        // for them, so plain campaigns pay nothing.
        let checkpoint = self
            .config
            .checkpoint
            .clone()
            .filter(|c| c.interval_rounds > 0);
        let track_state = checkpoint.is_some() || resume.is_some() || track_for_park;
        // Checkpoint persistence runs off the round critical path on a
        // background thread.
        let ckpt_writer = checkpoint
            .as_ref()
            .map(|_| CheckpointWriter::spawn(telemetry.clone()));

        // Warm-start provenance: corpus-imported programs are lineage
        // roots of round 0 (pre-campaign), recorded before their batch
        // re-records them (first provenance wins in the lineage book).
        if warm_started > 0 {
            if let Some(rec) = recorder.as_mut() {
                let executors = self.config.observer.executors.max(1);
                let first = seeds.programs.len() - warm_started;
                for (i, program) in seeds.programs.iter().enumerate().skip(first) {
                    rec.record_root(ProgramId::of(program), i / executors, 0);
                }
            }
        }

        let batches = seeds.batches(self.config.observer.executors);
        Ok(CampaignRun {
            config: self.config.clone(),
            table: Arc::clone(&self.table),
            status,
            telemetry,
            mutator,
            observer,
            seeds,
            warm_started,
            batches,
            batch_idx: 0,
            cur: None,
            done: false,
            logs: Vec::new(),
            flagged: Vec::new(),
            flagged_ids: HashSet::new(),
            flagged_rounds: 0,
            corpus: Corpus::new(),
            coverage: CoverageSet::new(),
            raw_crashes: Vec::new(),
            recorder,
            rounds_total: 0,
            live_execs: 0,
            live_vtime: Usecs::ZERO,
            live_best: 0.0,
            crash_counts: Default::default(),
            quarantined_ids: Default::default(),
            quarantined: Default::default(),
            checkpoint,
            track_state,
            resume_journal: resume.map(|b| b.journal.clone()).unwrap_or_default(),
            resume_text: resume.map(|b| b.render()),
            resume_rounds: resume.map_or(0, |b| b.rounds),
            resume_verified: resume.is_none(),
            journal: Vec::new(),
            ckpt_writes: 0,
            ckpt_fault_hits: 0,
            last_checkpoint_round: None,
            ckpt_writer,
            events: self.config.events.clone(),
            // Fresh and resumed runs both start at 0: replayed rounds
            // re-emit their events (the fleet deduplicates by sequence),
            // rebuilding the counter to the bundle's recorded value by
            // the time verification compares renders.
            events_seq: 0,
            events_fault_total: 0,
        })
    }
}

/// Outcome of one [`CampaignRun::step`].
#[derive(Debug, Clone)]
pub enum CampaignStep {
    /// One round executed; the summary is the scheduler's feedback signal.
    Ran(RoundSummary),
    /// Every batch is exhausted: call [`CampaignRun::finish`].
    Done,
}

/// What one stepped round produced — the per-execution deltas a fleet
/// scheduler feeds its allocation policy.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// Batch index of the round.
    pub batch: usize,
    /// Global round number (1-based).
    pub round: u64,
    /// The round's oracle score.
    pub score: f64,
    /// Program executions completed this round, summed over executors.
    pub executions: u64,
    /// Total distinct coverage signals after this round.
    pub coverage_signals: usize,
}

/// The in-flight state of one seed batch inside a [`CampaignRun`]. Kept
/// (with `closed` set) after the batch's last round, so park-bundle
/// rendering always has the exact in-round context the checkpoint hook
/// had.
struct BatchCursor {
    programs: Vec<Arc<Program>>,
    prog_ids: Vec<ProgramId>,
    machine: BatchMachine,
    prog_machines: Vec<ProgramStateMachine>,
    round_in_batch: u32,
    /// The machine said [`BatchAction::Stop`] on the last round.
    stopped: bool,
    /// No more rounds run in this batch.
    closed: bool,
}

/// A started campaign, steppable one round at a time.
///
/// Produced by [`Campaign::start`] / [`Campaign::start_resume`];
/// [`Campaign::run`] is exactly `start`, then step-until-[`CampaignStep::Done`],
/// then [`CampaignRun::finish`], so a stepped campaign's report is
/// byte-identical to a driven one's no matter how its steps interleave
/// with other campaigns' — the property the fleet scheduler's bounded
/// execution windows rest on. All run state lives here (the originating
/// [`Campaign`] keeps only the status endpoint), so a run can move across
/// worker threads between steps.
pub struct CampaignRun {
    config: CampaignConfig,
    table: Arc<[SyscallDesc]>,
    status: Option<Arc<StatusShared>>,
    telemetry: Telemetry,
    mutator: Mutator,
    observer: Driver,
    seeds: SeedCorpus,
    warm_started: usize,
    batches: Vec<Vec<Arc<Program>>>,
    batch_idx: usize,
    cur: Option<BatchCursor>,
    done: bool,
    logs: Vec<RoundLog>,
    // Offline flagging (§3.6.1) in one pass over the logs: the first
    // `flagged_rounds` logs are flagged, their findings are in `flagged`
    // in round order, and `flagged_ids` names each finding's program once.
    flagged: Vec<FlaggedFinding>,
    flagged_ids: HashSet<ProgramId>,
    flagged_rounds: usize,
    corpus: Corpus,
    coverage: CoverageSet,
    /// Crash provenance rides along as (batch, round) so a bundle can
    /// point back at the round that killed the container.
    raw_crashes: Vec<(ContainerCrash, Arc<Program>, usize, u64)>,
    recorder: Option<FlightRecorder>,
    rounds_total: u64,
    // Live-page accumulators (only consulted when a status endpoint is
    // up, but cheap enough to keep unconditionally).
    live_execs: u64,
    live_vtime: Usecs,
    live_best: f64,
    // Hot-path identity is the 64-bit ProgramId content hash; the text
    // rendering is produced only on the rare quarantine event (for the
    // report) instead of on every check.
    crash_counts: HashMap<ProgramId, u32>,
    quarantined_ids: BTreeSet<ProgramId>,
    quarantined: BTreeSet<String>,
    checkpoint: Option<CheckpointConfig>,
    track_state: bool,
    resume_journal: Vec<JournalRound>,
    resume_text: Option<String>,
    resume_rounds: u64,
    resume_verified: bool,
    journal: Vec<JournalRound>,
    // The checkpoint-fault ledger: `checkpoint_fault_hit` is rolled at
    // *every* due round — including replayed rounds whose write is
    // skipped — so the counter is a pure function of (seed, round) and
    // resumed reports stay byte-identical.
    ckpt_writes: u64,
    ckpt_fault_hits: u64,
    /// The last non-faulted due checkpoint round, replayed rounds included:
    /// the round its `CheckpointWritten` event carries.
    last_checkpoint_round: Option<u64>,
    ckpt_writer: Option<CheckpointWriter>,
    // The event stream (DESIGN.md §5g). `events_seq` counts every emission
    // point — even with the disabled handle — so it is a pure function of
    // the rounds executed, checkpoints capture it, and replay rebuilds it
    // by re-emitting. `events_fault_total` is the last fault total an
    // emission reported (per-round FaultInjected deltas).
    events: EventLog,
    events_seq: u64,
    events_fault_total: u64,
}

impl CampaignRun {
    /// Execute exactly one round (opening the next batch when needed).
    /// Returns [`CampaignStep::Done`] once every batch is exhausted.
    ///
    /// # Errors
    /// Observer/recovery failures and replay divergence, exactly as
    /// [`Campaign::run`] / [`Campaign::resume`] surface them.
    pub fn step(&mut self, oracle: &dyn Oracle) -> Result<CampaignStep, TorpedoError> {
        loop {
            if self.done {
                return Ok(CampaignStep::Done);
            }
            match &self.cur {
                Some(cur) if !cur.closed => break,
                Some(_) => {
                    self.cur = None;
                    self.batch_idx += 1;
                }
                None => {
                    if !self.open_next_batch()? {
                        self.done = true;
                    }
                }
            }
        }
        let mut cur = self.cur.take().expect("open batch cursor");
        let result = self.exec_round(oracle, &mut cur);
        self.cur = Some(cur);
        result.map(CampaignStep::Ran)
    }

    /// Advance the event sequence and emit when the stream is enabled. The
    /// counter moves unconditionally — it is a pure function of the rounds
    /// executed, so checkpoints capture it and events-on/events-off runs
    /// keep byte-identical bundles.
    fn emit(&mut self, round: u64, kind: EventKind, value: u64, extra: u64, note: &str) {
        self.events_seq += 1;
        self.events
            .emit(self.events_seq, round, kind, value, extra, note);
    }

    /// Advance `batch_idx` to the next non-empty batch and set its cursor
    /// up. `false` when no batches remain.
    fn open_next_batch(&mut self) -> Result<bool, TorpedoError> {
        while self.batch_idx < self.batches.len() {
            let programs = std::mem::take(&mut self.batches[self.batch_idx]);
            if programs.is_empty() {
                self.batch_idx += 1;
                continue;
            }
            // Cached ids, maintained incrementally: recomputed only when a
            // program actually changes (mutation, crash swap, shuffle).
            let prog_ids: Vec<ProgramId> = programs.iter().map(|p| ProgramId::of(p)).collect();
            if let Some(rec) = self.recorder.as_mut() {
                for &id in &prog_ids {
                    rec.record_root(id, self.batch_idx, self.rounds_total + 1);
                }
            }
            let machine = BatchMachine::new(self.config.batch.clone(), &programs);
            let prog_machines: Vec<ProgramStateMachine> = programs
                .iter()
                .map(|_| ProgramStateMachine::new())
                .collect();
            self.observer.restart_crashed()?;
            let closed = self.config.max_rounds_per_batch == 0;
            self.cur = Some(BatchCursor {
                programs,
                prog_ids,
                machine,
                prog_machines,
                round_in_batch: 0,
                stopped: false,
                closed,
            });
            return Ok(true);
        }
        Ok(false)
    }

    /// The round body: everything the old inline loop did for one round,
    /// operating on the open cursor.
    fn exec_round(
        &mut self,
        oracle: &dyn Oracle,
        cur: &mut BatchCursor,
    ) -> Result<RoundSummary, TorpedoError> {
        cur.round_in_batch += 1;
        let batch_idx = self.batch_idx;
        let round_in_batch = cur.round_in_batch;
        let telemetry = self.telemetry.clone();
        let quarantine_threshold = self.config.observer.supervisor.quarantine_threshold;
        // Per-round RNG: reseeded from the deterministic round counter,
        // never carried across rounds. This is the whole checkpoint RNG
        // contract — a bundle records (seed, epoch) instead of StdRng
        // internals, and replaying round N is bitwise-identical no matter
        // where the process restarted.
        let epoch = self.rounds_total;
        let mut rng = StdRng::seed_from_u64(derive_round_seed(self.config.seed, epoch));
        if self.track_state {
            let serialized: Vec<String> = cur
                .programs
                .iter()
                .map(|p| torpedo_prog::serialize(p, &self.table))
                .collect();
            if let Some(expect) = self.resume_journal.get(epoch as usize) {
                if expect.batch != batch_idx as u64 || expect.programs != serialized {
                    return Err(SnapshotError::ReplayDivergence {
                        round: epoch + 1,
                        detail: format!("journaled pre-round programs differ in batch {batch_idx}"),
                    }
                    .into());
                }
            }
            self.journal.push(JournalRound {
                batch: batch_idx as u64,
                programs: serialized,
            });
        }
        let recovery_before = self.observer.recovery();
        let record = self.observer.round(&self.table, &cur.programs)?;
        self.rounds_total += 1;
        let score = {
            let _oracle_span = telemetry.span(SpanKind::Oracle);
            oracle.score(&record.observation)
        };
        if let Some(rec) = self.recorder.as_mut() {
            // Before crash swaps below: these ids are the programs that
            // actually ran this round.
            rec.observe_round(batch_idx, self.rounds_total, score, &cur.prog_ids);
        }

        // The programs that ran, for the round log and the directed
        // counter: crash handling below swaps replacements into the batch.
        // Arc clones share the batch.
        let ran = cur.programs.clone();

        // Coverage feedback → per-program state machines → corpus.
        // The threaded observer reports one slot per *worker*; slots
        // beyond the batch ran the idle default program and carry no
        // per-program feedback (a short final batch must not index
        // past the program vectors).
        let coverage_before = self.coverage.len();
        for (i, report) in record.reports.iter().enumerate().take(cur.programs.len()) {
            let flat = report.coverage.flat();
            let sm = &mut cur.prog_machines[i];
            match sm.stage() {
                crate::prog_sm::ProgStage::Candidate => {
                    if self.coverage.has_new(&flat) {
                        let _ = sm.advance(ProgEvent::NewCoverage);
                    } else {
                        let _ = sm.advance(ProgEvent::NoNewCoverage);
                    }
                }
                crate::prog_sm::ProgStage::Triage => {
                    // Second sighting: verify, merge, admit.
                    let new = self.coverage.merge(&flat);
                    if new > 0 {
                        let _ = sm.advance(ProgEvent::Verified);
                        let _ = sm.advance(ProgEvent::Minimized);
                        let _ = sm.advance(ProgEvent::Smashed);
                        self.corpus.add(CorpusItem {
                            program: Arc::clone(&cur.programs[i]),
                            new_signals: new,
                            best_score: score,
                            flagged: false,
                        });
                    } else {
                        let _ = sm.advance(ProgEvent::Flaky);
                    }
                }
                _ => {}
            }

            // Crashes: record, restart, and swap in a fresh program.
            // A program that keeps killing executors is quarantined.
            if let Some(crash) = &report.crash {
                self.raw_crashes.push((
                    crash.clone(),
                    Arc::clone(&cur.programs[i]),
                    batch_idx,
                    self.rounds_total,
                ));
                self.emit(self.rounds_total, EventKind::Crash, 1, 0, &crash.reason);
                let key = cur.prog_ids[i];
                let count = self.crash_counts.entry(key).or_insert(0);
                *count += 1;
                if *count >= quarantine_threshold && self.quarantined_ids.insert(key) {
                    self.quarantined
                        .insert(torpedo_prog::serialize(&cur.programs[i], &self.table));
                    self.emit(self.rounds_total, EventKind::Quarantine, 1, 0, "");
                    if let Some(rec) = self.recorder.as_mut() {
                        rec.record_quarantine(
                            key,
                            Arc::clone(&cur.programs[i]),
                            batch_idx,
                            self.rounds_total,
                        );
                    }
                }
                self.observer.restart_crashed()?;
                let (fresh, fresh_id) = self.fresh_program(&self.quarantined_ids, &mut rng);
                cur.programs[i] = Arc::new(fresh);
                cur.prog_ids[i] = fresh_id;
                cur.prog_machines[i] = ProgramStateMachine::new();
                if let Some(rec) = self.recorder.as_mut() {
                    rec.record_root(fresh_id, batch_idx, self.rounds_total + 1);
                }
            }
        }

        let round_recovery = self.observer.recovery().since(&recovery_before);
        telemetry.add(CounterId::RecoveryEvents, round_recovery.total());
        if round_recovery.worker_restarts > 0 {
            self.emit(
                self.rounds_total,
                EventKind::WorkerRestart,
                round_recovery.worker_restarts,
                round_recovery.hangs_detected,
                "",
            );
        }
        // Fault emission reads the counters *before* this round's
        // checkpoint-fault roll (a due round's hit lands in the next
        // round's delta) — the one ordering at which every bundle render
        // point (the checkpoint hook, resume verification, and the fleet's
        // between-step park) observes the same sequence value.
        let fault_total = self.fault_counters().total();
        let fault_delta = fault_total.saturating_sub(self.events_fault_total);
        if fault_delta > 0 {
            self.emit(
                self.rounds_total,
                EventKind::FaultInjected,
                fault_delta,
                0,
                "",
            );
        }
        self.events_fault_total = fault_total;
        // Directed telemetry: how many of this round's programs carried a
        // call from the target set (distance 0).
        if let Some(map) = self.mutator.distance() {
            let on_target = ran
                .iter()
                .filter(|p| p.calls.iter().any(|c| map.distance(c.desc) == Some(0)))
                .count() as u64;
            telemetry.add(CounterId::DirectedOnTarget, on_target);
        }
        let executions: u64 = record.reports.iter().map(|r| r.executions).sum();
        // The log keeps the excerpt forensics reads and frees the rest: a
        // deferral-heavy round records thousands of events.
        let mut deferrals = record.deferrals;
        deferrals.truncate(DEFERRAL_EXCERPT_CAP);
        deferrals.shrink_to_fit();
        self.logs.push(RoundLog {
            batch: batch_idx,
            round: self.rounds_total,
            score,
            observation: record.observation,
            programs: ran,
            deferrals,
            executions,
            fatal_signals: record.reports.iter().map(|r| r.fatal_signals).sum(),
            recovery: round_recovery,
        });
        self.emit(
            self.rounds_total,
            EventKind::RoundCompleted,
            executions,
            (self.coverage.len() - coverage_before) as u64,
            "",
        );

        if self.status.is_some() {
            let window = self
                .logs
                .last()
                .expect("round log just pushed")
                .observation
                .window;
            self.live_execs += executions;
            self.live_vtime += window;
            self.live_best = self.live_best.max(score);
            let mut page = live_status_page(
                self.rounds_total,
                self.live_execs,
                self.live_vtime,
                self.live_best,
                self.corpus.len(),
                self.coverage.len(),
                self.raw_crashes.len(),
                &self.observer.recovery(),
            );
            page.push_str(&crate::stats::telemetry_saturation_section(&telemetry));
            if self.checkpoint.is_some() {
                page.push_str(&format!(
                    "checkpoints         {} written, {} faulted\n",
                    self.ckpt_writes, self.ckpt_fault_hits
                ));
            }
            if let Some(shared) = &self.status {
                shared.set_page(page);
            }
        }

        // Batch machine decides what happens next. Stop is handled
        // after the checkpoint hook below so that a checkpoint due
        // on a batch's final round still gets written.
        let (_verdict, action) = cur.machine.on_round(score, &mut cur.programs, &mut rng);
        let stop = matches!(action, BatchAction::Stop);
        match action {
            BatchAction::Stop => {}
            BatchAction::ShuffleAndRun => {
                // The machine shuffled (or reverted) the batch:
                // resync the cached ids with the new order.
                for (id, program) in cur.prog_ids.iter_mut().zip(cur.programs.iter()) {
                    *id = ProgramId::of(program);
                }
            }
            BatchAction::MutateAndRun => {
                let _mutate_span = telemetry.span(SpanKind::Mutate);
                telemetry.add(CounterId::MutationsTotal, cur.programs.len() as u64);
                for (idx, program) in cur.programs.iter_mut().enumerate() {
                    // Lineage parent: hash the program *before* the
                    // in-place mutation overwrites it. `prog_ids[idx]`
                    // can be stale here if the machine just reverted
                    // the batch; hashing is RNG-free so determinism
                    // holds with forensics on or off.
                    let parent_id = self.recorder.as_ref().map(|_| ProgramId::of(program));
                    let donor_pick = torpedo_rng::Rng::gen_range(&mut rng, 0.0..1.0f64);
                    let donor = self.corpus.donor(donor_pick).cloned();
                    // Copy-on-write: only the program being rewritten
                    // is materialized; every other handle stays shared.
                    let op = self.mutator.mutate(
                        Arc::make_mut(program),
                        &self.table,
                        donor.as_deref(),
                        &mut rng,
                    );
                    // Mutation must not resurrect a quarantined
                    // executor-killer.
                    let mut id = ProgramId::of(program);
                    let mut regenerated = false;
                    if self.quarantined_ids.contains(&id) {
                        let (fresh, fresh_id) = self.fresh_program(&self.quarantined_ids, &mut rng);
                        *program = Arc::new(fresh);
                        id = fresh_id;
                        regenerated = true;
                    }
                    cur.prog_ids[idx] = id;
                    if let Some(rec) = self.recorder.as_mut() {
                        if regenerated {
                            rec.record_root(id, batch_idx, self.rounds_total + 1);
                        } else {
                            rec.record_mutation(
                                id,
                                parent_id.expect("captured before mutation"),
                                donor.as_ref().map(|d| ProgramId::of(d)),
                                op,
                                batch_idx,
                                self.rounds_total + 1,
                                score,
                            );
                        }
                    }
                }
            }
        }

        // Checkpoint hook: runs at every due round, after the
        // machine action so the bundle captures next round's
        // pre-state exactly.
        let ckpt_due = self
            .checkpoint
            .as_ref()
            .is_some_and(|c| self.rounds_total.is_multiple_of(c.interval_rounds));
        if ckpt_due {
            let fault = checkpoint_fault_hit(&self.config.observer.faults, self.rounds_total);
            if fault {
                self.ckpt_fault_hits += 1;
                telemetry.incr(CounterId::CheckpointWriteFails);
            } else {
                // Emitted at every non-faulted due round — including
                // replayed ones whose write is skipped below — so the
                // sequence stays a pure function of (config, round) and
                // the bundle rendered inside this hook records the same
                // counter a resumed replay re-derives.
                self.last_checkpoint_round = Some(self.rounds_total);
                self.emit(
                    self.rounds_total,
                    EventKind::CheckpointWritten,
                    self.rounds_total,
                    0,
                    "",
                );
            }
            // Replayed rounds (≤ the resume point) roll the
            // fault but skip the write: those checkpoints
            // already exist on disk.
            if self.rounds_total > self.resume_rounds {
                // Rendering must stay inline (it borrows the
                // live campaign state), but persistence is
                // handed to the background writer: the round
                // loop no longer waits on fsync. The writer
                // records the Checkpoint span per write.
                let text = self.build_bundle(cur, stop).render();
                let (dir, keep) = {
                    let ckpt = self.checkpoint.as_ref().expect("due implies checkpoint");
                    (ckpt.dir.clone(), ckpt.keep)
                };
                let writer = self
                    .ckpt_writer
                    .as_mut()
                    .expect("writer exists with checkpoint");
                writer.submit(dir, text, self.rounds_total, keep, fault)?;
                if !fault {
                    self.ckpt_writes += 1;
                    telemetry.incr(CounterId::CheckpointWrites);
                }
            }
        }

        // Resume verification: at the checkpointed round the live
        // state, re-rendered through the same builder, must equal
        // the loaded bundle byte-for-byte — total-state proof that
        // the replay really reproduced the writer's campaign.
        if !self.resume_verified && self.rounds_total == self.resume_rounds {
            let _ckpt_span = telemetry.span(SpanKind::Checkpoint);
            let live = self.build_bundle(cur, stop).render();
            let expected = self
                .resume_text
                .as_deref()
                .expect("resume text set with bundle");
            if live != expected {
                return Err(SnapshotError::ReplayDivergence {
                    round: self.rounds_total,
                    detail: "re-rendered campaign state differs from the loaded checkpoint".into(),
                }
                .into());
            }
            self.resume_verified = true;
        }

        cur.stopped = stop;
        if stop || round_in_batch >= self.config.max_rounds_per_batch {
            cur.closed = true;
        }
        Ok(RoundSummary {
            batch: batch_idx,
            round: self.rounds_total,
            score,
            executions,
            coverage_signals: self.coverage.len(),
        })
    }

    /// Faults injected so far: the observer's, plus the checkpoint
    /// faults the run's own ledger counts.
    fn fault_counters(&self) -> FaultCounters {
        let mut faults = self.observer.fault_counters();
        faults.checkpoint_write_fail = self.ckpt_fault_hits;
        faults
    }

    /// Render a `torpedo-snapshot-v1` bundle of the current state for the
    /// fleet's park path — exactly the bundle an in-round checkpoint at
    /// this round would have written, so [`Campaign::start_resume`] can
    /// replay back to this point byte-identically. `None` when nothing has
    /// run yet (park as fresh), when the run is already done, or when
    /// state tracking is off (start with `track_for_park`).
    pub fn park_bundle(&self) -> Option<String> {
        if !self.track_state || self.rounds_total == 0 || self.done {
            return None;
        }
        let cur = self.cur.as_ref()?;
        Some(self.build_bundle(cur, cur.stopped).render())
    }

    /// Rounds executed so far (replayed rounds included).
    pub fn rounds_total(&self) -> u64 {
        self.rounds_total
    }

    /// The round of the last checkpoint that was due and not faulted,
    /// replayed rounds included (the fleet's checkpoint-lag input).
    pub fn last_checkpoint_round(&self) -> Option<u64> {
        self.last_checkpoint_round
    }

    /// Every round logged so far.
    pub fn logs(&self) -> &[RoundLog] {
        &self.logs
    }

    /// Flag the logged rounds no earlier call flagged and return the
    /// findings they added: one per program, at the first round that
    /// flagged it. [`CampaignRun::finish`] flags the rest. The pass emits
    /// no event and leaves the event sequence alone, so where callers put
    /// it between steps changes no bundle.
    pub fn flag_new(&mut self, oracle: &dyn Oracle) -> &[FlaggedFinding] {
        let first_new = self.flagged.len();
        for log in &self.logs[self.flagged_rounds..] {
            let violations = Arc::new(oracle.flag(&log.observation));
            if violations.is_empty() {
                continue;
            }
            for program in &log.programs {
                if self.flagged_ids.insert(ProgramId::of(program)) {
                    self.flagged.push(FlaggedFinding {
                        program: Arc::clone(program),
                        violations: Arc::clone(&violations),
                        score: log.score,
                        batch: log.batch,
                        round: log.round,
                    });
                }
            }
        }
        self.flagged_rounds = self.logs.len();
        &self.flagged[first_new..]
    }

    /// Distinct coverage signals observed so far.
    pub fn coverage_signals(&self) -> usize {
        self.coverage.len()
    }

    /// Whether a replay-in-progress has been verified (always true for a
    /// fresh start). Finishing before the resume point is a divergence.
    pub fn replay_verified(&self) -> bool {
        self.resume_verified
    }

    /// `true` once [`CampaignRun::step`] has returned
    /// [`CampaignStep::Done`].
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Assemble the final report: drain the checkpoint writer, flag the
    /// rounds [`CampaignRun::flag_new`] has not, reproduce crashes, package
    /// forensics, and render the final status page. Callable at any step
    /// boundary — the fleet finishes budget-exhausted campaigns early;
    /// flagging simply covers the rounds that ran.
    ///
    /// # Errors
    /// Queued checkpoint-write failures, and replay divergence when a
    /// resumed run never reached its checkpointed round.
    pub fn finish(mut self, oracle: &dyn Oracle) -> Result<CampaignReport, TorpedoError> {
        let telemetry = self.telemetry.clone();
        // Drain the background checkpoint writer before anything below
        // reads campaign results: every queued write lands (or its error
        // surfaces) before the final report is assembled.
        if let Some(writer) = self.ckpt_writer.take() {
            writer.finish()?;
        }

        // Offline flagging (§3.6.1): parse the round logs and isolate
        // adversarial programs asynchronously from execution.
        let flag_span = telemetry.span(SpanKind::Oracle);
        self.flag_new(oracle);
        let mut flagged = std::mem::take(&mut self.flagged);
        flagged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        drop(flag_span);
        telemetry.add(CounterId::FlaggedTotal, flagged.len() as u64);
        // One Flag event per finding, channeled by the strongest violation
        // kind, stamped with the round the finding was *observed* at —
        // logical-time series bucket flags where they happened, not where
        // the offline pass ran. Finish happens exactly once per campaign,
        // so these never replay and need no deduplication.
        let flag_channels: Vec<(u64, String)> = flagged
            .iter()
            .filter_map(|finding| {
                torpedo_oracle::violation::violation_kinds(&finding.violations)
                    .first()
                    .map(|kind| (finding.round, kind.as_str().to_string()))
            })
            .collect();
        for (round, channel) in flag_channels {
            self.emit(round, EventKind::Flag(channel), 1, 0, "");
        }
        // Findings, crashes, and the final round are all in the stream
        // now; persist the journal frame. Sink errors must not void the
        // report — the journal is observability, not ground truth.
        let _ = self.events.flush();

        // Crash reproduction + minimization.
        let raw_crashes = std::mem::take(&mut self.raw_crashes);
        let crash_sites: Vec<(usize, u64)> = raw_crashes
            .iter()
            .map(|(_, _, batch, round)| (*batch, *round))
            .collect();
        let crashes: Vec<CrashRecord> = raw_crashes
            .into_iter()
            .map(|(crash, program, _, _)| {
                reproduce_and_minimize(
                    crash,
                    program,
                    &self.table,
                    &self.config.kernel,
                    &self.config.observer.runtime,
                    CRASH_REPRO_ATTEMPTS,
                )
            })
            .collect();

        let forensics = match self.recorder.as_ref() {
            Some(rec) => {
                let bundles = self.assemble_bundles(
                    rec,
                    oracle,
                    &self.logs,
                    &flagged,
                    &crashes,
                    &crash_sites,
                );
                telemetry.add(CounterId::ForensicsBundles, bundles.len() as u64);
                bundles
            }
            None => Vec::new(),
        };

        if !self.resume_verified {
            // The replay finished without ever reaching the checkpointed
            // round — the resumed campaign cannot have matched the writer.
            return Err(SnapshotError::ReplayDivergence {
                round: self.rounds_total,
                detail: format!(
                    "campaign ended after {} rounds without reaching the \
                     checkpointed round {}",
                    self.rounds_total, self.resume_rounds
                ),
            }
            .into());
        }

        let mut recovery = self.observer.recovery();
        recovery.quarantined_programs = self.quarantined.len() as u64;
        let faults_injected = self.fault_counters();
        let report = CampaignReport {
            rounds_total: self.rounds_total,
            logs: self.logs,
            flagged,
            crashes,
            corpus: self.corpus,
            coverage_signals: self.coverage.len(),
            recovery,
            faults_injected,
            quarantined: self.quarantined.into_iter().collect(),
            forensics,
        };
        telemetry.add(CounterId::FaultsInjected, report.faults_injected.total());
        if let Some(shared) = &self.status {
            // The final page is the full post-campaign stats rendering plus
            // the telemetry-saturation footer (appended here rather than in
            // `render()` so the stats rendering itself stays byte-stable);
            // it stays served until the campaign is dropped.
            let mut page = crate::stats::CampaignStats::from_report(&report).render();
            page.push_str(&crate::stats::telemetry_saturation_section(&telemetry));
            if !report.forensics.is_empty() {
                page.push_str(&format!("forensics bundles   {}\n", report.forensics.len()));
            }
            if self.checkpoint.is_some() {
                page.push_str(&format!(
                    "checkpoints         {} written, {} faulted\n",
                    self.ckpt_writes, self.ckpt_fault_hits
                ));
            }
            shared.set_page(page);
        }
        Ok(report)
    }

    /// Package every flag, crash, and quarantine event into a
    /// [`ForensicsBundle`]. The first [`FORENSICS_MINIMIZE_CAP`] flagged
    /// findings (already sorted best-score-first) also get an oracle-guided
    /// minimization; crash bundles reuse the reproducer minimized against
    /// the crash itself.
    fn assemble_bundles(
        &self,
        rec: &FlightRecorder,
        oracle: &dyn Oracle,
        logs: &[RoundLog],
        flagged: &[FlaggedFinding],
        crashes: &[CrashRecord],
        crash_sites: &[(usize, u64)],
    ) -> Vec<ForensicsBundle> {
        let runtime = self.config.observer.runtime.clone();
        // What every bundle kind reads the same way: runtime, shard, lineage
        // chain, score trajectory and the round log's score, per-core times
        // and deferral excerpt. Each kind then overrides its own fields.
        let bundle = |kind, batch, round, program: &Program, id| {
            let log = logs.iter().find(|l| l.round == round);
            ForensicsBundle {
                kind,
                runtime: runtime.clone(),
                shard: 0,
                batch,
                round,
                score: log.map_or(0.0, |l| l.score),
                program: torpedo_prog::serialize(program, &self.table),
                violations: Vec::new(),
                lineage: rec.chain(id),
                trajectory: rec.trajectory(batch),
                per_core: log
                    .map(|l| l.observation.per_core.clone())
                    .unwrap_or_default(),
                deferrals: log
                    .map(|l| deferral_excerpt(&l.deferrals))
                    .unwrap_or_default(),
                minimization: None,
            }
        };
        let mut bundles = Vec::new();

        let harness = ViolationHarness::new(self.config.kernel.clone(), &runtime);
        for (i, finding) in flagged.iter().enumerate() {
            let minimization = (i < FORENSICS_MINIMIZE_CAP)
                .then(|| minimize_with_oracle(&finding.program, &self.table, oracle, &harness))
                .flatten()
                .map(|m| MinimizationSummary {
                    removed: m.stats.removed as u64,
                    evaluations: m.stats.evaluations as u64,
                    kinds: m.kinds,
                    program: torpedo_prog::serialize(&m.program, &self.table),
                });
            let program = &finding.program;
            bundles.push(ForensicsBundle {
                score: finding.score,
                violations: (*finding.violations).clone(),
                minimization,
                ..bundle(
                    BundleKind::Flag,
                    finding.batch,
                    finding.round,
                    program,
                    ProgramId::of(program),
                )
            });
        }

        for (record, &(batch, round)) in crashes.iter().zip(crash_sites) {
            let minimization = record.minimized.as_ref().map(|m| MinimizationSummary {
                removed: (record.program.len() - m.len()) as u64,
                evaluations: 0,
                kinds: Vec::new(),
                program: torpedo_prog::serialize(m, &self.table),
            });
            let program = &record.program;
            bundles.push(ForensicsBundle {
                minimization,
                ..bundle(
                    BundleKind::Crash,
                    batch,
                    round,
                    program,
                    ProgramId::of(program),
                )
            });
        }

        for (id, program, batch, round) in rec.quarantines() {
            bundles.push(bundle(BundleKind::Quarantine, *batch, *round, program, *id));
        }
        bundles
    }

    /// Generate a replacement program that is not on the quarantine list
    /// (bounded attempts; generation rarely reproduces a quarantined
    /// program exactly). Returns the program with its content id.
    fn fresh_program(
        &self,
        quarantined: &std::collections::BTreeSet<ProgramId>,
        rng: &mut StdRng,
    ) -> (Program, ProgramId) {
        let mut program = Program::default();
        let mut id = ProgramId::of(&program);
        for _ in 0..8 {
            program = torpedo_prog::gen_program_directed(
                &self.table,
                self.config.mutate.max_len,
                &self.config.mutate.denylist,
                self.mutator.distance(),
                rng,
            );
            id = ProgramId::of(&program);
            if !quarantined.contains(&id) {
                break;
            }
        }
        (program, id)
    }

    /// Render the live campaign state into a [`SnapshotBundle`], exactly as
    /// the in-round checkpoint hook would: the cursor supplies the batch
    /// context, everything else comes from the run. Every collection is
    /// serialized in a deterministic order (sorted sets, insertion-ordered
    /// books), so two campaigns in the same state render byte-identical
    /// bundles — the property resume verification rests on.
    fn build_bundle(&self, cur: &BatchCursor, batch_stopped: bool) -> SnapshotBundle {
        let ser = |p: &Arc<Program>| torpedo_prog::serialize(p, &self.table);
        let (state, candidate_score) = match cur.machine.state() {
            BatchState::Mutate => ("mutate", None),
            BatchState::Confirm { candidate_score } => ("confirm", Some(candidate_score)),
            BatchState::Exhausted => ("exhausted", None),
        };
        let mut counts: Vec<(ProgramId, u64)> = self
            .crash_counts
            .iter()
            .map(|(&id, &count)| (id, count as u64))
            .collect();
        counts.sort_by_key(|&(id, _)| id);
        let forensics = self.recorder.as_ref().map(|rec| ForensicsSnapshot {
            evicted: rec.lineage().evicted(),
            lineage: rec.lineage().records_in_order().cloned().collect(),
            trajectories: rec
                .trajectory_batches()
                .into_iter()
                .map(|batch| (batch as u64, rec.trajectory(batch)))
                .collect(),
            quarantines: rec
                .quarantines()
                .iter()
                .map(|(id, program, batch, round)| (*id, ser(program), *batch as u64, *round))
                .collect(),
        });
        SnapshotBundle {
            config: render_campaign_config(&self.config),
            rng_seed: self.config.seed,
            rng_epoch: self.rounds_total,
            rounds: self.rounds_total,
            batch: self.batch_idx as u64,
            round_in_batch: cur.round_in_batch as u64,
            batch_stopped,
            warm_started: self.warm_started as u64,
            events_seq: self.events_seq,
            seeds: self.seeds.programs.iter().map(ser).collect(),
            journal: self.journal.to_vec(),
            machine: MachineSnapshot {
                state: state.to_string(),
                candidate_score,
                best_score: cur.machine.best_score(),
                stale_rounds: cur.machine.stale_rounds() as u64,
                baseline: cur.machine.baseline().iter().map(ser).collect(),
                programs: cur.programs.iter().map(ser).collect(),
                stages: cur
                    .prog_machines
                    .iter()
                    .map(|sm| stage_name(sm.stage()).to_string())
                    .collect(),
            },
            corpus: self
                .corpus
                .items()
                .iter()
                .map(|item| CorpusEntry {
                    signals: item.new_signals as u64,
                    score: item.best_score,
                    flagged: item.flagged,
                    program: ser(&item.program),
                })
                .collect(),
            coverage: self.coverage.signals_sorted(),
            quarantine: QuarantineSnapshot {
                ids: self.quarantined_ids.iter().copied().collect(),
                programs: self.quarantined.iter().cloned().collect(),
                counts,
            },
            crashes: self
                .raw_crashes
                .iter()
                .map(|(crash, program, batch, round)| CrashSite {
                    batch: *batch as u64,
                    round: *round,
                    reason: crash.reason.clone(),
                    syscall: crash.syscall.clone(),
                    args: crash.args,
                    program: ser(program),
                })
                .collect(),
            recovery: self.observer.recovery(),
            faults: self.fault_counters(),
            forensics,
        }
    }
}

/// The mid-campaign status page: what is known *during* the run (flagging is
/// offline, so findings read "pending"). The final page swaps to the full
/// [`crate::stats::CampaignStats`] rendering.
#[allow(clippy::too_many_arguments)]
fn live_status_page(
    rounds: u64,
    executions: u64,
    virtual_time: Usecs,
    best_score: f64,
    corpus: usize,
    signals: usize,
    crashes: usize,
    recovery: &RecoveryStats,
) -> String {
    format!(
        "TORPEDO campaign status (live)\n\
         ==============================\n\
         rounds              {}\n\
         virtual time        {}\n\
         executions          {}\n\
         execs / vsec        {:.1}\n\
         corpus programs     {}\n\
         coverage signals    {}\n\
         crashes collected   {}\n\
         best oracle score   {:.2}\n\
         recovery events     {}\n\
         flagged programs    pending offline analysis\n",
        rounds,
        virtual_time,
        executions,
        safe_div(executions as f64, virtual_time.as_secs_f64()),
        corpus,
        signals,
        crashes,
        best_score,
        recovery.total(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::GlueCost;
    use crate::observer::SupervisorConfig;
    use crate::seeds::default_denylist;
    use torpedo_kernel::Usecs;
    use torpedo_oracle::CpuOracle;
    use torpedo_prog::build_table;
    use torpedo_runtime::FaultConfig;

    fn quick_config(runtime: &str) -> CampaignConfig {
        CampaignConfig {
            observer: ObserverConfig {
                window: Usecs::from_secs(1),
                executors: 3,
                runtime: runtime.to_string(),
                collider: true,
                glue: GlueCost::fuzzing(),
                cpus_per_container: 1.0,
                ..ObserverConfig::default()
            },
            mutate: MutatePolicy {
                denylist: default_denylist(),
                ..MutatePolicy::default()
            },
            max_rounds_per_batch: 6,
            ..CampaignConfig::default()
        }
    }

    fn seeds(texts: &[&str]) -> SeedCorpus {
        SeedCorpus::load(texts, &build_table(), &default_denylist()).unwrap()
    }

    #[test]
    fn campaign_flags_the_socket_storm_on_runc() {
        let campaign = Campaign::new(quick_config("runc"), build_table());
        let corpus = seeds(&[
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "stat(&'/etc/passwd', 0x0)\n",
        ]);
        let report = campaign.run(&corpus, &CpuOracle::new()).unwrap();
        assert!(report.rounds_total >= 2);
        assert!(
            !report.flagged.is_empty(),
            "socket storm must flag the CPU oracle"
        );
        assert!(report.coverage_signals > 0);
    }

    #[test]
    fn stepper_matches_run() {
        let corpus_texts = [
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "stat(&'/etc/passwd', 0x0)\n",
        ];
        let oracle = CpuOracle::new();
        let driven = Campaign::new(quick_config("runc"), build_table())
            .run(&seeds(&corpus_texts), &oracle)
            .unwrap();

        // The same campaign stepped one round at a time, with park-style
        // state tracking on, must produce a byte-identical report.
        let campaign = Campaign::new(quick_config("runc"), build_table());
        let mut run = campaign.start(&seeds(&corpus_texts), true).unwrap();
        let mut rounds = 0u64;
        while let CampaignStep::Ran(summary) = run.step(&oracle).unwrap() {
            rounds += 1;
            assert_eq!(summary.round, rounds);
            assert_eq!(run.rounds_total(), rounds);
            assert!(!run.is_done());
        }
        assert!(run.is_done());
        let stepped = run.finish(&oracle).unwrap();

        assert_eq!(driven.rounds_total, stepped.rounds_total);
        assert_eq!(
            crate::stats::CampaignStats::from_report(&driven).render(),
            crate::stats::CampaignStats::from_report(&stepped).render(),
        );
    }

    #[test]
    fn park_bundle_resumes_byte_identically() {
        let corpus_texts = [
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
        ];
        let oracle = CpuOracle::new();
        let baseline = Campaign::new(quick_config("runc"), build_table())
            .run(&seeds(&corpus_texts), &oracle)
            .unwrap();

        // Step three rounds, park, resume from the in-memory bundle, and
        // drive to completion: the final report must match the
        // uninterrupted baseline byte-for-byte.
        let campaign = Campaign::new(quick_config("runc"), build_table());
        let mut run = campaign.start(&seeds(&corpus_texts), true).unwrap();
        for _ in 0..3 {
            assert!(matches!(run.step(&oracle).unwrap(), CampaignStep::Ran(_)));
        }
        let bundle_text = run.park_bundle().expect("tracked run parks");
        drop(run);
        let bundle = crate::snapshot::parse_snapshot(&bundle_text).unwrap();
        let campaign = Campaign::new(quick_config("runc"), build_table());
        let mut run = campaign.start_resume(&bundle, true).unwrap();
        while matches!(run.step(&oracle).unwrap(), CampaignStep::Ran(_)) {}
        let resumed = run.finish(&oracle).unwrap();

        assert_eq!(baseline.rounds_total, resumed.rounds_total);
        assert_eq!(
            crate::stats::CampaignStats::from_report(&baseline).render(),
            crate::stats::CampaignStats::from_report(&resumed).render(),
        );
    }

    #[test]
    fn campaign_collects_gvisor_crashes() {
        let campaign = Campaign::new(quick_config("runsc"), build_table());
        let corpus = seeds(&[
            "open(&'/lib/x86_64-Linux-gnu/libc.so.6', 0x680002, 0x20)\n",
            "getpid()\n",
            "getuid()\n",
        ]);
        let report = campaign.run(&corpus, &CpuOracle::new()).unwrap();
        assert!(!report.crashes.is_empty(), "open crash must be collected");
        let crash = &report.crashes[0];
        assert!(crash.reproduced);
        assert_eq!(crash.crash.reason, "sentry-panic-open-flags");
    }

    #[test]
    fn parallel_campaign_matches_sequential_findings() {
        let mut config = quick_config("runc");
        config.parallel = true;
        config.max_rounds_per_batch = 4;
        let campaign = Campaign::new(config, build_table());
        let corpus = seeds(&[
            "socket(0x9, 0x3, 0x0)
",
            "getpid()
",
            "getuid()
",
        ]);
        let report = campaign.run(&corpus, &CpuOracle::new()).unwrap();
        assert!(report.rounds_total >= 4);
        assert!(
            !report.flagged.is_empty(),
            "threaded campaign must still flag the storm"
        );
    }

    /// One executor, both observers: the same round logs and recovery
    /// counters, fault-free and under an executor-hang plan, since the two
    /// run one supervised round protocol.
    #[test]
    fn one_executor_campaign_matches_across_observers() {
        let hangs = FaultConfig {
            seed: 5,
            executor_hang: 0.25,
            ..FaultConfig::default()
        };
        for faults in [FaultConfig::default(), hangs] {
            let run = |parallel: bool| {
                let mut config = quick_config("runc");
                config.parallel = parallel;
                config.observer.executors = 1;
                config.observer.faults = faults.clone();
                config.observer.supervisor = SupervisorConfig {
                    stage_timeout: std::time::Duration::from_millis(250),
                    backoff_base: std::time::Duration::from_micros(50),
                    ..SupervisorConfig::default()
                };
                let corpus = seeds(&[
                    "socket(0x9, 0x3, 0x0)\n",
                    "getpid()\nuname(0x0)\n",
                    "sync()\n",
                ]);
                Campaign::new(config, build_table())
                    .run(&corpus, &CpuOracle::new())
                    .unwrap()
            };
            let (seq, par) = (run(false), run(true));
            assert_eq!(format!("{:?}", seq.logs), format!("{:?}", par.logs));
            assert_eq!(seq.recovery, par.recovery);
        }
    }

    #[test]
    fn benign_seeds_on_runc_produce_no_flags() {
        let mut config = quick_config("runc");
        config.max_rounds_per_batch = 3;
        // Paper-sized window: 1-second rounds are legitimately disrupted by
        // absolute-duration noise spikes (§3.4).
        config.observer.window = Usecs::from_secs(4);
        // Mutation could synthesize adversarial calls; pin the batch by
        // denying everything so programs stay benign.
        config.mutate.denylist = build_table()
            .iter()
            .map(|d| d.name.to_string())
            .filter(|n| {
                ![
                    "getpid",
                    "getuid",
                    "uname",
                    "stat",
                    "clock_gettime",
                    "times",
                    "sysinfo",
                    "getcpu",
                    "sched_yield",
                    "capget",
                    "access",
                ]
                .contains(&n.as_str())
            })
            .collect();
        let campaign = Campaign::new(config, build_table());
        let corpus = seeds(&["getpid()\nuname(0x0)\n", "getuid()\n", "times(0x0)\n"]);
        let report = campaign.run(&corpus, &CpuOracle::new()).unwrap();
        assert!(
            report.flagged.is_empty(),
            "benign campaign flagged: {:?}",
            report
                .flagged
                .iter()
                .map(|f| &f.violations)
                .collect::<Vec<_>>()
        );
    }
}
