//! `torpedo-core`: the TORPEDO fuzzing framework (Chapter 3 of the paper).
//!
//! TORPEDO extends the SYZKALLER architecture with in-container fuzzing,
//! resource-utilization feedback, and a two-level state-machine design:
//!
//! * [`executor`] — the container entrypoint: Algorithm 1's
//!   `LoopUntilTime` loop plus program lowering.
//! * [`observer`] — rounds: Algorithm 2's supervised round protocol
//!   (prime, ready, release, collect) with `/proc/stat` and `top`
//!   measurement.
//! * [`prog_sm`] / [`batch`] — the Figure 3.2 (per-program) and
//!   Figure 3.3 (per-batch mutate/shuffle-confirm) state machines.
//! * [`seeds`] — seed ingestion with the blocking-call denylist (§4.1.2).
//! * [`campaign`] — the manager loop over seed batches, with offline
//!   oracle flagging of round logs (§3.6.1).
//! * [`fleet`] — the campaign-fleet scheduler: N admitted campaigns
//!   time-sliced into bounded execution windows on a fixed worker pool
//!   under one global budget, with bandit-style reallocation, a
//!   starvation bound, and park/unpark through the snapshot path.
//! * [`minimize`] — Algorithm 3: oracle-violation-preserving shrinking.
//! * [`mod@confirm`] — the §4.1.4 confirmation harness, classifying root
//!   causes from the kernel's deferral ledger (the ftrace step).
//! * [`crash`] — container-crash reproduction and minimization.
//! * [`error`] — the unified [`TorpedoError`] taxonomy the supervised
//!   recovery machinery dispatches on.
//! * [`forensics`] — mutation lineage, score trajectories, and the
//!   flight recorder that packages a finding into a self-contained
//!   `torpedo-forensics-v1` bundle for offline replay.
//! * [`snapshot`] — durable campaigns: the crash-safe
//!   `torpedo-snapshot-v1` checkpoint bundle, verified byte-identical
//!   resume, and the cross-campaign corpus export/import service.
//! * [`stats`] — campaign counters, including [`RecoveryStats`] for the
//!   fault-injection / supervision subsystem.
//!
//! # Examples
//! ```
//! use torpedo_core::campaign::{Campaign, CampaignConfig};
//! use torpedo_core::observer::ObserverConfig;
//! use torpedo_core::seeds::{default_denylist, SeedCorpus};
//! use torpedo_kernel::Usecs;
//! use torpedo_oracle::CpuOracle;
//! use torpedo_prog::build_table;
//!
//! let table = build_table();
//! let seeds = SeedCorpus::load(&["sync()\n"], &table, &default_denylist()).unwrap();
//! let config = CampaignConfig {
//!     observer: ObserverConfig { window: Usecs::from_secs(1), executors: 1, ..Default::default() },
//!     max_rounds_per_batch: 2,
//!     ..Default::default()
//! };
//! let report = Campaign::new(config, table).run(&seeds, &CpuOracle::new()).unwrap();
//! assert!(report.rounds_total >= 1);
//! ```

pub mod batch;
pub mod campaign;
pub mod confirm;
pub mod crash;
pub mod error;
pub mod executor;
pub mod fleet;
pub mod forensics;
pub mod health;
pub mod logfmt;
pub mod minimize;
pub mod observer;
pub mod parallel;
pub mod prog_sm;
pub mod seeds;
pub mod snapshot;
pub mod stats;

pub use batch::{BatchAction, BatchConfig, BatchMachine, BatchState, RoundVerdict};
pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, CampaignRun, CampaignStep, FlaggedFinding, RoundLog,
    RoundSummary,
};
pub use confirm::{classify, confirm, CauseReport, Confirmation};
pub use crash::{crashes_once, reproduce_and_minimize, CrashRecord};
pub use error::{RoundStage, TorpedoError};
pub use executor::{ExecReport, Executor, GlueCost};
pub use fleet::{
    CampaignRow, CampaignState, Fleet, FleetConfig, FleetOutcome, FleetPolicy, FleetSpec,
};
pub use forensics::{
    deferral_excerpt, parse_bundle, BundleKind, FlightRecorder, ForensicsBundle, LineageBook,
    LineageOp, LineageRecord, MinimizationSummary, TrajectoryPoint, FORENSICS_SCHEMA,
};
pub use health::{
    evaluate as evaluate_health, HealthConfig, HealthDetector, HealthFinding, HealthSample,
};
pub use logfmt::{parse_json, parse_log, write_round, JsonValue, LogParseError, ParsedRound};
pub use minimize::{minimize_with_oracle, OracleMinimized, ViolationHarness};
pub use observer::{Observer, ObserverConfig, RoundRecord, SupervisorConfig};
pub use parallel::ParallelObserver;
pub use prog_sm::{InvalidTransition, ProgEvent, ProgStage, ProgramStateMachine};
pub use seeds::{default_denylist, filter_denylisted, SeedCorpus};
pub use snapshot::{
    derive_round_seed, export_corpus, import_corpus, load_checkpoint, load_latest, parse_snapshot,
    read_text_capped, render_campaign_config, write_checkpoint, CheckpointConfig, SnapshotBundle,
    SnapshotError, CORPUS_SCHEMA, SNAPSHOT_SCHEMA,
};
pub use stats::{telemetry_saturation_section, CampaignStats, RecoveryStats};
// Telemetry lives in its own crate (the runtime engine feeds it too);
// re-exported here so campaign callers need only one import root.
pub use torpedo_telemetry::{
    safe_div, CounterId, HistogramId, SpanKind, StatusServer, StatusShared, Telemetry,
};
