//! The campaign-fleet scheduler: N admitted campaigns time-sliced into
//! bounded execution windows on a fixed worker pool under one global
//! round budget.
//!
//! A fleet multiplexes many *independent* campaigns — each with its own
//! runtime, kernel config, seed, and oracle — over shared execution
//! capacity, the way a fuzzing service must when thousands of submitted
//! container images compete for one machine.
//!
//! Design invariants (DESIGN.md §5e):
//!
//! * **Windows, not threads.** A campaign never owns a worker; it is
//!   granted a window of at most `window_rounds_max` rounds, runs it via
//!   the [`CampaignRun`] stepper, and returns to the pool.
//! * **Bandit reallocation.** Each generation re-scores every campaign
//!   from its *last window's* oracle-score and coverage deltas per
//!   execution (a power-schedule: hot campaigns get wider windows), with
//!   an explicit starvation bound — a campaign unscheduled for
//!   `starvation_windows` generations is forced to the front.
//! * **Determinism.** Allocation for generation `g` reads only stats
//!   absorbed at the `g−1` barrier, results are absorbed in campaign-id
//!   order, and no wall-clock feeds any decision — the schedule, every
//!   report, and [`FleetOutcome::render`] are a pure function of
//!   (fleet seed, campaign set), invariant under worker count.
//! * **Bounded working set.** With `max_active` set, campaigns outside
//!   the active set park through the PR 6 snapshot path
//!   ([`CampaignRun::park_bundle`] → [`Campaign::start_resume`]) — to a
//!   spill directory when `park_dir` is set, else as an in-memory bundle
//!   string — so a 1,000-campaign fleet holds only `max_active` booted
//!   campaigns.
//!
//! The status endpoint becomes the multi-tenant control plane: the page
//! shows one row per campaign (state, budget share, score trajectory,
//! last flag) and `POST /fleet/submit` / `POST /fleet/cancel` queue
//! admissions and cancellations that drain at the next generation
//! barrier.

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use torpedo_oracle::Oracle;
use torpedo_prog::SyscallDesc;
use torpedo_telemetry::server::query_param;
use torpedo_telemetry::{
    safe_div, ControlApi, Event, EventKind, EventLog, StatusServer, StatusShared, Telemetry,
};

use crate::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRun, CampaignStep};
use crate::error::TorpedoError;
use crate::health::{evaluate as evaluate_health, HealthConfig, HealthSample};
use crate::seeds::{default_denylist, SeedCorpus};
use crate::snapshot::{parse_snapshot, read_text_capped, MAX_SNAPSHOT_BYTES};

/// A shareable oracle handle: fleet workers score windows from any thread.
pub type FleetOracle = Arc<dyn Oracle + Send + Sync>;

/// How the scheduler divides the budget among campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Power-schedule-flavored bandit: window width follows each
    /// campaign's recent score/coverage/flag yield per execution.
    Bandit,
    /// Equal fixed-width windows in admission order (the baseline the
    /// bench compares the bandit against).
    RoundRobin,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet seed, reserved for jittered policies; nothing reads it yet.
    /// The shipped policies are fully determined by campaign stats, so two
    /// fleets with the same campaign set and any worker count produce
    /// identical schedules.
    pub seed: u64,
    /// Worker threads executing windows. `0` means one per available
    /// core. The schedule is worker-count invariant; this only sets
    /// physical parallelism.
    pub workers: usize,
    /// Campaigns allowed to stay booted between generations; the rest
    /// park through the snapshot path. `usize::MAX` (default) keeps every
    /// campaign resident and never parks.
    pub max_active: usize,
    /// Base window width in rounds.
    pub window_rounds: u64,
    /// Hard cap on a single window after bandit scaling.
    pub window_rounds_max: u64,
    /// Starvation bound: a runnable campaign left unscheduled for this
    /// many generations is forced into the next active set.
    pub starvation_windows: u64,
    /// Global execution budget in campaign rounds (replayed unpark rounds
    /// are not charged; only new rounds consume budget).
    pub round_budget: u64,
    /// Stop the whole fleet once this many flagged programs have been
    /// found (the time-to-X-flags bench measures executions to reach it).
    pub stop_after_flags: Option<u64>,
    /// Allocation policy.
    pub policy: FleetPolicy,
    /// Spill directory for parked campaign bundles; `None` parks
    /// in-memory.
    pub park_dir: Option<PathBuf>,
    /// Serve the multi-tenant status page + control API here.
    pub status_addr: Option<String>,
    /// Keep each finished campaign's full [`CampaignReport`] in the
    /// outcome (off by default: a 1,000-campaign fleet's reports dwarf
    /// the row table).
    pub keep_reports: bool,
    /// Fleet event stream (DESIGN.md §5g). When enabled, every admitted
    /// campaign gets a per-tenant buffer drained into this log at
    /// generation barriers (campaign-id order, sequence-deduplicated
    /// against unpark replay), and the scheduler adds its own
    /// park/unpark/schedule-decision/health events — so the journal is
    /// byte-identical across runs and worker counts. Disabled by default;
    /// the schedule and every report are byte-identical either way.
    pub events: EventLog,
    /// Health detectors evaluated at every generation barrier from
    /// absorbed stats only. `None` (default) evaluates nothing.
    pub health: Option<HealthConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0x70CA_F1EE,
            workers: 0,
            max_active: usize::MAX,
            window_rounds: 4,
            window_rounds_max: 16,
            starvation_windows: 4,
            round_budget: 256,
            stop_after_flags: None,
            policy: FleetPolicy::Bandit,
            park_dir: None,
            status_addr: None,
            keep_reports: false,
            events: EventLog::disabled(),
            health: None,
        }
    }
}

/// One campaign submitted to the fleet.
pub struct FleetSpec {
    /// Display name (status rows, logs).
    pub name: String,
    /// The campaign's own configuration — runtime, kernel/cgroup model,
    /// seed, batch tuning all per-tenant.
    pub config: CampaignConfig,
    /// The syscall table the campaign (and its seeds) were built against.
    pub table: Arc<[SyscallDesc]>,
    /// The campaign's seed corpus.
    pub seeds: SeedCorpus,
    /// The campaign's oracle (thresholds are per-tenant too).
    pub oracle: FleetOracle,
}

/// Lifecycle state of a fleet campaign, as shown on the status page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted, never started (or parked before its first round).
    Queued,
    /// Booted and eligible for windows.
    Active,
    /// Evicted from the working set; state lives in a snapshot bundle.
    Parked,
    /// Ran to completion (or was finalized at budget exhaustion).
    Finished,
    /// Cancelled through the control API before completion.
    Cancelled,
    /// Start/park/unpark/step failed; the error is kept on the row.
    Failed,
}

impl CampaignState {
    fn label(self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Active => "active",
            CampaignState::Parked => "parked",
            CampaignState::Finished => "finished",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
        }
    }
}

/// Where a parked campaign's bundle lives.
enum Parked {
    Memory(String),
    Disk(PathBuf),
}

/// The slot holding a campaign's execution state.
enum Slot {
    Queued,
    Active(Box<CampaignRun>),
    Parked(Parked),
    Finished,
    Cancelled,
    Failed,
}

impl Slot {
    fn state(&self) -> CampaignState {
        match self {
            Slot::Queued => CampaignState::Queued,
            Slot::Active(_) => CampaignState::Active,
            Slot::Parked(_) => CampaignState::Parked,
            Slot::Finished => CampaignState::Finished,
            Slot::Cancelled => CampaignState::Cancelled,
            Slot::Failed => CampaignState::Failed,
        }
    }
}

/// One admitted campaign plus the deterministic statistics that drive its
/// budget share. Everything the planner reads lives here and is updated
/// only at generation barriers, in campaign-id order.
struct Entry {
    id: usize,
    name: String,
    campaign: Campaign,
    seeds: SeedCorpus,
    oracle: FleetOracle,
    slot: Slot,
    rounds: u64,
    executions: u64,
    windows: u64,
    flags: u64,
    coverage: usize,
    best_score: f64,
    last_score: f64,
    // Last-window deltas: the bandit's feedback signal.
    w_rounds: u64,
    w_execs: u64,
    w_flags: u64,
    w_cov: u64,
    w_score_gain: f64,
    last_scheduled: u64,
    last_flag_round: Option<u64>,
    /// The run's last checkpoint round (the checkpoint-lag detector's
    /// input), as of the last absorbed window.
    last_checkpoint_round: Option<u64>,
    score_trail: VecDeque<f64>,
    error: Option<String>,
    report: Option<CampaignReport>,
    // Event pipeline state (all deterministic; untouched when the fleet
    // log is disabled).
    /// Per-tenant event buffer the campaign stepper emits into from
    /// worker threads; drained at barriers in campaign-id order.
    tenant_events: EventLog,
    /// Highest campaign-stream sequence absorbed — unpark replay re-emits
    /// earlier sequences and they are skipped here.
    events_cursor: u64,
    /// Consecutive executed windows with zero new coverage (the
    /// coverage-plateau detector's input).
    zero_cov_windows: u64,
    /// Status-page column: the most notable recent event or health
    /// finding.
    last_event: Option<String>,
}

impl Entry {
    fn runnable(&self) -> bool {
        matches!(self.slot, Slot::Queued | Slot::Active(_) | Slot::Parked(_))
    }
}

/// One row of the multi-tenant status table; the deterministic per-
/// campaign summary in [`FleetOutcome`].
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Fleet-assigned campaign id (admission order).
    pub id: usize,
    /// Submitted name.
    pub name: String,
    /// Final lifecycle state.
    pub state: CampaignState,
    /// Campaign rounds executed (replayed rounds counted once).
    pub rounds: u64,
    /// Program executions completed.
    pub executions: u64,
    /// Execution windows granted.
    pub windows: u64,
    /// Flagged programs found (deduplicated by program id).
    pub flags: u64,
    /// Distinct coverage signals.
    pub coverage: usize,
    /// Best oracle score seen.
    pub best_score: f64,
    /// Most recent round's oracle score.
    pub last_score: f64,
    /// Share of the fleet's executed rounds this campaign received.
    pub share_pct: f64,
    /// Recent score trajectory (newest last, bounded).
    pub score_trail: Vec<f64>,
    /// Round of the most recent flag, if any.
    pub last_flag_round: Option<u64>,
    /// Failure detail for [`CampaignState::Failed`] rows.
    pub error: Option<String>,
}

/// What a fleet run produced. [`FleetOutcome::render`] is byte-stable
/// across runs and worker counts; the `*_ns` timing fields are the only
/// nondeterministic members and are excluded from it.
pub struct FleetOutcome {
    /// Per-campaign rows in id order.
    pub rows: Vec<CampaignRow>,
    /// Scheduler generations executed.
    pub generations: u64,
    /// Total campaign rounds executed (budget consumed).
    pub rounds_total: u64,
    /// Total program executions across the fleet.
    pub executions_total: u64,
    /// Total flagged programs across the fleet.
    pub flags_total: u64,
    /// Park events (working-set evictions).
    pub parks: u64,
    /// Unpark events (snapshot resumes).
    pub unparks: u64,
    /// Wall-clock for the whole run (excluded from `render`).
    pub wall_ns: u64,
    /// Time workers spent inside campaign boot/step/finish (excluded from
    /// `render`).
    pub exec_ns: u64,
    /// Time the scheduler spent planning, parking, absorbing, and
    /// rendering (excluded from `render`).
    pub sched_ns: u64,
    /// Finished campaigns' full reports (only with
    /// [`FleetConfig::keep_reports`]).
    pub reports: Vec<(usize, CampaignReport)>,
    /// Cumulative health findings by detector wire name (empty when no
    /// [`FleetConfig::health`] config was set — and then absent from
    /// [`FleetOutcome::render`], keeping pre-observatory reports
    /// byte-identical).
    pub health: Vec<(String, u64)>,
}

impl FleetOutcome {
    /// Scheduler overhead as a percentage of total busy time: the
    /// tentpole perf gate (`< 5%` at 256 campaigns).
    pub fn scheduler_overhead_pct(&self) -> f64 {
        100.0 * safe_div(self.sched_ns as f64, (self.sched_ns + self.exec_ns) as f64)
    }

    /// Deterministic text rendering: the fleet report. Byte-stable across
    /// runs and worker counts (timings are deliberately absent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("TORPEDO fleet report\n");
        out.push_str(&format!(
            "generations {}  rounds {}  executions {}  flags {}  parks {}  unparks {}\n",
            self.generations,
            self.rounds_total,
            self.executions_total,
            self.flags_total,
            self.parks,
            self.unparks,
        ));
        out.push_str(
            "id    state      windows  rounds  share%   execs      flags  coverage  best     last flag  name\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<5} {:<10} {:<8} {:<7} {:<8.3} {:<10} {:<6} {:<9} {:<8.3} {:<10} {}\n",
                row.id,
                row.state.label(),
                row.windows,
                row.rounds,
                row.share_pct,
                row.executions,
                row.flags,
                row.coverage,
                row.best_score,
                row.last_flag_round
                    .map_or_else(|| "-".to_string(), |r| r.to_string()),
                row.name,
            ));
            if let Some(err) = &row.error {
                out.push_str(&format!("      error: {err}\n"));
            }
        }
        if !self.health.is_empty() {
            let parts: Vec<String> = self
                .health
                .iter()
                .map(|(detector, count)| format!("{detector} {count}"))
                .collect();
            out.push_str(&format!("health findings  {}\n", parts.join(", ")));
        }
        out
    }
}

/// Control messages queued by the HTTP control plane, drained at
/// generation barriers.
enum ControlMsg {
    Submit {
        name: String,
        seed: Option<u64>,
        text: String,
    },
    Cancel {
        id: usize,
    },
}

/// The HTTP control plane mounted on the fleet's status endpoint.
/// Submissions are validated eagerly (parse errors answer 400) and
/// re-parsed deterministically at the barrier.
struct FleetControl {
    pending: Mutex<Vec<ControlMsg>>,
    table: Arc<[SyscallDesc]>,
    denylist: std::collections::HashSet<String>,
}

impl ControlApi for FleetControl {
    fn handle(&self, method: &str, target: &str, body: &str) -> Option<(u16, String)> {
        if method != "POST" {
            return None;
        }
        let path = target.split_once('?').map_or(target, |(path, _)| path);
        match path {
            "/fleet/submit" => {
                let name = query_param(target, "name")
                    .unwrap_or("submitted")
                    .to_string();
                let Ok(seed) = query_param(target, "seed").map(str::parse).transpose() else {
                    return Some((400, "malformed seed\n".into()));
                };
                if body.trim().is_empty() {
                    return Some((400, "empty seed program\n".into()));
                }
                if let Err((idx, e)) = SeedCorpus::load(&[body], &self.table, &self.denylist) {
                    return Some((400, format!("seed program {idx} rejected: {e}\n")));
                }
                self.pending
                    .lock()
                    .expect("fleet control lock")
                    .push(ControlMsg::Submit {
                        name,
                        seed,
                        text: body.to_string(),
                    });
                Some((202, "queued\n".into()))
            }
            "/fleet/cancel" => {
                let Some(id) = query_param(target, "id").and_then(|s| s.parse().ok()) else {
                    return Some((400, "missing or malformed id\n".into()));
                };
                self.pending
                    .lock()
                    .expect("fleet control lock")
                    .push(ControlMsg::Cancel { id });
                Some((202, "queued\n".into()))
            }
            _ => None,
        }
    }
}

/// A window handed to the worker pool: the booted run, its oracle and the
/// round target (scoring and flagging happen on the worker, off the
/// scheduler thread).
struct Assignment {
    entry_id: usize,
    run: Box<CampaignRun>,
    oracle: FleetOracle,
    target_rounds: u64,
    rounds_before: u64,
    best_score: f64,
}

/// What came back from one executed window.
struct WindowResult {
    entry_id: usize,
    /// The run, unless it completed (then `report`/`error` is set).
    run: Option<Box<CampaignRun>>,
    report: Option<CampaignReport>,
    error: Option<String>,
    rounds_after: u64,
    executions_delta: u64,
    flags_delta: u64,
    coverage_after: usize,
    last_score: f64,
    best_score: f64,
    last_flag_round: Option<u64>,
    last_checkpoint_round: Option<u64>,
    exec_ns: u64,
}

/// The fleet scheduler. Admit campaigns with [`Fleet::admit`], then
/// [`Fleet::run`] to completion of the global budget.
pub struct Fleet {
    config: FleetConfig,
    entries: Vec<Entry>,
    control: Option<Arc<FleetControl>>,
    generation: u64,
    rounds_spent: u64,
    parks: u64,
    unparks: u64,
    exec_ns: u64,
    sched_ns: u64,
    /// Sequence counter for scheduler-originated events (park, unpark,
    /// schedule-decision, health findings). Campaign-stream events keep
    /// their own per-campaign sequences.
    fleet_seq: u64,
    /// Cumulative health findings by detector wire name.
    health_counts: std::collections::BTreeMap<String, u64>,
}

impl Fleet {
    /// Build an empty fleet.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet {
            config,
            entries: Vec::new(),
            control: None,
            generation: 0,
            rounds_spent: 0,
            parks: 0,
            unparks: 0,
            exec_ns: 0,
            sched_ns: 0,
            fleet_seq: 0,
            health_counts: Default::default(),
        }
    }

    /// Admit one campaign; returns its fleet id (admission order).
    pub fn admit(&mut self, spec: FleetSpec) -> usize {
        let id = self.entries.len();
        let admitted_at = self.generation;
        let mut config = spec.config;
        // Per-tenant event buffer: the stepper emits into it from worker
        // threads; barriers drain it into the fleet log in id order. The
        // submitted config's own handle is always replaced — a template
        // cloned from another entry must not share that entry's tag.
        let tenant_events = if self.config.events.is_enabled() {
            EventLog::enabled().tagged(id as u64)
        } else {
            EventLog::disabled()
        };
        config.events = tenant_events.clone();
        let campaign = Campaign::new(config, spec.table);
        self.entries.push(Entry {
            id,
            name: spec.name,
            campaign,
            seeds: spec.seeds,
            oracle: spec.oracle,
            slot: Slot::Queued,
            rounds: 0,
            executions: 0,
            windows: 0,
            flags: 0,
            coverage: 0,
            best_score: 0.0,
            last_score: 0.0,
            w_rounds: 0,
            w_execs: 0,
            w_flags: 0,
            w_cov: 0,
            w_score_gain: 0.0,
            last_scheduled: admitted_at,
            last_flag_round: None,
            last_checkpoint_round: None,
            score_trail: VecDeque::new(),
            error: None,
            report: None,
            tenant_events,
            events_cursor: 0,
            zero_cov_windows: 0,
            last_event: None,
        });
        id
    }

    /// Emit one scheduler-originated event onto the fleet stream.
    fn emit_fleet(
        &mut self,
        campaign: usize,
        round: u64,
        kind: EventKind,
        value: u64,
        extra: u64,
        note: &str,
    ) {
        if !self.config.events.is_enabled() {
            return;
        }
        self.fleet_seq += 1;
        self.config.events.emit_event(Event {
            campaign: campaign as u64,
            seq: self.fleet_seq,
            round,
            kind,
            value,
            extra,
            note: note.to_string(),
        });
    }

    /// Drain one entry's tenant buffer into the fleet log: events at or
    /// below the absorbed cursor are unpark-replay re-emissions and are
    /// skipped; the rest forward verbatim (campaign tag and sequence
    /// intact) and set the entry's status-page `last_event` column.
    fn drain_entry_events(&mut self, idx: usize) {
        if !self.config.events.is_enabled() {
            return;
        }
        let log = self.config.events.clone();
        let entry = &mut self.entries[idx];
        let mut latest: Option<String> = None;
        let mut notable: Option<String> = None;
        for event in entry.tenant_events.drain() {
            if event.seq <= entry.events_cursor {
                continue;
            }
            entry.events_cursor = event.seq;
            let label = format!("{} @r{}", event.kind.wire_name(), event.round);
            if !matches!(event.kind, EventKind::RoundCompleted) {
                notable = Some(label.clone());
            }
            latest = Some(label);
            log.emit_event(event);
        }
        if let Some(label) = notable.or(latest) {
            entry.last_event = Some(label);
        }
    }

    /// Enable `POST /fleet/submit` on the status endpoint: submitted seed
    /// programs are validated against `table` and admitted as campaigns
    /// cloned from the fleet's first admitted campaign's configuration.
    /// Cancel is always available once a control plane is mounted.
    pub fn enable_submissions(&mut self, table: Arc<[SyscallDesc]>) {
        self.control = Some(Arc::new(FleetControl {
            pending: Mutex::new(Vec::new()),
            table,
            denylist: default_denylist(),
        }));
    }

    /// The mounted control plane, if [`Fleet::enable_submissions`] was
    /// called. Tests (and embedders that already own an HTTP server) can
    /// queue submit/cancel messages through it directly; they drain at the
    /// next generation barrier exactly like HTTP-borne ones.
    pub fn control_api(&self) -> Option<Arc<dyn ControlApi>> {
        self.control.clone().map(|c| c as Arc<dyn ControlApi>)
    }

    /// Whether every campaign parks when evicted (bounded working set).
    fn parking_enabled(&self) -> bool {
        self.config.max_active != usize::MAX
    }

    /// The bandit priority of one runnable entry. Reads only stats
    /// absorbed at generation barriers — deterministic by construction.
    fn priority(&self, entry: &Entry) -> f64 {
        match self.config.policy {
            FleetPolicy::RoundRobin => 1.0,
            FleetPolicy::Bandit => {
                if entry.windows == 0 {
                    // Unexplored arm: optimistic initial estimate.
                    return 1.0;
                }
                // Weights favor *recent deltas* over absolute level: every
                // non-trivial oracle score saturates `s/(1+s)` near 1, so a
                // large score weight would flatten the ranking and the
                // bandit would degenerate to round-robin. Flag rate is
                // scaled ×3 before capping: one flag every three rounds is
                // already a fully-interesting arm.
                let s = entry.last_score.max(0.0);
                let score_part = s / (1.0 + s);
                let gain = entry.w_score_gain.max(0.0);
                let gain_part = gain / (1.0 + gain);
                let cov_rate = safe_div(entry.w_cov as f64, entry.w_execs.max(1) as f64).min(1.0);
                let flag_rate =
                    (3.0 * safe_div(entry.w_flags as f64, entry.w_rounds.max(1) as f64)).min(1.0);
                0.05 + 0.15 * score_part + 0.25 * gain_part + 0.15 * cov_rate + 0.40 * flag_rate
            }
        }
    }

    /// Plan one generation: the chosen campaign ids and their window
    /// widths, in grant order (starvation-forced first, then priority
    /// descending, ties by id).
    fn plan(&self) -> Vec<(usize, u64)> {
        let budget_left = self.config.round_budget.saturating_sub(self.rounds_spent);
        if budget_left == 0 {
            return Vec::new();
        }
        let mut runnable: Vec<(bool, f64, usize)> = self
            .entries
            .iter()
            .filter(|e| e.runnable())
            .map(|e| {
                let starved = self.generation.saturating_sub(e.last_scheduled)
                    >= self.config.starvation_windows;
                (starved, self.priority(e), e.id)
            })
            .collect();
        if runnable.is_empty() {
            return Vec::new();
        }
        let mean = mean_priority(&runnable);
        runnable.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.2.cmp(&b.2))
        });
        let mut remaining = budget_left;
        let mut granted = Vec::new();
        for (_, prio, id) in runnable.into_iter().take(self.config.max_active) {
            if remaining == 0 {
                break;
            }
            let scaled = match self.config.policy {
                FleetPolicy::RoundRobin => self.config.window_rounds,
                FleetPolicy::Bandit => {
                    let w = (self.config.window_rounds as f64 * safe_div(prio, mean)).round();
                    (w as u64).clamp(1, self.config.window_rounds_max)
                }
            };
            let window = scaled.min(remaining);
            remaining -= window;
            granted.push((id, window));
        }
        granted
    }

    /// Park one active entry through the snapshot path.
    fn park_entry(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        let Slot::Active(run) = std::mem::replace(&mut entry.slot, Slot::Queued) else {
            return;
        };
        match run.park_bundle() {
            Some(text) => {
                let parked = match &self.config.park_dir {
                    Some(dir) => {
                        let path = dir.join(format!("{}.json", tenant_file_stem(entry.id)));
                        match std::fs::create_dir_all(dir)
                            .and_then(|()| std::fs::write(&path, &text))
                        {
                            Ok(()) => Parked::Disk(path),
                            // Spill failure degrades to in-memory parking
                            // rather than losing the campaign.
                            Err(_) => Parked::Memory(text),
                        }
                    }
                    None => Parked::Memory(text),
                };
                entry.slot = Slot::Parked(parked);
                self.parks += 1;
            }
            // Nothing ran yet (or tracking is off): restart from scratch
            // later — byte-identical to never having booted.
            None => entry.slot = Slot::Queued,
        }
        let parked = matches!(entry.slot, Slot::Parked(_));
        let rounds = entry.rounds;
        if parked {
            self.emit_fleet(idx, rounds, EventKind::Park, 1, 0, "");
        }
    }

    /// Boot (or resume) the chosen campaigns into worker assignments.
    /// Boot time counts as execution time: a sequential baseline pays the
    /// same boots.
    fn prepare(&mut self, granted: &[(usize, u64)]) -> Vec<Assignment> {
        let track = self.parking_enabled();
        let mut assignments = Vec::with_capacity(granted.len());
        for &(id, window) in granted {
            let boot_start = Instant::now();
            let entry = &mut self.entries[id];
            entry.last_scheduled = self.generation;
            let slot = std::mem::replace(&mut entry.slot, Slot::Queued);
            let was_parked = matches!(slot, Slot::Parked(_));
            let run = match slot {
                Slot::Active(run) => Ok(run),
                Slot::Queued => entry
                    .campaign
                    .start(&entry.seeds, track)
                    .map(Box::new)
                    .map_err(|e| format!("start failed: {e}")),
                Slot::Parked(parked) => {
                    self.unparks += 1;
                    let text = match parked {
                        Parked::Memory(text) => Ok(text),
                        Parked::Disk(path) => read_text_capped(&path, MAX_SNAPSHOT_BYTES)
                            .map_err(|e| format!("unpark read failed: {e}")),
                    };
                    text.and_then(|t| {
                        parse_snapshot(&t).map_err(|e| format!("unpark parse failed: {e}"))
                    })
                    .and_then(|bundle| {
                        entry
                            .campaign
                            .start_resume(&bundle, track)
                            .map(Box::new)
                            .map_err(|e| format!("unpark resume failed: {e}"))
                    })
                }
                finished => {
                    // Cancelled/finished between plan and prepare (control
                    // drain runs before plan, so this is defensive).
                    entry.slot = finished;
                    continue;
                }
            };
            self.exec_ns += boot_start.elapsed().as_nanos() as u64;
            let mut booted = false;
            let rounds_before = entry.rounds;
            match run {
                Ok(run) => {
                    booted = true;
                    assignments.push(Assignment {
                        entry_id: id,
                        run,
                        oracle: Arc::clone(&entry.oracle),
                        target_rounds: rounds_before + window,
                        rounds_before,
                        best_score: entry.best_score,
                    });
                }
                Err(msg) => {
                    entry.slot = Slot::Failed;
                    entry.error = Some(msg);
                }
            }
            if booted {
                if was_parked {
                    self.emit_fleet(id, rounds_before, EventKind::Unpark, 1, 0, "");
                }
                self.emit_fleet(
                    id,
                    rounds_before,
                    EventKind::ScheduleDecision,
                    window,
                    0,
                    "",
                );
            }
        }
        assignments
    }

    /// Absorb a generation's results at the barrier, in campaign-id order,
    /// so every stat the next plan reads is worker-count invariant.
    fn absorb(&mut self, mut results: Vec<WindowResult>) {
        results.sort_by_key(|r| r.entry_id);
        for res in results {
            let entry_id = res.entry_id;
            let entry = &mut self.entries[entry_id];
            let new_rounds = res.rounds_after.saturating_sub(entry.rounds);
            self.rounds_spent += new_rounds;
            self.exec_ns += res.exec_ns;
            entry.w_rounds = new_rounds;
            entry.w_execs = res.executions_delta;
            entry.w_flags = res.flags_delta;
            entry.w_cov = (res.coverage_after.saturating_sub(entry.coverage)) as u64;
            // Coverage-plateau input: executed windows only (a window that
            // was pure unpark replay says nothing about progress).
            if new_rounds > 0 {
                if entry.w_cov == 0 {
                    entry.zero_cov_windows += 1;
                } else {
                    entry.zero_cov_windows = 0;
                }
            }
            entry.w_score_gain = res.best_score - entry.best_score;
            entry.rounds = res.rounds_after;
            entry.executions += res.executions_delta;
            entry.windows += 1;
            entry.flags += res.flags_delta;
            entry.coverage = res.coverage_after;
            entry.best_score = res.best_score;
            entry.last_score = res.last_score;
            if res.last_flag_round.is_some() {
                entry.last_flag_round = res.last_flag_round;
            }
            entry.last_checkpoint_round = res.last_checkpoint_round;
            entry.score_trail.push_back(res.last_score);
            if entry.score_trail.len() > 8 {
                entry.score_trail.pop_front();
            }
            if let Some(msg) = res.error {
                entry.slot = Slot::Failed;
                entry.error = Some(msg);
            } else if let Some(report) = res.report {
                entry.slot = Slot::Finished;
                if self.config.keep_reports {
                    entry.report = Some(report);
                }
            } else if let Some(run) = res.run {
                entry.slot = Slot::Active(run);
            }
            self.drain_entry_events(entry_id);
        }
    }

    /// Drain queued control messages (submissions and cancellations) at
    /// the generation barrier.
    fn drain_control(&mut self) {
        let Some(control) = self.control.clone() else {
            return;
        };
        let pending = std::mem::take(&mut *control.pending.lock().expect("fleet control lock"));
        for msg in pending {
            match msg {
                ControlMsg::Submit { name, seed, text } => {
                    // The template: the first admitted campaign's config
                    // (a fleet with submissions enabled always has one).
                    let Some(template) = self.entries.first().map(|e| {
                        let mut config = e.campaign.config().clone();
                        config.status_addr = None;
                        config
                    }) else {
                        continue;
                    };
                    let mut config = template;
                    if let Some(seed) = seed {
                        config.seed = seed;
                    }
                    // Checkpoints go to a directory of the tenant's own:
                    // sharing the template's would mix both trails and let
                    // keep-N garbage collection prune across them.
                    if let Some(ckpt) = config.checkpoint.as_mut() {
                        ckpt.dir = ckpt.dir.join(tenant_file_stem(self.entries.len()));
                    }
                    let Ok(seeds) =
                        SeedCorpus::load(&[text.as_str()], &control.table, &control.denylist)
                    else {
                        continue;
                    };
                    let oracle = match self.entries.first() {
                        Some(e) => Arc::clone(&e.oracle),
                        None => continue,
                    };
                    self.admit(FleetSpec {
                        name,
                        config,
                        table: Arc::clone(&control.table),
                        seeds,
                        oracle,
                    });
                }
                ControlMsg::Cancel { id } => {
                    if let Some(entry) = self.entries.get_mut(id) {
                        if entry.runnable() {
                            entry.slot = Slot::Cancelled;
                        }
                    }
                }
            }
        }
    }

    /// Evaluate the health detectors at a generation barrier: pure over
    /// barrier-absorbed stats, in campaign-id then detector order, so the
    /// raised findings (and their events) are byte-stable across runs and
    /// worker counts. Returns the rendered `/health` page.
    fn evaluate_fleet_health(&mut self, config: &HealthConfig) -> String {
        let mut raised: Vec<(usize, u64, &'static str, String)> = Vec::new();
        for entry in &self.entries {
            if !entry.runnable() {
                continue;
            }
            let sample = HealthSample {
                rounds: entry.rounds,
                windows: entry.windows,
                w_rounds: entry.w_rounds,
                w_execs: entry.w_execs,
                zero_cov_windows: entry.zero_cov_windows,
                last_checkpoint_round: entry.last_checkpoint_round,
                checkpointing: entry.campaign.config().checkpoint.is_some(),
                generation: self.generation,
                last_scheduled: entry.last_scheduled,
            };
            for finding in evaluate_health(config, &sample) {
                raised.push((
                    entry.id,
                    entry.rounds,
                    finding.detector.as_str(),
                    finding.detail,
                ));
            }
        }
        let mut page = format!("TORPEDO fleet health\ngeneration {}\n", self.generation);
        if raised.is_empty() {
            page.push_str("all clear\n");
            return page;
        }
        for (id, round, detector, detail) in raised {
            page.push_str(&format!("campaign {id}  {detector}: {detail}\n"));
            *self.health_counts.entry(detector.to_string()).or_insert(0) += 1;
            self.entries[id].last_event = Some(format!("health:{detector}"));
            self.emit_fleet(
                id,
                round,
                EventKind::HealthFinding(detector.to_string()),
                1,
                0,
                &detail,
            );
        }
        page
    }

    /// Render the multi-tenant status page (one row per campaign).
    fn status_page(&self) -> String {
        let mut page = String::from("TORPEDO fleet status\n");
        page.push_str(&format!(
            "generation {}  budget {}/{} rounds  parks {}  unparks {}\n\n",
            self.generation, self.rounds_spent, self.config.round_budget, self.parks, self.unparks,
        ));
        page.push_str(
            "id    state      share%   rounds  flags  best     last event                 trail (newest last)\n",
        );
        let total_rounds = self.rounds_spent.max(1);
        for entry in &self.entries {
            let trail: Vec<String> = entry
                .score_trail
                .iter()
                .map(|s| format!("{s:.2}"))
                .collect();
            page.push_str(&format!(
                "{:<5} {:<10} {:<8.3} {:<7} {:<6} {:<8.3} {:<26} {}  {}\n",
                entry.id,
                entry.slot.state().label(),
                100.0 * safe_div(entry.rounds as f64, total_rounds as f64),
                entry.rounds,
                entry.flags,
                entry.best_score,
                entry.last_event.as_deref().unwrap_or("-"),
                trail.join(" "),
                entry.name,
            ));
        }
        page
    }

    fn flags_total(&self) -> u64 {
        self.entries.iter().map(|e| e.flags).sum()
    }

    /// Run the fleet to completion of the global budget (or the flag
    /// target, or until no campaign is runnable), then finalize remaining
    /// active campaigns into reports.
    ///
    /// # Errors
    /// Binding the fleet status endpoint. Per-campaign failures never
    /// abort the fleet; they mark the row [`CampaignState::Failed`].
    pub fn run(mut self) -> Result<FleetOutcome, TorpedoError> {
        let wall_start = Instant::now();
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.workers
        };
        let status = match &self.config.status_addr {
            Some(addr) => {
                // The fleet records no telemetry of its own: `/metrics` is
                // the disabled exposition plus the health gauges.
                let shared = Arc::new(StatusShared::new(Telemetry::disabled()));
                if let Some(control) = &self.control {
                    shared.set_control(Arc::clone(control) as Arc<dyn ControlApi>);
                }
                let server =
                    StatusServer::bind(addr.as_str(), Arc::clone(&shared)).map_err(|e| {
                        TorpedoError::StatusBind {
                            addr: addr.clone(),
                            source: e,
                        }
                    })?;
                Some((shared, server))
            }
            None => None,
        };
        if let Some((shared, _)) = &status {
            if self.config.events.is_enabled() {
                // Mount the fleet log for the `/events?since=N` live tail.
                shared.set_events(self.config.events.clone());
            }
        }

        loop {
            let sched_start = Instant::now();
            self.drain_control();
            let target_met = self
                .config
                .stop_after_flags
                .is_some_and(|target| self.flags_total() >= target);
            let granted = if target_met { Vec::new() } else { self.plan() };
            let mut chosen: HashSet<usize> = granted.iter().map(|(id, _)| *id).collect();
            // Evict actives that lost their slot this generation.
            if self.parking_enabled() {
                let evict: Vec<usize> = self
                    .entries
                    .iter()
                    .filter(|e| matches!(e.slot, Slot::Active(_)) && !chosen.contains(&e.id))
                    .map(|e| e.id)
                    .collect();
                for id in evict {
                    self.park_entry(id);
                }
            }
            chosen.clear();
            if granted.is_empty() {
                self.sched_ns += sched_start.elapsed().as_nanos() as u64;
                break;
            }
            // Boot time inside `prepare` is charged to exec_ns, not
            // sched_ns: the span below subtracts it back out.
            let exec_before_prepare = self.exec_ns;
            let assignments = self.prepare(&granted);
            self.generation += 1;
            let boot_ns = self.exec_ns - exec_before_prepare;
            self.sched_ns += (sched_start.elapsed().as_nanos() as u64).saturating_sub(boot_ns);
            // Workers pull windows from one queue; each window runs to its
            // round target (or campaign completion) without coordination.
            let results = pull_pool(assignments, workers, execute_window);
            let absorb_start = Instant::now();
            self.absorb(results);
            if let Some(health) = self.config.health.clone() {
                let page = self.evaluate_fleet_health(&health);
                if let Some((shared, _)) = &status {
                    shared.set_health_page(page);
                    shared.set_extra_prom(health_prom_chunk(&self.health_counts));
                }
            }
            if let Some((shared, _)) = &status {
                shared.set_page(self.status_page());
            }
            self.sched_ns += absorb_start.elapsed().as_nanos() as u64;
        }

        // Finalize: finish still-active runs (id order) so their findings
        // land in reports even when the budget cut them off mid-campaign.
        // Parked/queued campaigns keep their state — their rows say so.
        let keep_reports = self.config.keep_reports;
        for idx in 0..self.entries.len() {
            let entry = &mut self.entries[idx];
            if !matches!(entry.slot, Slot::Active(_)) {
                continue;
            }
            let Slot::Active(run) = std::mem::replace(&mut entry.slot, Slot::Finished) else {
                unreachable!("checked active above");
            };
            let exec_start = Instant::now();
            let oracle = Arc::clone(&entry.oracle);
            match run.finish(oracle.as_ref()) {
                Ok(report) => {
                    if keep_reports {
                        entry.report = Some(report);
                    }
                }
                Err(e) => {
                    entry.slot = Slot::Failed;
                    entry.error = Some(format!("finish failed: {e}"));
                }
            }
            self.exec_ns += exec_start.elapsed().as_nanos() as u64;
        }
        // Finalized campaigns emitted their flag events into tenant
        // buffers with no barrier left to drain them — absorb the tails
        // in id order and persist the journal frame.
        for idx in 0..self.entries.len() {
            self.drain_entry_events(idx);
        }
        let _ = self.config.events.flush();

        let rounds_total = self.rounds_spent;
        let executions_total = self.entries.iter().map(|e| e.executions).sum();
        let flags_total = self.flags_total();
        let share_base = rounds_total.max(1) as f64;
        let rows = self
            .entries
            .iter()
            .map(|e| CampaignRow {
                id: e.id,
                name: e.name.clone(),
                state: e.slot.state(),
                rounds: e.rounds,
                executions: e.executions,
                windows: e.windows,
                flags: e.flags,
                coverage: e.coverage,
                best_score: e.best_score,
                last_score: e.last_score,
                share_pct: 100.0 * safe_div(e.rounds as f64, share_base),
                score_trail: e.score_trail.iter().copied().collect(),
                last_flag_round: e.last_flag_round,
                error: e.error.clone(),
            })
            .collect();
        let reports = self
            .entries
            .iter_mut()
            .filter_map(|e| e.report.take().map(|r| (e.id, r)))
            .collect();
        let outcome = FleetOutcome {
            rows,
            generations: self.generation,
            rounds_total,
            executions_total,
            flags_total,
            parks: self.parks,
            unparks: self.unparks,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            exec_ns: self.exec_ns,
            sched_ns: self.sched_ns,
            reports,
            health: self
                .health_counts
                .iter()
                .map(|(detector, count)| (detector.clone(), *count))
                .collect(),
        };
        if let Some((shared, _server)) = &status {
            let mut page = self.status_page();
            page.push_str("\nfleet complete\n");
            shared.set_page(page);
        }
        Ok(outcome)
    }
}

/// The name a tenant's files take inside a shared directory: its park
/// spill (`<stem>.json`) and, for a submitted tenant, its checkpoint
/// directory.
fn tenant_file_stem(id: usize) -> String {
    format!("fleet-campaign-{id:05}")
}

/// Run one window to its round target (or campaign completion), then
/// flag it. Rounds at or below `rounds_before` replay an unparked run and
/// count nowhere: their re-flagging only rebuilds the run's dedup set.
/// Everything here is per-campaign deterministic; only the `exec_ns`
/// timing depends on the host.
fn execute_window(mut assignment: Assignment) -> WindowResult {
    let started = Instant::now();
    let oracle: &dyn Oracle = assignment.oracle.as_ref();
    let rounds_before = assignment.rounds_before;
    let mut completed = false;
    let mut error: Option<String> = None;
    let mut executions_delta = 0;
    let mut last_score = f64::NAN;
    let mut best_score = assignment.best_score;
    while assignment.run.rounds_total() < assignment.target_rounds {
        match assignment.run.step(oracle) {
            Ok(CampaignStep::Ran(summary)) => {
                if summary.round > rounds_before {
                    executions_delta += summary.executions;
                    last_score = summary.score;
                    best_score = best_score.max(summary.score);
                }
            }
            Ok(CampaignStep::Done) => {
                completed = true;
                break;
            }
            Err(e) => {
                error = Some(format!("step failed: {e}"));
                break;
            }
        }
    }
    if last_score.is_nan() {
        last_score = 0.0;
    }
    // Flag the window once, after its last step: flagging stays apart
    // from execution (§3.6.1), and no `flag` call lands between two of
    // the window's rounds.
    let (mut flags_delta, mut last_flag_round) = (0, None);
    for finding in assignment.run.flag_new(oracle) {
        if finding.round > rounds_before {
            flags_delta += 1;
            last_flag_round = Some(finding.round);
        }
    }
    let rounds_after = assignment.run.rounds_total();
    let coverage_after = assignment.run.coverage_signals();
    let last_checkpoint_round = assignment.run.last_checkpoint_round();

    let (run, report) = if error.is_some() {
        (None, None)
    } else if completed {
        match assignment.run.finish(oracle) {
            Ok(report) => (None, Some(report)),
            Err(e) => {
                error = Some(format!("finish failed: {e}"));
                (None, None)
            }
        }
    } else {
        (Some(assignment.run), None)
    };

    WindowResult {
        entry_id: assignment.entry_id,
        run,
        report,
        error,
        rounds_after,
        executions_delta,
        flags_delta,
        coverage_after,
        last_score,
        best_score,
        last_flag_round,
        last_checkpoint_round,
        exec_ns: started.elapsed().as_nanos() as u64,
    }
}

/// The Prometheus chunk appended to `/metrics` when health
/// detectors are active: one gauge sample per detector that has ever
/// fired. Deterministic (BTreeMap order) and absent until a finding
/// exists.
fn health_prom_chunk(counts: &std::collections::BTreeMap<String, u64>) -> String {
    if counts.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "# HELP torpedo_fleet_health_findings Cumulative health findings by detector.\n\
         # TYPE torpedo_fleet_health_findings gauge\n",
    );
    for (detector, count) in counts {
        out.push_str(&format!(
            "torpedo_fleet_health_findings{{detector=\"{detector}\"}} {count}\n"
        ));
    }
    out
}

/// Mean priority of the runnable set. Routed through [`safe_div`] so an
/// empty set or a NaN-poisoned oracle score collapses to `0.0` instead of
/// spreading NaN into every bandit window width (a NaN mean would make
/// `safe_div(prio, mean)` zero for *healthy* arms too, and before the
/// guard the bare `/ runnable.len()` panicked analysis tools on the
/// degenerate empty slice).
fn mean_priority(runnable: &[(bool, f64, usize)]) -> f64 {
    if runnable.is_empty() {
        return 0.0;
    }
    safe_div(
        runnable.iter().map(|(_, p, _)| *p).sum::<f64>(),
        runnable.len() as f64,
    )
}

/// Run `job` over every item of `jobs` on `workers` scoped threads that
/// pull from one shared queue, and return the results in job order — so a
/// short job never strands its worker while a long one runs elsewhere, and
/// the output is the same for any worker count.
fn pull_pool<J: Send, R: Send>(
    jobs: Vec<J>,
    workers: usize,
    job: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Take the job in its own statement so the queue guard
                // drops before it runs: no job runs under a lock, so a
                // panicking job (re-raised by the scope) poisons neither.
                let next = queue.lock().expect("pool queue lock").next();
                let Some((i, item)) = next else { break };
                let result = job(item);
                results.lock().expect("pool results lock").push((i, result));
            });
        }
    });
    let mut results = results.into_inner().expect("pool results lock");
    results.sort_unstable_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_priority_guards_empty_and_nan_sets() {
        // Empty runnable set: explicit early-out, never 0/0 = NaN.
        assert_eq!(mean_priority(&[]), 0.0);
        // A single NaN score must not poison the mean.
        let poisoned = [(false, 1.0, 0), (false, f64::NAN, 1)];
        assert_eq!(mean_priority(&poisoned), 0.0);
        let infinite = [(false, f64::INFINITY, 0)];
        assert_eq!(mean_priority(&infinite), 0.0);
        // The healthy path is an ordinary mean.
        let healthy = [(false, 0.2, 0), (true, 0.4, 1)];
        assert!((mean_priority(&healthy) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn degenerate_mean_still_grants_full_windows() {
        // With a zero mean every bandit ratio is 0; the clamp must keep
        // each granted window at >= 1 round rather than 0 (which would
        // burn a generation without scheduling anything).
        let mean = mean_priority(&[]);
        let window_rounds = 8u64;
        let w = (window_rounds as f64 * safe_div(0.7, mean)).round();
        assert_eq!((w as u64).clamp(1, 64), 1);
    }
}
