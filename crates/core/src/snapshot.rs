//! Durable campaigns: the versioned `torpedo-snapshot-v1` checkpoint bundle
//! and the crash-safe write/load protocol around it.
//!
//! A checkpoint captures the *entire* campaign state at a round boundary —
//! seeds, the per-round journal, batch-machine state, coverage, corpus,
//! quarantine ledger, crash sites, recovery/fault counters, and the
//! forensics flight recorder — so a killed campaign can resume and finish
//! with a **byte-identical** report and logfmt stream:
//!
//! - **RNG contract.** The campaign never serializes raw `StdRng`
//!   internals. Every round reseeds from
//!   [`derive_round_seed`]`(campaign_seed, epoch)` — a splitmix64-derived
//!   stream keyed by the deterministic round counter — so the bundle only
//!   has to record the seed and the epoch, and no checkpoint depends on
//!   `StdRng`'s internal layout.
//! - **Resume = verified replay.** [`crate::campaign::Campaign::resume`]
//!   re-executes rounds `1..=r` through the exact live code path (the
//!   per-round reseed makes this identical by construction), verifying each
//!   round's pre-round programs against the bundle journal and, at round
//!   `r`, the full re-rendered bundle against the loaded text. Divergence
//!   surfaces as [`SnapshotError::ReplayDivergence`] instead of silently
//!   corrupted results.
//! - **Crash-safe writes.** [`write_checkpoint`] writes a temp file, fsyncs
//!   it, and atomically renames it into place; stale checkpoints beyond
//!   `keep` are garbage-collected and orphaned temp files cleaned up. A
//!   death mid-rename (simulated by
//!   [`torpedo_runtime::FaultKind::CheckpointWriteFail`]) leaves the
//!   previous good checkpoint loadable.
//! - **Corruption detection.** The bundle's last member is an FNV-64 hash
//!   of everything before it; truncation and bit-rot are rejected with
//!   typed errors and [`load_latest`] falls back to the next newest good
//!   checkpoint.
//!
//! The same module hosts the cross-campaign corpus service
//! ([`export_corpus`] / [`import_corpus`]): a `torpedo-corpus-v1` text file
//! that warm-starts a new campaign from a prior run's corpus, deduplicated
//! by [`ProgramId`] with provenance stamped into the lineage book.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use torpedo_prog::{Corpus, CorpusItem, ProgramId, SyscallDesc};
use torpedo_runtime::FaultCounters;
use torpedo_telemetry::wire::{
    self, escape, need, need_array, need_bool, need_f64, need_str, need_u64,
};
use torpedo_telemetry::{SpanKind, Telemetry};

use crate::campaign::CampaignConfig;
use crate::forensics::{
    parse_lineage_record, push_lineage_record, push_str_member, LineageRecord, TrajectoryPoint,
};
use crate::logfmt::{parse_json, JsonValue, LogParseError};
use crate::prog_sm::ProgStage;
use crate::stats::RecoveryStats;

/// Schema tag carried by every checkpoint bundle.
pub const SNAPSHOT_SCHEMA: &str = "torpedo-snapshot-v1";
/// Schema tag (first line) of an exported corpus file.
pub const CORPUS_SCHEMA: &str = "torpedo-corpus-v1";
/// The RNG scheme name bundles record (see [`derive_round_seed`]).
pub const RNG_SCHEME: &str = "round-splitmix64";
/// Hard cap on a checkpoint bundle's size (reject anything larger as
/// [`SnapshotError::Oversized`] before parsing).
pub const MAX_SNAPSHOT_BYTES: usize = 64 * 1024 * 1024;
/// Hard cap on an imported corpus file's size.
pub const MAX_CORPUS_BYTES: usize = 16 * 1024 * 1024;
/// Checkpoint file name prefix (`torpedo-snapshot-<round>.json`).
pub const CHECKPOINT_PREFIX: &str = "torpedo-snapshot-";
/// Checkpoint file name suffix.
pub const CHECKPOINT_SUFFIX: &str = ".json";

/// Checkpointing policy, carried as
/// [`crate::campaign::CampaignConfig::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory checkpoints are written into (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every this many global rounds (0 disables).
    pub interval_rounds: u64,
    /// Newest checkpoints retained; older ones are garbage-collected.
    pub keep: usize,
}

impl CheckpointConfig {
    /// A policy writing to `dir` every 16 rounds, keeping the 3 newest.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            interval_rounds: 16,
            keep: 3,
        }
    }
}

/// Everything that can go wrong loading, parsing, or replaying a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The input exceeds the size cap for its kind.
    Oversized {
        /// The cap that was enforced.
        limit: usize,
        /// The actual size encountered.
        actual: usize,
    },
    /// The bundle text is cut short: the trailing hash member is missing
    /// or mangled (the classic kill-mid-write shape).
    Truncated,
    /// The embedded content hash does not match the text (bit rot, or a
    /// hand-edited bundle).
    HashMismatch {
        /// Hash recorded in the bundle.
        expected: u64,
        /// Hash of the text actually read.
        actual: u64,
    },
    /// Structurally invalid JSON or a field outside the wire vocabulary.
    Parse(String),
    /// The schema tag names a different format (or version).
    SchemaMismatch {
        /// What this build understands.
        expected: &'static str,
        /// What the input declared.
        found: String,
    },
    /// The resuming campaign's configuration differs from the one the
    /// bundle was written under — replay would not be byte-identical.
    ConfigMismatch,
    /// Replay re-executed a round differently than the bundle recorded.
    ReplayDivergence {
        /// The global round that diverged.
        round: u64,
        /// What differed.
        detail: String,
    },
    /// No loadable checkpoint exists in the directory.
    NoCheckpoint {
        /// The directory scanned.
        dir: PathBuf,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot i/o error on {}: {source}", path.display())
            }
            SnapshotError::Oversized { limit, actual } => {
                write!(
                    f,
                    "snapshot input oversized: {actual} bytes (limit {limit})"
                )
            }
            SnapshotError::Truncated => {
                write!(f, "snapshot truncated: trailing hash member missing")
            }
            SnapshotError::HashMismatch { expected, actual } => write!(
                f,
                "snapshot hash mismatch: recorded {expected:#018x}, computed {actual:#018x}"
            ),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            SnapshotError::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot schema mismatch: expected '{expected}', found '{found}'"
                )
            }
            SnapshotError::ConfigMismatch => write!(
                f,
                "snapshot config mismatch: the resuming campaign is configured differently \
                 from the one that wrote the checkpoint"
            ),
            SnapshotError::ReplayDivergence { round, detail } => {
                write!(f, "replay diverged at round {round}: {detail}")
            }
            SnapshotError::NoCheckpoint { dir } => {
                write!(f, "no loadable checkpoint in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The RNG seed for global round `epoch` (0-based) of a campaign seeded
/// with `campaign_seed`.
///
/// A splitmix64 step over a stream-tagged combination of seed and epoch.
/// The function is pure: a checkpoint only records `(seed, epoch)` — never
/// raw `StdRng` internals — so bundles do not depend on the generator's
/// internal layout.
pub fn derive_round_seed(campaign_seed: u64, epoch: u64) -> u64 {
    let mut z = (campaign_seed ^ 0x2545_F491_4F6C_DD1D)
        .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes` — the bundle's embedded content hash.
pub use torpedo_telemetry::wire::fnv64;

/// One journaled round: which batch ran and the serialized programs as
/// they stood *before* the round executed (pre-crash-swap, pre-mutation).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRound {
    /// Batch index.
    pub batch: u64,
    /// Serialized pre-round programs, executor-indexed.
    pub programs: Vec<String>,
}

/// The batch state machine and live batch at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    /// Batch-machine state name (`mutate` / `confirm` / `exhausted`).
    pub state: String,
    /// The candidate score, when the machine is confirming.
    pub candidate_score: Option<f64>,
    /// Best confirmed score so far.
    pub best_score: f64,
    /// Rounds without improvement.
    pub stale_rounds: u64,
    /// The confirmed-baseline programs (serialized).
    pub baseline: Vec<String>,
    /// The live batch programs (serialized, post-action).
    pub programs: Vec<String>,
    /// Per-program state-machine stage names, executor-indexed.
    pub stages: Vec<String>,
}

/// One admitted corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// New signals contributed at admission.
    pub signals: u64,
    /// Best oracle score observed.
    pub score: f64,
    /// Whether an oracle flagged it.
    pub flagged: bool,
    /// The program (serialized).
    pub program: String,
}

/// The quarantine ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineSnapshot {
    /// Quarantined program ids, ascending.
    pub ids: Vec<ProgramId>,
    /// Quarantined programs (serialized), sorted.
    pub programs: Vec<String>,
    /// Per-program crash counts, sorted by id.
    pub counts: Vec<(ProgramId, u64)>,
}

/// One raw crash site (pre-reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSite {
    /// Batch the crash happened in.
    pub batch: u64,
    /// Global round of the crash.
    pub round: u64,
    /// Machine-readable crash reason.
    pub reason: String,
    /// The syscall that triggered it.
    pub syscall: String,
    /// Raw syscall arguments at crash time.
    pub args: [u64; 6],
    /// The crashing program (serialized).
    pub program: String,
}

/// The forensics flight recorder's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForensicsSnapshot {
    /// Lineage records evicted to stay within capacity.
    pub evicted: u64,
    /// Retained lineage records, FIFO order.
    pub lineage: Vec<LineageRecord>,
    /// Per-batch score trajectories, batch-ascending.
    pub trajectories: Vec<(u64, Vec<TrajectoryPoint>)>,
    /// Quarantine events: (id, serialized program, batch, round).
    pub quarantines: Vec<(ProgramId, String, u64, u64)>,
}

/// A parsed (or about-to-be-rendered) `torpedo-snapshot-v1` bundle.
///
/// [`SnapshotBundle::render`] and [`parse_snapshot`] are mutually inverse
/// fixed points: `render ∘ parse` is the identity on any rendered text,
/// which is what lets resume verify a re-rendered live state against the
/// loaded checkpoint by plain string comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotBundle {
    /// The canonical config fragment ([`render_campaign_config`]).
    pub config: String,
    /// The campaign RNG seed.
    pub rng_seed: u64,
    /// The deterministic reseed counter (== rounds completed).
    pub rng_epoch: u64,
    /// Global rounds completed at checkpoint time.
    pub rounds: u64,
    /// Batch index the campaign stood in.
    pub batch: u64,
    /// Rounds completed within that batch.
    pub round_in_batch: u64,
    /// Whether the batch machine had just stopped the batch.
    pub batch_stopped: bool,
    /// Trailing count of `seeds` that came from a warm-start corpus.
    pub warm_started: u64,
    /// Event-stream sequence counter at the checkpointed round. Advances
    /// even when no event sink is mounted, so events-on and events-off
    /// checkpoints cross-resume and replay re-derives it exactly.
    pub events_seq: u64,
    /// The effective seed programs (serialized), including warm-start.
    pub seeds: Vec<String>,
    /// Per-round journal, round-ascending.
    pub journal: Vec<JournalRound>,
    /// Batch machine + live batch.
    pub machine: MachineSnapshot,
    /// The admitted corpus, admission order.
    pub corpus: Vec<CorpusEntry>,
    /// Distinct coverage signals, ascending.
    pub coverage: Vec<u64>,
    /// The quarantine ledger.
    pub quarantine: QuarantineSnapshot,
    /// Raw crash sites, event order.
    pub crashes: Vec<CrashSite>,
    /// Recovery counters at checkpoint time.
    pub recovery: RecoveryStats,
    /// Fault-injection counters at checkpoint time.
    pub faults: FaultCounters,
    /// Flight-recorder state, when forensics was on.
    pub forensics: Option<ForensicsSnapshot>,
}

/// Render the canonical config fragment a bundle embeds: every knob that
/// influences campaign determinism, in fixed order. The checkpoint
/// directory and warm-start corpus are deliberately excluded (resuming
/// from a copied directory is legal); kernel, glue and supervisor configs
/// are folded into one fingerprint.
pub fn render_campaign_config(config: &CampaignConfig) -> String {
    let o = &config.observer;
    let f = &o.faults;
    let m = &config.mutate;
    let b = &config.batch;
    let mut denylist: Vec<&str> = m.denylist.iter().map(|s| s.as_str()).collect();
    denylist.sort_unstable();
    let env = fnv64(format!("{:?}|{:?}|{:?}", config.kernel, o.glue, o.supervisor).as_bytes());
    let (ckpt_interval, ckpt_keep) = config
        .checkpoint
        .as_ref()
        .map_or((0, 0), |c| (c.interval_rounds, c.keep));
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "{{\"seed\":{},\"executors\":{},\"window_us\":{},",
        config.seed, o.executors, o.window.0
    ));
    push_str_member(&mut out, "runtime", &o.runtime);
    out.push_str(&format!(
        ",\"collider\":{},\"cpus_per_container\":{},\"parallel\":{},\
         \"max_rounds_per_batch\":{},\"crash_repro_attempts\":3,\"shard_index\":0,\
         \"forensics\":{},\"quarantine_threshold\":{},\
         \"checkpoint_interval\":{ckpt_interval},\"checkpoint_keep\":{ckpt_keep},",
        o.collider,
        o.cpus_per_container,
        config.parallel,
        config.max_rounds_per_batch,
        config.forensics,
        o.supervisor.quarantine_threshold,
    ));
    match &config.directed {
        Some(target) => {
            out.push_str("\"directed\":\"");
            escape(&mut out, &target.render());
            out.push_str("\",");
        }
        None => out.push_str("\"directed\":null,"),
    }
    out.push_str(&format!(
        "\"memory_bytes\":{},",
        o.memory_bytes_per_container.unwrap_or(0)
    ));
    out.push_str(&format!(
        "\"batch\":{{\"equivalence_band\":{},\"significance\":{},\"patience\":{}}},",
        b.equivalence_band, b.significance, b.patience
    ));
    out.push_str(&format!(
        "\"mutate\":{{\"max_len\":{},\"w_splice\":{},\"w_add\":{},\"w_remove\":{},\
         \"w_mutate_arg\":{},\"denylist\":[",
        m.max_len, m.w_splice, m.w_add, m.w_remove, m.w_mutate_arg
    ));
    for (i, name) in denylist.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape(&mut out, name);
        out.push('"');
    }
    out.push_str(&format!(
        "]}},\"faults\":{{\"seed\":{},\"start_fail\":{},\"cgroup_write_fail\":{},\
         \"container_crash\":{},\"exec_error\":{},\"executor_hang\":{},\
         \"checkpoint_write_fail\":{}}},\"env_fingerprint\":\"{env:#018x}\"}}",
        f.seed,
        f.start_fail,
        f.cgroup_write_fail,
        f.container_crash,
        f.exec_error,
        f.executor_hang,
        f.checkpoint_write_fail,
    ));
    out
}

/// Stable wire name of a per-program stage.
pub fn stage_name(stage: ProgStage) -> &'static str {
    match stage {
        ProgStage::Candidate => "candidate",
        ProgStage::Triage => "triage",
        ProgStage::Minimize => "minimize",
        ProgStage::Smash => "smash",
        ProgStage::Corpus => "corpus",
        ProgStage::Discarded => "discarded",
    }
}

fn push_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape(out, item);
        out.push('"');
    }
    out.push(']');
}

impl SnapshotBundle {
    /// Serialize the bundle. Floats use Rust's shortest-round-trip `{}`
    /// formatting and 64-bit values (ids, signals, hashes, syscall args)
    /// are hex strings — the workspace JSON value is an `f64` and must
    /// never be asked to carry full `u64` precision. The trailing member
    /// is the FNV-64 hash of everything before it.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\"schema\":\"{SNAPSHOT_SCHEMA}\","));
        push_str_member(&mut out, "config", &self.config);
        out.push_str(&format!(
            ",\"rng\":{{\"scheme\":\"{RNG_SCHEME}\",\"seed\":\"{:#018x}\",\"epoch\":{}}},\
             \"rounds\":{},\"position\":{{\"batch\":{},\"round_in_batch\":{},\
             \"batch_stopped\":{}}},\"warm_started\":{},\"events_seq\":{},\"seeds\":",
            self.rng_seed,
            self.rng_epoch,
            self.rounds,
            self.batch,
            self.round_in_batch,
            self.batch_stopped,
            self.warm_started,
            self.events_seq,
        ));
        push_str_array(&mut out, &self.seeds);
        out.push_str(",\"journal\":[");
        for (i, round) in self.journal.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"batch\":{},\"programs\":", round.batch));
            push_str_array(&mut out, &round.programs);
            out.push('}');
        }
        out.push_str("],\"machine\":{");
        push_str_member(&mut out, "state", &self.machine.state);
        out.push_str(&format!(
            ",\"candidate_score\":{},\"best_score\":{},\"stale_rounds\":{},\"baseline\":",
            self.machine
                .candidate_score
                .map_or("null".to_string(), |s| s.to_string()),
            self.machine.best_score,
            self.machine.stale_rounds,
        ));
        push_str_array(&mut out, &self.machine.baseline);
        out.push_str(",\"programs\":");
        push_str_array(&mut out, &self.machine.programs);
        out.push_str(",\"stages\":");
        push_str_array(&mut out, &self.machine.stages);
        out.push_str("},\"corpus\":[");
        for (i, entry) in self.corpus.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"signals\":{},\"score\":{},\"flagged\":{},",
                entry.signals, entry.score, entry.flagged
            ));
            push_str_member(&mut out, "program", &entry.program);
            out.push('}');
        }
        out.push_str("],\"coverage\":[");
        for (i, sig) in self.coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{sig:#018x}\""));
        }
        out.push_str("],\"quarantine\":{\"ids\":[");
        for (i, id) in self.quarantine.ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{id}\""));
        }
        out.push_str("],\"programs\":");
        push_str_array(&mut out, &self.quarantine.programs);
        out.push_str(",\"counts\":[");
        for (i, (id, count)) in self.quarantine.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":\"{id}\",\"count\":{count}}}"));
        }
        out.push_str("]},\"crashes\":[");
        for (i, site) in self.crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"batch\":{},\"round\":{},",
                site.batch, site.round
            ));
            push_str_member(&mut out, "reason", &site.reason);
            out.push(',');
            push_str_member(&mut out, "syscall", &site.syscall);
            out.push_str(",\"args\":[");
            for (j, arg) in site.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{arg:#018x}\""));
            }
            out.push_str("],");
            push_str_member(&mut out, "program", &site.program);
            out.push('}');
        }
        let r = &self.recovery;
        let f = &self.faults;
        out.push_str(&format!(
            "],\"stats\":{{\"recovery\":{{\"worker_restarts\":{},\
             \"hangs_detected\":{},\"rounds_retried\":{},\"rounds_salvaged\":{},\
             \"start_failures\":{},\"quarantined_programs\":{}}},\
             \"faults\":{{\"start_fail\":{},\"cgroup_write_fail\":{},\"container_crash\":{},\
             \"exec_error\":{},\"executor_hang\":{},\"checkpoint_write_fail\":{}}}}},\
             \"forensics\":",
            r.worker_restarts,
            r.hangs_detected,
            r.rounds_retried,
            r.rounds_salvaged,
            r.start_failures,
            r.quarantined_programs,
            f.start_fail,
            f.cgroup_write_fail,
            f.container_crash,
            f.exec_error,
            f.executor_hang,
            f.checkpoint_write_fail,
        ));
        match &self.forensics {
            None => out.push_str("null"),
            Some(fx) => {
                out.push_str(&format!("{{\"evicted\":{},\"lineage\":[", fx.evicted));
                for (i, record) in fx.lineage.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_lineage_record(&mut out, record);
                }
                out.push_str("],\"trajectories\":[");
                for (i, (batch, points)) in fx.trajectories.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"batch\":{batch},\"points\":["));
                    for (j, p) in points.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{{\"round\":{},\"score\":{}}}", p.round, p.score));
                    }
                    out.push_str("]}");
                }
                out.push_str("],\"quarantines\":[");
                for (i, (id, program, batch, round)) in fx.quarantines.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"id\":\"{id}\","));
                    push_str_member(&mut out, "program", program);
                    out.push_str(&format!(",\"batch\":{batch},\"round\":{round}}}"));
                }
                out.push_str("]}");
            }
        }
        let hash = fnv64(out.as_bytes());
        out.push_str(&format!(",\"hash\":\"{hash:#018x}\"}}"));
        out
    }
}

/// Check the trailing hash member: returns the hashed body on success.
fn verify_hash(text: &str) -> Result<(), SnapshotError> {
    let idx = text.rfind(",\"hash\":\"").ok_or(SnapshotError::Truncated)?;
    let (body, tail) = text.split_at(idx);
    // The tail must be exactly `,"hash":"0x<16 hex>"}` — anything else
    // means the write died mid-stream.
    let digits = tail
        .strip_prefix(",\"hash\":\"0x")
        .and_then(|t| t.strip_suffix("\"}"))
        .ok_or(SnapshotError::Truncated)?;
    if digits.len() != 16 {
        return Err(SnapshotError::Truncated);
    }
    let expected = u64::from_str_radix(digits, 16).map_err(|_| SnapshotError::Truncated)?;
    let actual = fnv64(body.as_bytes());
    if expected != actual {
        return Err(SnapshotError::HashMismatch { expected, actual });
    }
    Ok(())
}

fn parse_err(e: LogParseError) -> SnapshotError {
    SnapshotError::Parse(e.message)
}

fn need_hex(doc: &JsonValue, key: &str) -> Result<u64, SnapshotError> {
    let text = need_str(doc, key).map_err(parse_err)?;
    hex_u64(text).ok_or_else(|| SnapshotError::Parse(format!("member '{key}' not a hex u64")))
}

fn hex_u64(text: &str) -> Option<u64> {
    let digits = text.strip_prefix("0x")?;
    u64::from_str_radix(digits, 16).ok()
}

fn need_str_array(doc: &JsonValue, key: &str) -> Result<Vec<String>, SnapshotError> {
    let mut out = Vec::new();
    for item in need_array(doc, key).map_err(parse_err)? {
        out.push(
            item.as_str()
                .ok_or_else(|| SnapshotError::Parse(format!("'{key}' item not a string")))?
                .to_string(),
        );
    }
    Ok(out)
}

fn need_id(doc: &JsonValue, key: &str) -> Result<ProgramId, SnapshotError> {
    ProgramId::parse_hex(need_str(doc, key).map_err(parse_err)?)
        .ok_or_else(|| SnapshotError::Parse(format!("bad program id in '{key}'")))
}

/// Parse a `torpedo-snapshot-v1` bundle back from its rendered text.
///
/// # Errors
/// [`SnapshotError::Oversized`] past [`MAX_SNAPSHOT_BYTES`],
/// [`SnapshotError::Truncated`] / [`SnapshotError::HashMismatch`] when the
/// integrity check fails, [`SnapshotError::SchemaMismatch`] for a foreign
/// schema tag, and [`SnapshotError::Parse`] for anything structurally off.
pub fn parse_snapshot(text: &str) -> Result<SnapshotBundle, SnapshotError> {
    if text.len() > MAX_SNAPSHOT_BYTES {
        return Err(SnapshotError::Oversized {
            limit: MAX_SNAPSHOT_BYTES,
            actual: text.len(),
        });
    }
    verify_hash(text)?;
    let doc = parse_json(text).map_err(parse_err)?;
    let schema = need_str(&doc, "schema").map_err(parse_err)?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(SnapshotError::SchemaMismatch {
            expected: SNAPSHOT_SCHEMA,
            found: schema.to_string(),
        });
    }
    let rng = need(&doc, "rng").map_err(parse_err)?;
    let scheme = need_str(rng, "scheme").map_err(parse_err)?;
    if scheme != RNG_SCHEME {
        return Err(SnapshotError::SchemaMismatch {
            expected: RNG_SCHEME,
            found: scheme.to_string(),
        });
    }
    let position = need(&doc, "position").map_err(parse_err)?;

    let mut journal = Vec::new();
    for round in need_array(&doc, "journal").map_err(parse_err)? {
        journal.push(JournalRound {
            batch: need_u64(round, "batch").map_err(parse_err)?,
            programs: need_str_array(round, "programs")?,
        });
    }

    let machine_doc = need(&doc, "machine").map_err(parse_err)?;
    let state = need_str(machine_doc, "state")
        .map_err(parse_err)?
        .to_string();
    if !matches!(state.as_str(), "mutate" | "confirm" | "exhausted") {
        return Err(SnapshotError::Parse(format!(
            "unknown machine state '{state}'"
        )));
    }
    let candidate_score = match need(machine_doc, "candidate_score").map_err(parse_err)? {
        JsonValue::Null => None,
        value => Some(
            value
                .as_f64()
                .ok_or_else(|| SnapshotError::Parse("candidate_score not a number".into()))?,
        ),
    };
    let machine = MachineSnapshot {
        state,
        candidate_score,
        best_score: need_f64(machine_doc, "best_score").map_err(parse_err)?,
        stale_rounds: need_u64(machine_doc, "stale_rounds").map_err(parse_err)?,
        baseline: need_str_array(machine_doc, "baseline")?,
        programs: need_str_array(machine_doc, "programs")?,
        stages: need_str_array(machine_doc, "stages")?,
    };

    let mut corpus = Vec::new();
    for entry in need_array(&doc, "corpus").map_err(parse_err)? {
        corpus.push(CorpusEntry {
            signals: need_u64(entry, "signals").map_err(parse_err)?,
            score: need_f64(entry, "score").map_err(parse_err)?,
            flagged: need_bool(entry, "flagged").map_err(parse_err)?,
            program: need_str(entry, "program").map_err(parse_err)?.to_string(),
        });
    }

    let mut coverage = Vec::new();
    for sig in need_array(&doc, "coverage").map_err(parse_err)? {
        let text = sig
            .as_str()
            .ok_or_else(|| SnapshotError::Parse("coverage signal not a string".into()))?;
        coverage.push(
            hex_u64(text)
                .ok_or_else(|| SnapshotError::Parse("coverage signal not a hex u64".into()))?,
        );
    }

    let quarantine_doc = need(&doc, "quarantine").map_err(parse_err)?;
    let mut quarantine = QuarantineSnapshot {
        ids: Vec::new(),
        programs: need_str_array(quarantine_doc, "programs")?,
        counts: Vec::new(),
    };
    for id in need_array(quarantine_doc, "ids").map_err(parse_err)? {
        let text = id
            .as_str()
            .ok_or_else(|| SnapshotError::Parse("quarantine id not a string".into()))?;
        quarantine.ids.push(
            ProgramId::parse_hex(text)
                .ok_or_else(|| SnapshotError::Parse("bad quarantine id".into()))?,
        );
    }
    for count in need_array(quarantine_doc, "counts").map_err(parse_err)? {
        quarantine.counts.push((
            need_id(count, "id")?,
            need_u64(count, "count").map_err(parse_err)?,
        ));
    }

    let mut crashes = Vec::new();
    for site in need_array(&doc, "crashes").map_err(parse_err)? {
        let args_doc = need_array(site, "args").map_err(parse_err)?;
        if args_doc.len() != 6 {
            return Err(SnapshotError::Parse("crash args not 6 entries".into()));
        }
        let mut args = [0u64; 6];
        for (slot, arg) in args.iter_mut().zip(args_doc) {
            let text = arg
                .as_str()
                .ok_or_else(|| SnapshotError::Parse("crash arg not a string".into()))?;
            *slot = hex_u64(text)
                .ok_or_else(|| SnapshotError::Parse("crash arg not a hex u64".into()))?;
        }
        crashes.push(CrashSite {
            batch: need_u64(site, "batch").map_err(parse_err)?,
            round: need_u64(site, "round").map_err(parse_err)?,
            reason: need_str(site, "reason").map_err(parse_err)?.to_string(),
            syscall: need_str(site, "syscall").map_err(parse_err)?.to_string(),
            args,
            program: need_str(site, "program").map_err(parse_err)?.to_string(),
        });
    }

    let stats = need(&doc, "stats").map_err(parse_err)?;
    let recovery_doc = need(stats, "recovery").map_err(parse_err)?;
    let recovery = RecoveryStats {
        worker_restarts: need_u64(recovery_doc, "worker_restarts").map_err(parse_err)?,
        hangs_detected: need_u64(recovery_doc, "hangs_detected").map_err(parse_err)?,
        rounds_retried: need_u64(recovery_doc, "rounds_retried").map_err(parse_err)?,
        rounds_salvaged: need_u64(recovery_doc, "rounds_salvaged").map_err(parse_err)?,
        start_failures: need_u64(recovery_doc, "start_failures").map_err(parse_err)?,
        quarantined_programs: need_u64(recovery_doc, "quarantined_programs").map_err(parse_err)?,
    };
    let faults_doc = need(stats, "faults").map_err(parse_err)?;
    let faults = FaultCounters {
        start_fail: need_u64(faults_doc, "start_fail").map_err(parse_err)?,
        cgroup_write_fail: need_u64(faults_doc, "cgroup_write_fail").map_err(parse_err)?,
        container_crash: need_u64(faults_doc, "container_crash").map_err(parse_err)?,
        exec_error: need_u64(faults_doc, "exec_error").map_err(parse_err)?,
        executor_hang: need_u64(faults_doc, "executor_hang").map_err(parse_err)?,
        checkpoint_write_fail: need_u64(faults_doc, "checkpoint_write_fail").map_err(parse_err)?,
    };

    let forensics = match need(&doc, "forensics").map_err(parse_err)? {
        JsonValue::Null => None,
        fx => {
            let mut lineage = Vec::new();
            for record in need_array(fx, "lineage").map_err(parse_err)? {
                lineage.push(parse_lineage_record(record).map_err(parse_err)?);
            }
            let mut trajectories = Vec::new();
            for series in need_array(fx, "trajectories").map_err(parse_err)? {
                let mut points = Vec::new();
                for p in need_array(series, "points").map_err(parse_err)? {
                    points.push(TrajectoryPoint {
                        round: need_u64(p, "round").map_err(parse_err)?,
                        score: need_f64(p, "score").map_err(parse_err)?,
                    });
                }
                trajectories.push((need_u64(series, "batch").map_err(parse_err)?, points));
            }
            let mut quarantines = Vec::new();
            for event in need_array(fx, "quarantines").map_err(parse_err)? {
                quarantines.push((
                    need_id(event, "id")?,
                    need_str(event, "program").map_err(parse_err)?.to_string(),
                    need_u64(event, "batch").map_err(parse_err)?,
                    need_u64(event, "round").map_err(parse_err)?,
                ));
            }
            Some(ForensicsSnapshot {
                evicted: need_u64(fx, "evicted").map_err(parse_err)?,
                lineage,
                trajectories,
                quarantines,
            })
        }
    };

    Ok(SnapshotBundle {
        config: need_str(&doc, "config").map_err(parse_err)?.to_string(),
        rng_seed: need_hex(rng, "seed")?,
        rng_epoch: need_u64(rng, "epoch").map_err(parse_err)?,
        rounds: need_u64(&doc, "rounds").map_err(parse_err)?,
        batch: need_u64(position, "batch").map_err(parse_err)?,
        round_in_batch: need_u64(position, "round_in_batch").map_err(parse_err)?,
        batch_stopped: need_bool(position, "batch_stopped").map_err(parse_err)?,
        warm_started: need_u64(&doc, "warm_started").map_err(parse_err)?,
        events_seq: need_u64(&doc, "events_seq").map_err(parse_err)?,
        seeds: need_str_array(&doc, "seeds")?,
        journal,
        machine,
        corpus,
        coverage,
        quarantine,
        crashes,
        recovery,
        faults,
        forensics,
    })
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> SnapshotError + '_ {
    move |source| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Read a text file, rejecting anything larger than `limit` *before*
/// buffering it — the typed-loader contract every snapshot consumer (and
/// the devtools inspectors) share instead of panicking on garbage input.
pub fn read_text_capped(path: &Path, limit: usize) -> Result<String, SnapshotError> {
    wire::read_capped(path, limit).map_err(|e| match e {
        wire::ReadError::Io(source) => io_err(path)(source),
        wire::ReadError::Oversized { actual } => SnapshotError::Oversized { limit, actual },
    })
}

/// The checkpoint file name for `round`.
pub fn checkpoint_file_name(round: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{round:08}{CHECKPOINT_SUFFIX}")
}

fn checkpoint_round(name: &str) -> Option<u64> {
    name.strip_prefix(CHECKPOINT_PREFIX)?
        .strip_suffix(CHECKPOINT_SUFFIX)?
        .parse()
        .ok()
}

/// Crash-safely write `text` as the checkpoint for `round` into `dir`:
/// temp file → fsync → atomic rename, then garbage-collect everything
/// beyond the `keep` newest checkpoints and any orphaned temp files.
///
/// `die_before_rename` simulates the injected
/// [`torpedo_runtime::FaultKind::CheckpointWriteFail`]: the temp file is
/// written and synced but never renamed — exactly the state a process
/// killed mid-rename leaves behind — and `Ok(None)` is returned. The
/// previous good checkpoint stays untouched and loadable.
///
/// # Errors
/// [`SnapshotError::Io`] on any filesystem failure.
pub fn write_checkpoint(
    dir: &Path,
    text: &str,
    round: u64,
    keep: usize,
    die_before_rename: bool,
) -> Result<Option<PathBuf>, SnapshotError> {
    fs::create_dir_all(dir).map_err(io_err(dir))?;
    let target = dir.join(checkpoint_file_name(round));
    let tmp = wire::temp_path(&target);
    wire::write_synced(&tmp, text.as_bytes()).map_err(io_err(&tmp))?;
    if die_before_rename {
        return Ok(None);
    }
    wire::commit_rename(&tmp, &target).map_err(io_err(&target))?;
    gc_checkpoints(dir, keep)?;
    Ok(Some(target))
}

/// Remove checkpoints beyond the `keep` newest, plus orphaned temp files.
fn gc_checkpoints(dir: &Path, keep: usize) -> Result<(), SnapshotError> {
    let mut rounds: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err(dir))? {
        let entry = entry.map_err(io_err(dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with('.') && name.ends_with(".tmp") {
            // A temp file left by a died-mid-rename write: dead by
            // definition once a later write succeeded.
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if let Some(round) = checkpoint_round(name) {
            rounds.push((round, entry.path()));
        }
    }
    rounds.sort_by_key(|r| std::cmp::Reverse(r.0));
    for (_, path) in rounds.into_iter().skip(keep.max(1)) {
        let _ = fs::remove_file(path);
    }
    Ok(())
}

/// One queued checkpoint write, carrying everything [`write_checkpoint`]
/// needs so the campaign loop can hand the rendered text off and move on.
struct CheckpointJob {
    dir: PathBuf,
    text: String,
    round: u64,
    keep: usize,
    die_before_rename: bool,
}

/// Asynchronous checkpoint persistence: rendering stays on the campaign's
/// round path (it borrows live state), but the fsync-heavy
/// [`write_checkpoint`] call moves to a dedicated background thread fed
/// over an in-order channel. FIFO submission preserves the keep-N
/// garbage-collection order, so the on-disk directory is byte-identical
/// to writing each bundle inline — only the timing moves.
///
/// The writer records one [`SpanKind::Checkpoint`] span per completed
/// write (timed around `write_checkpoint` itself), so the span count
/// equals the number of writes.
pub struct CheckpointWriter {
    tx: Option<std::sync::mpsc::Sender<CheckpointJob>>,
    handle: Option<std::thread::JoinHandle<Result<(), SnapshotError>>>,
}

impl CheckpointWriter {
    /// Start a background writer thread.
    pub fn spawn(telemetry: Telemetry) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<CheckpointJob>();
        let handle = std::thread::Builder::new()
            .name("torpedo-ckpt".into())
            .spawn(move || {
                for job in rx {
                    let start = std::time::Instant::now();
                    write_checkpoint(
                        &job.dir,
                        &job.text,
                        job.round,
                        job.keep,
                        job.die_before_rename,
                    )?;
                    telemetry
                        .record_span_ns(SpanKind::Checkpoint, start.elapsed().as_nanos() as u64);
                }
                Ok(())
            })
            .expect("spawn checkpoint writer thread");
        Self {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queue one checkpoint write.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] from a failed earlier write, once the writer
    /// thread has died on it (the error is joined and propagated). A
    /// writer that has reported its failure refuses every later write.
    pub fn submit(
        &mut self,
        dir: PathBuf,
        text: String,
        round: u64,
        keep: usize,
        die_before_rename: bool,
    ) -> Result<(), SnapshotError> {
        let Some(tx) = &self.tx else {
            return Err(SnapshotError::Io {
                path: dir,
                source: std::io::Error::other("checkpoint writer stopped after a failed write"),
            });
        };
        let job = CheckpointJob {
            dir,
            text,
            round,
            keep,
            die_before_rename,
        };
        if tx.send(job).is_ok() {
            return Ok(());
        }
        // The receiver is gone: the writer thread died on an I/O error.
        // Join it to surface the real failure.
        self.tx = None;
        match self.handle.take().map(|h| h.join()) {
            Some(Ok(result)) => result,
            _ => Ok(()), // panicked; nothing better to report
        }
    }

    /// Drain all queued writes and stop the writer thread, surfacing any
    /// write error. Call before reading checkpoint state back (e.g. final
    /// report assembly or resume verification of the last round).
    ///
    /// # Errors
    /// [`SnapshotError::Io`] from any queued write that failed.
    pub fn finish(mut self) -> Result<(), SnapshotError> {
        drop(self.tx.take());
        match self.handle.take().map(|h| h.join()) {
            Some(Ok(result)) => result,
            _ => Ok(()),
        }
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Load one checkpoint file: size cap, integrity check, parse.
pub fn load_checkpoint(path: &Path) -> Result<SnapshotBundle, SnapshotError> {
    let text = read_text_capped(path, MAX_SNAPSHOT_BYTES)?;
    parse_snapshot(&text)
}

/// Load the newest *loadable* checkpoint in `dir`, falling back past
/// corrupt or truncated files to the next newest good one.
///
/// # Errors
/// [`SnapshotError::NoCheckpoint`] when the directory holds no loadable
/// checkpoint (the last corruption error is swallowed in favor of the
/// uniform "nothing to resume from" signal callers branch on).
pub fn load_latest(dir: &Path) -> Result<(SnapshotBundle, PathBuf), SnapshotError> {
    let mut rounds: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(round) = name.to_str().and_then(checkpoint_round) {
                rounds.push((round, entry.path()));
            }
        }
    }
    // Round-descending, then path-descending so same-round files from
    // different campaigns are visited in a deterministic order.
    rounds.sort_by(|a, b| b.cmp(a));
    for (_, path) in rounds {
        if let Ok(bundle) = load_checkpoint(&path) {
            return Ok((bundle, path));
        }
    }
    Err(SnapshotError::NoCheckpoint {
        dir: dir.to_path_buf(),
    })
}

/// Export `corpus` as a `torpedo-corpus-v1` text: a schema header line on
/// top of the corpus's own on-disk form, suitable for warm-starting a
/// later campaign via [`crate::campaign::CampaignConfig::warm_start`].
pub fn export_corpus(corpus: &Corpus, table: &[SyscallDesc]) -> String {
    format!("# {CORPUS_SCHEMA}\n{}", corpus.save(table))
}

/// Import a corpus exported by [`export_corpus`], deduplicated by
/// [`ProgramId`] (first entry wins — the export order is score-relevant).
///
/// # Errors
/// [`SnapshotError::Oversized`] past [`MAX_CORPUS_BYTES`],
/// [`SnapshotError::SchemaMismatch`] without the header line, and
/// [`SnapshotError::Parse`] when an entry's program fails to parse.
pub fn import_corpus(text: &str, table: &[SyscallDesc]) -> Result<Corpus, SnapshotError> {
    if text.len() > MAX_CORPUS_BYTES {
        return Err(SnapshotError::Oversized {
            limit: MAX_CORPUS_BYTES,
            actual: text.len(),
        });
    }
    let Some(rest) = text.strip_prefix(&format!("# {CORPUS_SCHEMA}\n")) else {
        return Err(SnapshotError::SchemaMismatch {
            expected: CORPUS_SCHEMA,
            found: text.lines().next().unwrap_or("").to_string(),
        });
    };
    let loaded = Corpus::load(rest, table)
        .map_err(|(idx, e)| SnapshotError::Parse(format!("corpus entry {idx}: {e:?}")))?;
    let mut out = Corpus::new();
    let mut seen: HashMap<ProgramId, ()> = HashMap::new();
    for item in loaded.items() {
        let id = ProgramId::of(&item.program);
        if seen.insert(id, ()).is_none() {
            out.add(CorpusItem {
                program: Arc::clone(&item.program),
                new_signals: item.new_signals,
                best_score: item.best_score,
                flagged: item.flagged,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_prog::build_table;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "torpedo-snapshot-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bundle() -> SnapshotBundle {
        SnapshotBundle {
            config: render_campaign_config(&CampaignConfig::default()),
            rng_seed: 0x70CA_FE42,
            rng_epoch: 12,
            rounds: 12,
            batch: 1,
            round_in_batch: 4,
            batch_stopped: false,
            warm_started: 1,
            events_seq: 17,
            seeds: vec!["getpid()\n".into(), "socket(0x9, 0x3, 0x0)\n".into()],
            journal: vec![JournalRound {
                batch: 0,
                programs: vec!["getpid()\n".into()],
            }],
            machine: MachineSnapshot {
                state: "confirm".into(),
                candidate_score: Some(31.25),
                best_score: 17.5,
                stale_rounds: 2,
                baseline: vec!["getpid()\n".into()],
                programs: vec!["socket(0x9, 0x3, 0x0)\n".into()],
                stages: vec!["triage".into()],
            },
            corpus: vec![CorpusEntry {
                signals: 3,
                score: 17.5,
                flagged: true,
                program: "socket(0x9, 0x3, 0x0)\n".into(),
            }],
            coverage: vec![0x1, 0xFFFF_FFFF_FFFF_FFFF],
            quarantine: QuarantineSnapshot {
                ids: vec![ProgramId(0xabc)],
                programs: vec!["uname(0x0)\n".into()],
                counts: vec![(ProgramId(0xabc), 3)],
            },
            crashes: vec![CrashSite {
                batch: 0,
                round: 7,
                reason: "sentry-panic-open-flags".into(),
                syscall: "open".into(),
                args: [0x680002, 0x20, 0, 0, 0, u64::MAX],
                program: "open(&'/lib/libc.so.6', 0x680002, 0x20)\n".into(),
            }],
            recovery: RecoveryStats {
                worker_restarts: 1,
                ..RecoveryStats::default()
            },
            faults: FaultCounters {
                checkpoint_write_fail: 2,
                ..FaultCounters::default()
            },
            forensics: Some(ForensicsSnapshot {
                evicted: 0,
                lineage: vec![LineageRecord {
                    id: ProgramId(0xabc),
                    parent: None,
                    donor: None,
                    op: None,
                    batch: 0,
                    round: 1,
                    shard: 0,
                    pre_score: 0.0,
                    post_score: Some(17.5),
                }],
                trajectories: vec![(
                    0,
                    vec![TrajectoryPoint {
                        round: 1,
                        score: 17.5,
                    }],
                )],
                quarantines: vec![(ProgramId(0xabc), "uname(0x0)\n".into(), 0, 7)],
            }),
        }
    }

    #[test]
    fn bundle_round_trips_as_a_fixed_point() {
        let bundle = sample_bundle();
        let text = bundle.render();
        assert!(text.starts_with("{\"schema\":\"torpedo-snapshot-v1\""));
        let back = parse_snapshot(&text).unwrap();
        assert_eq!(back, bundle);
        assert_eq!(back.render(), text, "render ∘ parse must be the identity");
    }

    #[test]
    fn u64_precision_survives_the_round_trip() {
        // 2^53+1 is unrepresentable as f64 — hex-string serialization must
        // carry it exactly.
        let mut bundle = sample_bundle();
        bundle.coverage = vec![(1u64 << 53) + 1, u64::MAX - 1];
        let back = parse_snapshot(&bundle.render()).unwrap();
        assert_eq!(back.coverage, bundle.coverage);
        assert_eq!(back.crashes[0].args[5], u64::MAX);
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let text = sample_bundle().render();
        // Truncated anywhere: the trailing hash member is gone or mangled.
        for cut in [text.len() - 1, text.len() - 10, text.len() / 2, 1] {
            assert!(
                matches!(parse_snapshot(&text[..cut]), Err(SnapshotError::Truncated)),
                "cut at {cut} must read as truncated"
            );
        }
        // A flipped byte in the body: hash mismatch.
        let corrupt = text.replacen("\"rounds\":12", "\"rounds\":13", 1);
        assert!(matches!(
            parse_snapshot(&corrupt),
            Err(SnapshotError::HashMismatch { .. })
        ));
        // A foreign schema (with a valid hash) is rejected as such.
        let mut foreign = sample_bundle();
        foreign.config = "{}".into();
        let foreign_text =
            foreign
                .render()
                .replacen("torpedo-snapshot-v1", "torpedo-snapshot-v9", 1);
        let body_end = foreign_text.rfind(",\"hash\":\"").unwrap();
        let rehashed = format!(
            "{},\"hash\":\"{:#018x}\"}}",
            &foreign_text[..body_end],
            fnv64(&foreign_text.as_bytes()[..body_end])
        );
        assert!(matches!(
            parse_snapshot(&rehashed),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn write_load_gc_and_fault_simulation() {
        let dir = temp_dir("write-gc");
        let bundle = sample_bundle();
        let text = bundle.render();
        for round in [4u64, 8, 12, 16] {
            write_checkpoint(&dir, &text, round, 2, false).unwrap();
        }
        // GC keeps the 2 newest.
        let names: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().to_str().and_then(checkpoint_round))
            .collect();
        assert_eq!(names.len(), 2, "gc must keep 2: {names:?}");
        assert!(names.contains(&12) && names.contains(&16));
        // A faulted write leaves only a temp file; the previous good
        // checkpoint still loads.
        let faulted = write_checkpoint(&dir, &text, 20, 2, true).unwrap();
        assert!(faulted.is_none());
        let (_, path) = load_latest(&dir).unwrap();
        assert!(path.ends_with(checkpoint_file_name(16)));
        // The next successful write cleans the orphaned temp file up.
        write_checkpoint(&dir, &text, 24, 2, false).unwrap();
        let orphans = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .map(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(orphans, 0, "temp files must be garbage-collected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let dir = temp_dir("fallback");
        let text = sample_bundle().render();
        write_checkpoint(&dir, &text, 4, 4, false).unwrap();
        write_checkpoint(&dir, &text, 8, 4, false).unwrap();
        // Corrupt the newest in place.
        let newest = dir.join(checkpoint_file_name(8));
        fs::write(&newest, &text[..text.len() / 2]).unwrap();
        let (bundle, path) = load_latest(&dir).unwrap();
        assert!(path.ends_with(checkpoint_file_name(4)));
        assert_eq!(bundle.rounds, 12);
        // Corrupt everything: NoCheckpoint.
        fs::write(dir.join(checkpoint_file_name(4)), "junk").unwrap();
        assert!(matches!(
            load_latest(&dir),
            Err(SnapshotError::NoCheckpoint { .. })
        ));
        assert!(matches!(
            load_latest(&temp_dir("never-created")),
            Err(SnapshotError::NoCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_text_capped_rejects_oversized_files() {
        let dir = temp_dir("capped");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.txt");
        fs::write(&path, "x".repeat(64)).unwrap();
        assert!(matches!(
            read_text_capped(&path, 16),
            Err(SnapshotError::Oversized {
                limit: 16,
                actual: 64
            })
        ));
        assert_eq!(read_text_capped(&path, 64).unwrap().len(), 64);
        assert!(matches!(
            read_text_capped(&dir.join("missing"), 64),
            Err(SnapshotError::Io { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `/dev/zero` reports length 0, so only a bounded read stops it: both
    /// capped loaders must refuse it instead of reading forever.
    #[cfg(target_os = "linux")]
    #[test]
    fn capped_loaders_refuse_an_endless_device() {
        let zero = Path::new("/dev/zero");
        assert!(matches!(
            read_text_capped(zero, 1024),
            Err(SnapshotError::Oversized {
                limit: 1024,
                actual: 1025
            })
        ));
        assert!(matches!(
            torpedo_telemetry::load_journal(zero),
            Err(torpedo_telemetry::events::EventError::Oversized { .. })
        ));
    }

    #[test]
    fn round_seed_stream_is_distinct_and_well_spread() {
        let seed = 0x70CA_FE42u64;
        // Distinct per epoch.
        assert_ne!(derive_round_seed(seed, 0), derive_round_seed(seed, 1));
        // Never the plain campaign seed.
        assert_ne!(derive_round_seed(seed, 0), seed);
    }

    #[test]
    fn corpus_export_import_round_trips_and_dedups() {
        let table = build_table();
        let program =
            Arc::new(torpedo_prog::deserialize("socket(0x9, 0x3, 0x0)\n", &table).unwrap());
        let mut corpus = Corpus::new();
        corpus.add(CorpusItem {
            program: Arc::clone(&program),
            new_signals: 3,
            best_score: 17.5,
            flagged: true,
        });
        // A duplicate program: import must keep only the first.
        corpus.add(CorpusItem {
            program,
            new_signals: 1,
            best_score: 2.0,
            flagged: false,
        });
        let text = export_corpus(&corpus, &table);
        assert!(text.starts_with("# torpedo-corpus-v1\n"));
        let back = import_corpus(&text, &table).unwrap();
        assert_eq!(back.len(), 1, "duplicate ids must deduplicate");
        assert!(back.items()[0].flagged);

        assert!(matches!(
            import_corpus("# torpedo-corpus-v9\n", &table),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            import_corpus("socket(0x9, 0x3, 0x0)\n", &table),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn config_fragment_is_order_stable_and_fingerprinted() {
        let config = CampaignConfig::default();
        let a = render_campaign_config(&config);
        let b = render_campaign_config(&config);
        assert_eq!(a, b);
        assert!(a.contains("\"env_fingerprint\":\"0x"));
        // The checkpoint *directory* must not fingerprint — copying a
        // checkpoint dir elsewhere and resuming is legal.
        let mut with_dir = config.clone();
        with_dir.checkpoint = Some(CheckpointConfig::new("/tmp/a"));
        let mut other_dir = config.clone();
        other_dir.checkpoint = Some(CheckpointConfig::new("/tmp/b"));
        assert_eq!(
            render_campaign_config(&with_dir),
            render_campaign_config(&other_dir)
        );
        // But the interval does: it shifts the fault-roll schedule.
        assert_ne!(render_campaign_config(&with_dir), a);
        // And a seed change does too.
        let mut reseeded = config.clone();
        reseeded.seed ^= 1;
        assert_ne!(render_campaign_config(&reseeded), a);
        // A directed target changes the RNG-draw schedule, so it must
        // fingerprint: a directed checkpoint never resumes undirected.
        assert!(a.contains("\"directed\":null"));
        let mut directed = config.clone();
        directed.directed = torpedo_prog::DirectedTarget::parse("channel:net-softirq");
        let d = render_campaign_config(&directed);
        assert!(d.contains("\"directed\":\"channel:net-softirq\""));
        assert_ne!(d, a);
        // So does the per-container memory limit (it gates the writeback
        // reclaim path inside the simulated kernel).
        let mut limited = config;
        limited.observer.memory_bytes_per_container = Some(64 << 20);
        assert_ne!(render_campaign_config(&limited), a);
    }
}
