//! Finding forensics: mutation lineage, score trajectories, and the flight
//! recorder that turns a flag/crash/quarantine event into a self-contained
//! `torpedo-forensics-v1` JSON bundle.
//!
//! The paper's endgame is an *explanation*, not a flag (§4.1.3: flagged
//! programs are minimized against the oracle violations and confirmed by
//! tracing the kernel interactions behind the OOB work). The recorder keeps
//! just enough provenance during the run — who mutated whom, with which
//! operator, at what score — to reconstruct that explanation offline:
//!
//! - [`LineageBook`]: a bounded map from [`ProgramId`] to its
//!   [`LineageRecord`] (parent, donor, operator, round, shard, pre/post
//!   score). Old records evict FIFO so a long campaign cannot grow it
//!   unboundedly; [`LineageBook::chain`] walks parents newest-first.
//! - [`TrajectoryBook`]: per-batch oracle-score time series in fixed-size
//!   ring buffers.
//! - [`ForensicsBundle`]: the emitted artifact — lineage chain, trajectory,
//!   the flagged round's per-core CPU snapshot, a deferral-ledger excerpt,
//!   and the minimization summary. [`ForensicsBundle::to_json`] and
//!   [`parse_bundle`] round-trip it through the workspace's hand-rolled
//!   JSON (no serde).
//!
//! Everything here is allocated only when [`crate::campaign::CampaignConfig::forensics`]
//! is set; recording never touches the campaign RNG, so reports stay
//! byte-identical with forensics on or off.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use torpedo_kernel::cpu::{CpuCategory, CpuTimes};
use torpedo_kernel::time::Usecs;
use torpedo_kernel::DeferralEvent;
use torpedo_oracle::violation::{HeuristicKind, Violation};
use torpedo_prog::{MutationOp, Program, ProgramId};
use torpedo_telemetry::wire::{escape, invalid, need, need_array, need_f64, need_str, need_u64};

use crate::confirm::classify;
use crate::logfmt::{parse_json, JsonValue, LogParseError};

/// Schema tag carried by every bundle.
pub const FORENSICS_SCHEMA: &str = "torpedo-forensics-v1";
/// Lineage records retained before FIFO eviction.
pub const DEFAULT_LINEAGE_CAPACITY: usize = 4096;
/// Score points retained per batch trajectory ring.
pub const TRAJECTORY_CAPACITY: usize = 64;
/// Longest parent chain a bundle embeds.
pub const MAX_CHAIN_DEPTH: usize = 32;
/// Deferral events excerpted into a bundle.
pub const DEFERRAL_EXCERPT_CAP: usize = 32;
/// Flagged findings that get a full oracle-guided minimization in their
/// bundle (each one costs Algorithm 3 evaluations; the rest embed the
/// original program only).
pub const FORENSICS_MINIMIZE_CAP: usize = 8;

/// A lineage operator name. The wire vocabulary is *open*: bundles written
/// by a newer torpedo (or a foreign tool speaking the schema) may carry
/// operator names this build's [`MutationOp`] does not know, and those must
/// still parse — and render back byte-identically — rather than make the
/// whole bundle unreadable.
#[derive(Debug, Clone, PartialEq)]
pub enum LineageOp {
    /// An operator in this build's mutation vocabulary.
    Known(MutationOp),
    /// An operator name outside the vocabulary, preserved verbatim.
    Unknown(String),
}

impl LineageOp {
    /// The wire name (the original text for [`LineageOp::Unknown`]).
    pub fn as_str(&self) -> &str {
        match self {
            LineageOp::Known(op) => op.as_str(),
            LineageOp::Unknown(name) => name,
        }
    }

    /// Parse a wire name, tagging anything unrecognized instead of failing.
    pub fn parse(name: &str) -> LineageOp {
        match MutationOp::parse(name) {
            Some(op) => LineageOp::Known(op),
            None => LineageOp::Unknown(name.to_string()),
        }
    }
}

/// One program's provenance entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageRecord {
    /// The program's content id.
    pub id: ProgramId,
    /// The program it was mutated from (`None` for seeds and fresh swaps).
    pub parent: Option<ProgramId>,
    /// The corpus donor, when the operator spliced one in.
    pub donor: Option<ProgramId>,
    /// The operator applied (`None` for roots).
    pub op: Option<LineageOp>,
    /// Batch the program entered the campaign in.
    pub batch: usize,
    /// Global round number of its first run.
    pub round: u64,
    /// Shard that produced it: always 0 since campaigns stopped being
    /// sharded, kept because the v1 formats carry it.
    pub shard: usize,
    /// The parent's round score at mutation time (0.0 for roots).
    pub pre_score: f64,
    /// The first round score observed with this program in the batch.
    pub post_score: Option<f64>,
}

/// Bounded FIFO store of lineage records, keyed by program id.
#[derive(Debug)]
pub struct LineageBook {
    records: HashMap<ProgramId, LineageRecord>,
    order: VecDeque<ProgramId>,
    capacity: usize,
    evicted: u64,
}

impl LineageBook {
    /// An empty book retaining at most `capacity` records.
    pub fn new(capacity: usize) -> LineageBook {
        LineageBook {
            records: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the book holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Insert (or refresh) a record. Mutation can re-derive a program that
    /// already has an entry (e.g. an argument mutated back); the existing
    /// record is kept — first provenance wins, matching how the campaign
    /// deduplicates findings by id.
    pub fn insert(&mut self, record: LineageRecord) {
        if self.records.contains_key(&record.id) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.records.remove(&oldest);
                self.evicted += 1;
            }
        }
        self.order.push_back(record.id);
        self.records.insert(record.id, record);
    }

    /// Look one record up.
    pub fn get(&self, id: ProgramId) -> Option<&LineageRecord> {
        self.records.get(&id)
    }

    /// Retained records in FIFO (insertion) order — the deterministic
    /// ordering checkpoint bundles serialize the book in.
    pub fn records_in_order(&self) -> impl Iterator<Item = &LineageRecord> {
        self.order.iter().filter_map(|id| self.records.get(id))
    }

    /// Fill `id`'s post-mutation score, first observation wins.
    pub fn note_round_score(&mut self, id: ProgramId, score: f64) {
        if let Some(record) = self.records.get_mut(&id) {
            if record.post_score.is_none() {
                record.post_score = Some(score);
            }
        }
    }

    /// The parent chain starting at `id`, newest first, bounded by
    /// [`MAX_CHAIN_DEPTH`] and cycle-safe (ids are content hashes, so a
    /// mutation cycle A→B→A is legal).
    pub fn chain(&self, id: ProgramId) -> Vec<LineageRecord> {
        let mut out = Vec::new();
        let mut seen: HashSet<ProgramId> = HashSet::new();
        let mut cursor = Some(id);
        while let Some(id) = cursor {
            if out.len() >= MAX_CHAIN_DEPTH || !seen.insert(id) {
                break;
            }
            let Some(record) = self.records.get(&id) else {
                break;
            };
            out.push(record.clone());
            cursor = record.parent;
        }
        out
    }
}

/// One oracle-score sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Global round number.
    pub round: u64,
    /// Round oracle score.
    pub score: f64,
}

/// Per-batch score time series in bounded rings.
#[derive(Debug, Default)]
pub struct TrajectoryBook {
    series: HashMap<usize, VecDeque<TrajectoryPoint>>,
}

impl TrajectoryBook {
    /// Append a score sample for `batch`, evicting the oldest point once
    /// the ring holds [`TRAJECTORY_CAPACITY`] samples.
    pub fn observe(&mut self, batch: usize, round: u64, score: f64) {
        let ring = self.series.entry(batch).or_default();
        if ring.len() >= TRAJECTORY_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(TrajectoryPoint { round, score });
    }

    /// The retained series for `batch`, oldest first.
    pub fn series(&self, batch: usize) -> Vec<TrajectoryPoint> {
        self.series
            .get(&batch)
            .map(|ring| ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Batches with a retained series, sorted ascending.
    pub fn batches(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.series.keys().copied().collect();
        out.sort_unstable();
        out
    }
}

/// The in-campaign recorder: lineage + trajectories + quarantine events.
/// Owned by [`crate::campaign::Campaign::run`] only when forensics is on.
#[derive(Debug)]
pub struct FlightRecorder {
    lineage: LineageBook,
    trajectories: TrajectoryBook,
    quarantines: Vec<(ProgramId, Arc<Program>, usize, u64)>,
}

impl Default for FlightRecorder {
    /// An empty recorder.
    fn default() -> FlightRecorder {
        FlightRecorder {
            lineage: LineageBook::new(DEFAULT_LINEAGE_CAPACITY),
            trajectories: TrajectoryBook::default(),
            quarantines: Vec::new(),
        }
    }
}

impl FlightRecorder {
    /// Register a lineage root: a seed entering its batch, or a fresh
    /// program swapped in after a crash or quarantine.
    pub fn record_root(&mut self, id: ProgramId, batch: usize, round: u64) {
        self.lineage.insert(LineageRecord {
            id,
            parent: None,
            donor: None,
            op: None,
            batch,
            round,
            shard: 0,
            pre_score: 0.0,
            post_score: None,
        });
    }

    /// Register a mutation edge from `parent` to `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_mutation(
        &mut self,
        id: ProgramId,
        parent: ProgramId,
        donor: Option<ProgramId>,
        op: MutationOp,
        batch: usize,
        round: u64,
        pre_score: f64,
    ) {
        self.lineage.insert(LineageRecord {
            id,
            parent: Some(parent),
            donor,
            op: Some(LineageOp::Known(op)),
            batch,
            round,
            shard: 0,
            pre_score,
            post_score: None,
        });
    }

    /// Fold a finished round in: one trajectory point for the batch, and
    /// post-mutation scores for every program that ran.
    pub fn observe_round(&mut self, batch: usize, round: u64, score: f64, ids: &[ProgramId]) {
        self.trajectories.observe(batch, round, score);
        for &id in ids {
            self.lineage.note_round_score(id, score);
        }
    }

    /// Note a quarantine event (the program, where it happened).
    pub fn record_quarantine(
        &mut self,
        id: ProgramId,
        program: Arc<Program>,
        batch: usize,
        round: u64,
    ) {
        self.quarantines.push((id, program, batch, round));
    }

    /// Quarantine events recorded so far.
    pub fn quarantines(&self) -> &[(ProgramId, Arc<Program>, usize, u64)] {
        &self.quarantines
    }

    /// The lineage book (for bundle assembly and tests).
    pub fn lineage(&self) -> &LineageBook {
        &self.lineage
    }

    /// The parent chain for `id`, newest first.
    pub fn chain(&self, id: ProgramId) -> Vec<LineageRecord> {
        self.lineage.chain(id)
    }

    /// The retained score trajectory for `batch`.
    pub fn trajectory(&self, batch: usize) -> Vec<TrajectoryPoint> {
        self.trajectories.series(batch)
    }

    /// Batches with a retained trajectory, sorted ascending.
    pub fn trajectory_batches(&self) -> Vec<usize> {
        self.trajectories.batches()
    }
}

/// What triggered a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleKind {
    /// Offline oracle flagging.
    Flag,
    /// A container crash.
    Crash,
    /// A program quarantined for repeatedly killing executors.
    Quarantine,
}

impl BundleKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            BundleKind::Flag => "flag",
            BundleKind::Crash => "crash",
            BundleKind::Quarantine => "quarantine",
        }
    }

    /// Parse a wire name produced by [`BundleKind::as_str`].
    pub fn parse(name: &str) -> Option<BundleKind> {
        match name {
            "flag" => Some(BundleKind::Flag),
            "crash" => Some(BundleKind::Crash),
            "quarantine" => Some(BundleKind::Quarantine),
            _ => None,
        }
    }
}

/// One deferral-ledger event, excerpted into the wire schema (channel and
/// cause classified the same way the confirmation stage reports them).
#[derive(Debug, Clone, PartialEq)]
pub struct DeferralExcerpt {
    /// The classified cause of the escape.
    pub channel: String,
    /// Syscall that triggered it.
    pub syscall: String,
    /// Core the escaped work ran on.
    pub core: usize,
    /// Cost in virtual microseconds.
    pub cost_us: u64,
}

/// Excerpt the first [`DEFERRAL_EXCERPT_CAP`] ledger events for a bundle.
pub fn deferral_excerpt(deferrals: &[DeferralEvent]) -> Vec<DeferralExcerpt> {
    deferrals
        .iter()
        .take(DEFERRAL_EXCERPT_CAP)
        .map(|d| DeferralExcerpt {
            channel: classify(d.channel).0.to_string(),
            syscall: d.syscall.to_string(),
            core: d.core,
            cost_us: d.cost.as_micros(),
        })
        .collect()
}

/// The minimization result folded into a bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizationSummary {
    /// Calls removed from the original program.
    pub removed: u64,
    /// Predicate evaluations Algorithm 3 spent.
    pub evaluations: u64,
    /// The violation kinds the reproducer preserves (empty for crash
    /// reproducers, which minimize against the crash itself).
    pub kinds: Vec<HeuristicKind>,
    /// The minimized program (serialized).
    pub program: String,
}

/// A self-contained forensics artifact for one finding.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsBundle {
    /// What triggered the bundle.
    pub kind: BundleKind,
    /// Container runtime the campaign ran against.
    pub runtime: String,
    /// Shard that produced the finding: always 0 since campaigns stopped
    /// being sharded, kept because the v1 format carries it.
    pub shard: usize,
    /// Batch index.
    pub batch: usize,
    /// Global round number of the triggering event.
    pub round: u64,
    /// The round's oracle score.
    pub score: f64,
    /// The program (serialized syzlang-lite).
    pub program: String,
    /// The oracle violations of the flagged round (empty for crashes).
    pub violations: Vec<Violation>,
    /// Parent chain, newest first.
    pub lineage: Vec<LineageRecord>,
    /// Batch score trajectory, oldest first.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Per-core CPU snapshot of the triggering round (µs per category).
    pub per_core: Vec<CpuTimes>,
    /// Kernel deferral-ledger excerpt for the round.
    pub deferrals: Vec<DeferralExcerpt>,
    /// Minimization summary, when one was computed.
    pub minimization: Option<MinimizationSummary>,
}

pub(crate) fn push_str_member(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape(out, value);
    out.push('"');
}

pub(crate) fn push_opt_id(out: &mut String, key: &str, id: Option<ProgramId>) {
    match id {
        Some(id) => out.push_str(&format!("\"{key}\":\"{id}\"")),
        None => out.push_str(&format!("\"{key}\":null")),
    }
}

/// Append one [`LineageRecord`] as its wire object — shared between the
/// forensics bundle and the checkpoint bundle so both serialize lineage
/// byte-identically.
pub(crate) fn push_lineage_record(out: &mut String, r: &LineageRecord) {
    out.push_str(&format!("{{\"id\":\"{}\",", r.id));
    push_opt_id(out, "parent", r.parent);
    out.push(',');
    push_opt_id(out, "donor", r.donor);
    match &r.op {
        None => out.push_str(",\"op\":null"),
        Some(op) => {
            out.push_str(",\"op\":\"");
            escape(out, op.as_str());
            out.push('"');
        }
    }
    out.push_str(&format!(
        ",\"batch\":{},\"round\":{},\"shard\":{},\"pre_score\":{},\"post_score\":{}}}",
        r.batch,
        r.round,
        r.shard,
        r.pre_score,
        r.post_score.map_or("null".to_string(), |s| s.to_string()),
    ));
}

/// Parse one lineage-record wire object back.
pub(crate) fn parse_lineage_record(r: &JsonValue) -> Result<LineageRecord, LogParseError> {
    let id = ProgramId::parse_hex(need_str(r, "id")?).ok_or_else(|| invalid("bad lineage id"))?;
    let op = match need(r, "op")? {
        JsonValue::Null => None,
        // Open vocabulary: an unrecognized operator name parses as
        // `Unknown` and renders back verbatim, so bundles from a build
        // with more operators survive a round trip here.
        JsonValue::String(s) => Some(LineageOp::parse(s)),
        _ => return Err(invalid("lineage op not a string or null")),
    };
    let post_score = match need(r, "post_score")? {
        JsonValue::Null => None,
        value => Some(
            value
                .as_f64()
                .ok_or_else(|| invalid("post_score not a number"))?,
        ),
    };
    Ok(LineageRecord {
        id,
        parent: opt_id(r, "parent")?,
        donor: opt_id(r, "donor")?,
        op,
        batch: need_u64(r, "batch")? as usize,
        round: need_u64(r, "round")?,
        shard: need_u64(r, "shard")? as usize,
        pre_score: need_f64(r, "pre_score")?,
        post_score,
    })
}

impl ForensicsBundle {
    /// Serialize the bundle. Floats use Rust's shortest-round-trip `{}`
    /// formatting so `to_json ∘ parse_bundle` is the identity on the text.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"schema\":\"{FORENSICS_SCHEMA}\",\"kind\":\"{}\",",
            self.kind.as_str()
        ));
        push_str_member(&mut out, "runtime", &self.runtime);
        out.push_str(&format!(
            ",\"shard\":{},\"batch\":{},\"round\":{},\"score\":{},",
            self.shard, self.batch, self.round, self.score
        ));
        push_str_member(&mut out, "program", &self.program);
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"heuristic\":\"{}\",\"core\":{},\"measured\":{},\"threshold\":{}}}",
                v.heuristic.as_str(),
                v.core.map_or("null".to_string(), |c| c.to_string()),
                v.measured,
                v.threshold
            ));
        }
        out.push_str("],\"lineage\":[");
        for (i, r) in self.lineage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_lineage_record(&mut out, r);
        }
        out.push_str("],\"trajectory\":[");
        for (i, p) in self.trajectory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"round\":{},\"score\":{}}}", p.round, p.score));
        }
        out.push_str("],\"per_core\":[");
        for (i, row) in self.per_core.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, cat) in CpuCategory::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{}",
                    cat.header().to_lowercase().replace(' ', "_"),
                    row.get(*cat).as_micros()
                ));
            }
            out.push('}');
        }
        out.push_str("],\"deferrals\":[");
        for (i, d) in self.deferrals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_member(&mut out, "channel", &d.channel);
            out.push(',');
            push_str_member(&mut out, "syscall", &d.syscall);
            out.push_str(&format!(",\"core\":{},\"cost_us\":{}}}", d.core, d.cost_us));
        }
        out.push_str("],\"minimization\":");
        match &self.minimization {
            None => out.push_str("null"),
            Some(m) => {
                out.push_str(&format!(
                    "{{\"removed\":{},\"evaluations\":{},\"kinds\":[",
                    m.removed, m.evaluations
                ));
                for (i, k) in m.kinds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", k.as_str()));
                }
                out.push_str("],");
                push_str_member(&mut out, "program", &m.program);
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

pub(crate) fn opt_id(doc: &JsonValue, key: &str) -> Result<Option<ProgramId>, LogParseError> {
    match need(doc, key)? {
        JsonValue::Null => Ok(None),
        JsonValue::String(s) => ProgramId::parse_hex(s)
            .map(Some)
            .ok_or_else(|| invalid(format!("bad program id in '{key}'"))),
        _ => Err(invalid(format!("member '{key}' not an id or null"))),
    }
}

/// Parse a `torpedo-forensics-v1` bundle back from its JSON text.
///
/// # Errors
/// [`LogParseError`] on malformed JSON, a schema mismatch, or a field
/// outside the *closed* wire vocabulary ([`BundleKind`], [`HeuristicKind`]
/// names). Mutation-operator and deferral-channel names are an *open*
/// vocabulary: unknown names parse as tagged strings ([`LineageOp::Unknown`],
/// the free-form [`DeferralExcerpt::channel`]) and render back verbatim.
pub fn parse_bundle(text: &str) -> Result<ForensicsBundle, LogParseError> {
    let doc = parse_json(text)?;
    let schema = need_str(&doc, "schema")?;
    if schema != FORENSICS_SCHEMA {
        return Err(invalid(format!("unknown schema '{schema}'")));
    }
    let kind =
        BundleKind::parse(need_str(&doc, "kind")?).ok_or_else(|| invalid("unknown bundle kind"))?;

    let mut violations = Vec::new();
    for v in need_array(&doc, "violations")? {
        let heuristic = HeuristicKind::parse(need_str(v, "heuristic")?)
            .ok_or_else(|| invalid("unknown heuristic"))?;
        let core = match need(v, "core")? {
            JsonValue::Null => None,
            value => Some(
                value
                    .as_u64()
                    .ok_or_else(|| invalid("violation core not an integer"))?
                    as usize,
            ),
        };
        violations.push(Violation {
            heuristic,
            core,
            measured: need_f64(v, "measured")?,
            threshold: need_f64(v, "threshold")?,
        });
    }

    let mut lineage = Vec::new();
    for r in need_array(&doc, "lineage")? {
        lineage.push(parse_lineage_record(r)?);
    }

    let mut trajectory = Vec::new();
    for p in need_array(&doc, "trajectory")? {
        trajectory.push(TrajectoryPoint {
            round: need_u64(p, "round")?,
            score: need_f64(p, "score")?,
        });
    }

    let mut per_core = Vec::new();
    for row in need_array(&doc, "per_core")? {
        let mut times = CpuTimes::default();
        for cat in CpuCategory::ALL {
            let key = cat.header().to_lowercase().replace(' ', "_");
            times.charge(cat, Usecs(need_u64(row, &key)?));
        }
        per_core.push(times);
    }

    let mut deferrals = Vec::new();
    for d in need_array(&doc, "deferrals")? {
        deferrals.push(DeferralExcerpt {
            channel: need_str(d, "channel")?.to_string(),
            syscall: need_str(d, "syscall")?.to_string(),
            core: need_u64(d, "core")? as usize,
            cost_us: need_u64(d, "cost_us")?,
        });
    }

    let minimization = match need(&doc, "minimization")? {
        JsonValue::Null => None,
        m => {
            let mut kinds = Vec::new();
            for k in need_array(m, "kinds")? {
                let name = k
                    .as_str()
                    .ok_or_else(|| invalid("minimization kind not a string"))?;
                kinds.push(HeuristicKind::parse(name).ok_or_else(|| invalid("unknown heuristic"))?);
            }
            Some(MinimizationSummary {
                removed: need_u64(m, "removed")?,
                evaluations: need_u64(m, "evaluations")?,
                kinds,
                program: need_str(m, "program")?.to_string(),
            })
        }
    };

    Ok(ForensicsBundle {
        kind,
        runtime: need_str(&doc, "runtime")?.to_string(),
        shard: need_u64(&doc, "shard")? as usize,
        batch: need_u64(&doc, "batch")? as usize,
        round: need_u64(&doc, "round")?,
        score: need_f64(&doc, "score")?,
        program: need_str(&doc, "program")?.to_string(),
        violations,
        lineage,
        trajectory,
        per_core,
        deferrals,
        minimization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_prog::{build_table, deserialize, serialize};

    fn pid(n: u64) -> ProgramId {
        ProgramId(n)
    }

    #[test]
    fn lineage_book_walks_chains_and_evicts_fifo() {
        let mut book = LineageBook::new(3);
        let mut rec = FlightRecorder::default();
        rec.record_root(pid(1), 0, 1);
        assert_eq!(rec.chain(pid(1)).len(), 1);

        book.insert(LineageRecord {
            id: pid(1),
            parent: None,
            donor: None,
            op: None,
            batch: 0,
            round: 1,
            shard: 0,
            pre_score: 0.0,
            post_score: None,
        });
        book.insert(LineageRecord {
            id: pid(2),
            parent: Some(pid(1)),
            donor: None,
            op: Some(LineageOp::Known(MutationOp::MutateArg)),
            batch: 0,
            round: 2,
            shard: 0,
            pre_score: 3.0,
            post_score: None,
        });
        book.insert(LineageRecord {
            id: pid(3),
            parent: Some(pid(2)),
            donor: Some(pid(9)),
            op: Some(LineageOp::Known(MutationOp::Splice)),
            batch: 0,
            round: 3,
            shard: 0,
            pre_score: 5.0,
            post_score: None,
        });
        let chain = book.chain(pid(3));
        assert_eq!(
            chain.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![pid(3), pid(2), pid(1)]
        );
        // Capacity 3: a fourth record evicts pid(1), truncating the chain.
        book.insert(LineageRecord {
            id: pid(4),
            parent: Some(pid(3)),
            donor: None,
            op: Some(LineageOp::Known(MutationOp::AddCall)),
            batch: 0,
            round: 4,
            shard: 0,
            pre_score: 6.0,
            post_score: None,
        });
        assert_eq!(book.len(), 3);
        assert_eq!(book.evicted(), 1);
        assert_eq!(book.chain(pid(4)).len(), 3);
        assert!(book.get(pid(1)).is_none());
    }

    #[test]
    fn chain_is_cycle_safe() {
        let mut book = LineageBook::new(8);
        // A→B and B→A: content hashing makes mutation cycles legal.
        book.insert(LineageRecord {
            id: pid(1),
            parent: Some(pid(2)),
            donor: None,
            op: Some(LineageOp::Known(MutationOp::MutateArg)),
            batch: 0,
            round: 2,
            shard: 0,
            pre_score: 0.0,
            post_score: None,
        });
        book.insert(LineageRecord {
            id: pid(2),
            parent: Some(pid(1)),
            donor: None,
            op: Some(LineageOp::Known(MutationOp::MutateArg)),
            batch: 0,
            round: 1,
            shard: 0,
            pre_score: 0.0,
            post_score: None,
        });
        assert_eq!(book.chain(pid(1)).len(), 2);
    }

    #[test]
    fn trajectory_ring_is_bounded() {
        let mut book = TrajectoryBook::default();
        for round in 0..(TRAJECTORY_CAPACITY as u64 + 10) {
            book.observe(0, round, round as f64);
        }
        let series = book.series(0);
        assert_eq!(series.len(), TRAJECTORY_CAPACITY);
        assert_eq!(series[0].round, 10);
        assert!(book.series(7).is_empty());
    }

    #[test]
    fn post_score_is_first_observation_only() {
        let mut rec = FlightRecorder::default();
        rec.record_root(pid(5), 1, 4);
        rec.observe_round(1, 4, 12.5, &[pid(5)]);
        rec.observe_round(1, 5, 99.0, &[pid(5)]);
        let record = rec.lineage().get(pid(5)).unwrap();
        assert_eq!(record.post_score, Some(12.5));
        assert_eq!(rec.trajectory(1).len(), 2);
    }

    fn sample_bundle() -> ForensicsBundle {
        let table = build_table();
        let program = deserialize("socket(0x9, 0x3, 0x0)\n", &table).unwrap();
        let mut row = CpuTimes::default();
        row.charge(CpuCategory::User, Usecs(105_000));
        row.charge(CpuCategory::System, Usecs(331_000));
        ForensicsBundle {
            kind: BundleKind::Flag,
            runtime: "runc".to_string(),
            shard: 1,
            batch: 2,
            round: 17,
            score: 31.25,
            program: serialize(&program, &table),
            violations: vec![Violation {
                heuristic: HeuristicKind::IdleCoreAboveCeiling,
                core: Some(3),
                measured: 42.5,
                threshold: 10.0,
            }],
            lineage: vec![LineageRecord {
                id: pid(0xabc),
                parent: Some(pid(0xdef)),
                donor: None,
                op: Some(LineageOp::Known(MutationOp::Splice)),
                batch: 2,
                round: 16,
                shard: 1,
                pre_score: 10.0,
                post_score: Some(31.25),
            }],
            trajectory: vec![
                TrajectoryPoint {
                    round: 16,
                    score: 10.0,
                },
                TrajectoryPoint {
                    round: 17,
                    score: 31.25,
                },
            ],
            per_core: vec![row],
            deferrals: vec![DeferralExcerpt {
                channel: "softirq handled in victim context".to_string(),
                syscall: "socket".to_string(),
                core: 3,
                cost_us: 1500,
            }],
            minimization: Some(MinimizationSummary {
                removed: 0,
                evaluations: 1,
                kinds: vec![HeuristicKind::IdleCoreAboveCeiling],
                program: "socket(0x9, 0x3, 0x0)\n".to_string(),
            }),
        }
    }

    #[test]
    fn bundle_round_trips_through_the_parser() {
        let bundle = sample_bundle();
        let json = bundle.to_json();
        assert!(json.starts_with("{\"schema\":\"torpedo-forensics-v1\""));
        let back = parse_bundle(&json).unwrap();
        assert_eq!(back, bundle);
        // Serialization is a fixed point: text → value → text is identity.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn bundle_with_empty_sections_round_trips() {
        let mut bundle = sample_bundle();
        bundle.kind = BundleKind::Crash;
        bundle.violations.clear();
        bundle.lineage.clear();
        bundle.deferrals.clear();
        bundle.minimization = None;
        let back = parse_bundle(&bundle.to_json()).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn malformed_bundles_are_rejected() {
        assert!(parse_bundle("{}").is_err());
        assert!(parse_bundle("{\"schema\":\"torpedo-forensics-v9\"}").is_err());
        let mut json = sample_bundle().to_json();
        json = json.replace("\"kind\":\"flag\"", "\"kind\":\"vibe\"");
        assert!(parse_bundle(&json).is_err());
        // Heuristic names stay a closed vocabulary: the oracle set defines
        // what a violation can mean, so a typo here is a real error.
        let mut json = sample_bundle().to_json();
        json = json.replace("idle-core-above-ceiling", "idle-core-on-fire");
        assert!(parse_bundle(&json).is_err());
    }

    #[test]
    fn unknown_operator_and_channel_names_round_trip() {
        // A bundle written by a build with a richer mutation/channel
        // vocabulary must read back — and re-render byte-identically — on
        // this build, with the foreign names preserved verbatim.
        let json = sample_bundle()
            .to_json()
            .replace("\"op\":\"splice\"", "\"op\":\"teleport\"")
            .replace(
                "softirq handled in victim context",
                "io_uring worker outside cgroup",
            );
        let back = parse_bundle(&json).unwrap();
        assert_eq!(
            back.lineage[0].op,
            Some(LineageOp::Unknown("teleport".to_string()))
        );
        assert_eq!(back.lineage[0].op.as_ref().unwrap().as_str(), "teleport");
        assert_eq!(back.deferrals[0].channel, "io_uring worker outside cgroup");
        assert_eq!(back.to_json(), json, "foreign names render back verbatim");
        // Known names still land on the typed variant.
        let native = parse_bundle(&sample_bundle().to_json()).unwrap();
        assert_eq!(
            native.lineage[0].op,
            Some(LineageOp::Known(MutationOp::Splice))
        );
    }

    #[test]
    fn deferral_excerpt_is_capped_and_classified() {
        use torpedo_kernel::deferral::DeferralChannel;
        let event = DeferralEvent {
            channel: DeferralChannel::SoftIrq,
            origin_cgroup: torpedo_kernel::cgroup::CgroupTree::ROOT,
            origin_pid: torpedo_kernel::process::Pid(1),
            charged_cgroup: torpedo_kernel::cgroup::CgroupTree::ROOT,
            cost: Usecs(2_000),
            core: 5,
            syscall: "socket",
        };
        let events = vec![event; DEFERRAL_EXCERPT_CAP + 10];
        let excerpt = deferral_excerpt(&events);
        assert_eq!(excerpt.len(), DEFERRAL_EXCERPT_CAP);
        assert_eq!(excerpt[0].channel, "softirq handled in victim context");
        assert_eq!(excerpt[0].cost_us, 2_000);
        assert_eq!(excerpt[0].core, 5);
    }
}
