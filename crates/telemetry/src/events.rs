//! The fleet observatory's event stream: a typed, open-vocabulary record of
//! *what happened when* in logical (round) time.
//!
//! Three layers, all std-only and deterministic:
//!
//! * [`Event`] / [`EventKind`] — one record per noteworthy occurrence
//!   (round completed, flag raised, crash, park/unpark, checkpoint, …).
//!   The vocabulary is open: kinds this build does not know round-trip as
//!   [`EventKind::Unknown`] exactly like the forensics crash vocabulary,
//!   so a newer journal never breaks an older inspector.
//! * [`EventLog`] — the clone-cheap handle threaded through campaign and
//!   fleet configs. A disabled handle (the default) is a `None` and every
//!   method on it is a single branch, preserving the events-off
//!   byte-identity contract. An enabled handle records into a bounded
//!   ring (for the `/events` live tail) and optionally sinks every event
//!   to a crash-safe NDJSON journal.
//! * The `torpedo-events-v1` journal — header line, one NDJSON line per
//!   event, and a hash-framed tail line. Every flush rewrites the whole
//!   file via same-dir temp + fsync + atomic rename (the checkpoint
//!   discipline), so a reader never observes a torn journal, and
//!   [`load_journal`] is a size-capped typed-error loader that verifies
//!   the embedded FNV-1a hash before trusting a byte.
//!
//! Events carry only logical-time payloads — rounds, counts, channel
//! names — never wall-clock readings, so a journal is byte-identical
//! across runs and worker counts whenever the producing schedule is.

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::wire::{self, fnv64, JsonValue, LogParseError};

/// Schema tag carried in the journal header and the `/events` response.
pub const EVENTS_SCHEMA: &str = "torpedo-events-v1";

/// Live-tail ring capacity (events retained before overwrite).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Hard cap on journaled events: the journal is rewritten whole on every
/// flush, so an unbounded campaign must not grow it without limit. Events
/// past the cap are counted in the tail's `dropped` field — the same
/// saturation-over-silent-loss posture as the span journal.
pub const MAX_JOURNAL_EVENTS: usize = 65_536;

/// Flush the journal to disk every this many appended events (plus one
/// final flush when the log is dropped or explicitly flushed).
const FLUSH_EVERY: usize = 64;

/// Size cap for [`load_journal`]: reject files larger than this *before*
/// buffering them.
pub const MAX_JOURNAL_FILE_BYTES: usize = 64 << 20;

/// What happened. The vocabulary is open: [`EventKind::parse`] never
/// fails, mapping unrecognized wire names to [`EventKind::Unknown`] which
/// renders back verbatim.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// One campaign round finished (`value` = executions, `extra` = new
    /// coverage signals admitted this round).
    RoundCompleted,
    /// An oracle flagged a finding; the payload names the heuristic
    /// channel (e.g. `fuzz-core-below-floor`).
    Flag(String),
    /// An executor crashed.
    Crash,
    /// A program was quarantined as a repeat offender.
    Quarantine,
    /// The fleet parked a tenant (checkpointed it out of its slot).
    Park,
    /// The fleet resumed a parked tenant.
    Unpark,
    /// A checkpoint came due and its bundle was rendered.
    CheckpointWritten,
    /// Injected runtime faults surfaced this round (`value` = count).
    FaultInjected,
    /// The supervisor restarted crashed executors (`value` = count).
    WorkerRestart,
    /// The fleet scheduler granted a tenant a window (`value` = rounds).
    ScheduleDecision,
    /// A health detector fired; the payload names the detector.
    HealthFinding(String),
    /// A kind this build does not know; round-trips verbatim.
    Unknown(String),
}

impl EventKind {
    /// Stable wire name, written into journals and the `/events` tail.
    pub fn wire_name(&self) -> String {
        match self {
            EventKind::RoundCompleted => "round-completed".to_string(),
            EventKind::Flag(channel) => format!("flag:{channel}"),
            EventKind::Crash => "crash".to_string(),
            EventKind::Quarantine => "quarantine".to_string(),
            EventKind::Park => "park".to_string(),
            EventKind::Unpark => "unpark".to_string(),
            EventKind::CheckpointWritten => "checkpoint-written".to_string(),
            EventKind::FaultInjected => "fault-injected".to_string(),
            EventKind::WorkerRestart => "worker-restart".to_string(),
            EventKind::ScheduleDecision => "schedule-decision".to_string(),
            EventKind::HealthFinding(detector) => format!("health:{detector}"),
            EventKind::Unknown(name) => name.clone(),
        }
    }

    /// Parse a wire name. Never fails: `flag:`/`health:` prefixes carry
    /// their payload through, anything else unrecognized becomes
    /// [`EventKind::Unknown`] and renders back byte-identically.
    pub fn parse(name: &str) -> EventKind {
        if let Some(channel) = name.strip_prefix("flag:") {
            return EventKind::Flag(channel.to_string());
        }
        if let Some(detector) = name.strip_prefix("health:") {
            return EventKind::HealthFinding(detector.to_string());
        }
        match name {
            "round-completed" => EventKind::RoundCompleted,
            "crash" => EventKind::Crash,
            "quarantine" => EventKind::Quarantine,
            "park" => EventKind::Park,
            "unpark" => EventKind::Unpark,
            "checkpoint-written" => EventKind::CheckpointWritten,
            "fault-injected" => EventKind::FaultInjected,
            "worker-restart" => EventKind::WorkerRestart,
            "schedule-decision" => EventKind::ScheduleDecision,
            other => EventKind::Unknown(other.to_string()),
        }
    }
}

/// One event record. All payloads are logical-time quantities; wall-clock
/// readings stay in the telemetry histograms so the journal can be
/// byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emitting campaign (fleet entry id; 0 for a standalone campaign).
    pub campaign: u64,
    /// Emitter-monotone sequence number. Campaign-emitted events count in
    /// the campaign's own stream (checkpointed and replayed with it);
    /// fleet-emitted events count in the scheduler's stream.
    pub seq: u64,
    /// Global campaign round the event is attributed to.
    pub round: u64,
    /// Which kind of event.
    pub kind: EventKind,
    /// Primary payload (kind-specific count).
    pub value: u64,
    /// Secondary payload (kind-specific count).
    pub extra: u64,
    /// Free-form annotation (short, human-oriented).
    pub note: String,
}

impl Event {
    /// Render as one NDJSON line (no trailing newline). Field order is
    /// fixed so journals diff cleanly.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"campaign\":{},\"seq\":{},\"round\":{},\"kind\":\"",
            self.campaign, self.seq, self.round,
        );
        wire::escape(&mut out, &self.kind.wire_name());
        out.push_str(&format!(
            "\",\"value\":{},\"extra\":{},\"note\":\"",
            self.value, self.extra,
        ));
        wire::escape(&mut out, &self.note);
        out.push_str("\"}");
        out
    }

    /// Parse one journal line back into an event: exactly one JSON object
    /// (no trailing bytes), read by [`Event::from_json`].
    ///
    /// # Errors
    /// [`EventError::Malformed`] when the line is not such an object;
    /// `line` in the error is filled in by the caller.
    pub fn parse(text: &str) -> Result<Event, EventError> {
        Event::from_json(&wire::parse_json(text).map_err(malformed(0))?)
    }

    /// Read an event from a parsed object with integer `campaign`/`seq`/
    /// `round`/`value`/`extra` and string `kind`/`note` members: a journal
    /// line, or one entry of the `/events` response.
    ///
    /// # Errors
    /// [`EventError::Malformed`] (line 0) for a missing or mistyped member.
    pub fn from_json(doc: &JsonValue) -> Result<Event, EventError> {
        let field = |key: &str| wire::need_u64(doc, key).map_err(malformed(0));
        let text = |key: &str| wire::need_str(doc, key).map_err(malformed(0));
        Ok(Event {
            campaign: field("campaign")?,
            seq: field("seq")?,
            round: field("round")?,
            kind: EventKind::parse(text("kind")?),
            value: field("value")?,
            extra: field("extra")?,
            note: text("note")?.to_string(),
        })
    }
}

/// Map a reader error to [`EventError::Malformed`] at 1-based `line`.
fn malformed(line: usize) -> impl Fn(LogParseError) -> EventError {
    move |e| EventError::Malformed {
        line,
        reason: e.message,
    }
}

/// Typed failures from the journal writer and loader.
#[derive(Debug)]
pub enum EventError {
    /// Filesystem failure.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file exceeds [`MAX_JOURNAL_FILE_BYTES`].
    Oversized {
        /// The enforced limit.
        limit: usize,
        /// The file's actual size.
        actual: usize,
    },
    /// A line failed to parse.
    Malformed {
        /// 1-based line number (0 when unknown).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header does not carry the `torpedo-events-v1` schema tag.
    Schema {
        /// The header line found instead.
        found: String,
    },
    /// The tail hash does not match the journal body.
    HashMismatch {
        /// Hash recorded in the tail.
        expected: String,
        /// Hash recomputed from the body.
        actual: String,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::Io { path, source } => {
                write!(f, "event journal io error at {}: {source}", path.display())
            }
            EventError::Oversized { limit, actual } => {
                write!(f, "event journal too large: {actual} bytes > {limit} cap")
            }
            EventError::Malformed { line, reason } => {
                write!(f, "malformed event journal line {line}: {reason}")
            }
            EventError::Schema { found } => {
                write!(f, "not a {EVENTS_SCHEMA} journal (header {found:?})")
            }
            EventError::HashMismatch { expected, actual } => {
                write!(
                    f,
                    "event journal hash mismatch: tail says {expected}, body hashes to {actual}"
                )
            }
        }
    }
}

impl std::error::Error for EventError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EventError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> EventError + '_ {
    move |source| EventError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Live-tail ring of the last [`DEFAULT_EVENT_CAPACITY`] events. Tracks
/// the total ever appended so `/events` cursors stay valid across
/// overwrites.
#[derive(Debug)]
struct EventRing {
    events: VecDeque<Event>,
    appended: u64,
}

impl EventRing {
    fn new() -> EventRing {
        EventRing {
            // Empty until events arrive: a log holds only a few between
            // barriers, and reserving the whole capacity up front costs
            // hundreds of KB per log.
            events: VecDeque::new(),
            appended: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.events.len() == DEFAULT_EVENT_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.appended += 1;
    }

    /// Global position of the oldest retained event.
    fn oldest(&self) -> u64 {
        self.appended - self.events.len() as u64
    }
}

/// The durable NDJSON sink. Lines are retained in memory and every flush
/// rewrites the whole framed file crash-safely, so a reader at any instant
/// sees a complete, hash-verifiable journal.
#[derive(Debug)]
struct JournalSink {
    path: PathBuf,
    lines: Vec<String>,
    dropped: u64,
    pending: usize,
}

impl JournalSink {
    fn append(&mut self, event: &Event) -> Result<(), EventError> {
        if self.lines.len() >= MAX_JOURNAL_EVENTS {
            self.dropped += 1;
        } else {
            self.lines.push(event.render());
        }
        self.pending += 1;
        if self.pending >= FLUSH_EVERY {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), EventError> {
        self.pending = 0;
        let mut body = format!("{{\"schema\":\"{EVENTS_SCHEMA}\"}}\n");
        for line in &self.lines {
            body.push_str(line);
            body.push('\n');
        }
        let hash = fnv64(body.as_bytes());
        let text = format!(
            "{body}{{\"events\":{},\"dropped\":{},\"hash\":\"0x{hash:016x}\"}}\n",
            self.lines.len(),
            self.dropped,
        );
        let parent = self.path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::create_dir_all(parent).map_err(io_err(parent))?;
        let tmp = wire::temp_path(&self.path);
        wire::write_synced(&tmp, text.as_bytes()).map_err(io_err(&tmp))?;
        wire::commit_rename(&tmp, &self.path).map_err(io_err(&self.path))
    }
}

#[derive(Debug)]
struct EventInner {
    ring: Mutex<EventRing>,
    sink: Mutex<Option<JournalSink>>,
}

impl Drop for EventInner {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            if let Some(sink) = sink.as_mut() {
                let _ = sink.flush();
            }
        }
    }
}

/// The event-log handle threaded through campaign and fleet configs.
/// Cheap to clone; a disabled handle (the [`Default`]) is a `None` and
/// every operation on it is a single branch — the events-off path costs
/// nothing and produces byte-identical reports to a build without events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<EventInner>>,
    campaign: u64,
}

impl EventLog {
    /// The no-op handle (the default on every config).
    pub fn disabled() -> EventLog {
        EventLog::default()
    }

    /// An enabled in-memory log retaining the last
    /// [`DEFAULT_EVENT_CAPACITY`] events in its live-tail ring.
    pub fn enabled() -> EventLog {
        EventLog {
            inner: Some(Arc::new(EventInner {
                ring: Mutex::new(EventRing::new()),
                sink: Mutex::new(None),
            })),
            campaign: 0,
        }
    }

    /// An enabled log that additionally sinks every event to a
    /// `torpedo-events-v1` journal at `path`, flushed crash-safely.
    ///
    /// # Errors
    /// [`EventError::Io`] when the journal directory cannot be created or
    /// the initial (empty) journal cannot be written.
    pub fn journaled(path: &Path) -> Result<EventLog, EventError> {
        let log = EventLog::enabled();
        let mut sink = JournalSink {
            path: path.to_path_buf(),
            lines: Vec::new(),
            dropped: 0,
            pending: 0,
        };
        // Write the empty frame up front so construction fails fast on an
        // unwritable path instead of mid-campaign.
        sink.flush()?;
        if let Some(inner) = &log.inner {
            *inner.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
        }
        Ok(log)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A clone of this handle whose emitted events carry `campaign` as
    /// their campaign id (fleet entry tagging). Shares the same ring and
    /// journal sink.
    pub fn tagged(&self, campaign: u64) -> EventLog {
        EventLog {
            inner: self.inner.clone(),
            campaign,
        }
    }

    /// The campaign id this handle stamps onto emitted events.
    pub fn campaign_tag(&self) -> u64 {
        self.campaign
    }

    /// Record one event (no-op when disabled). Journal flush failures are
    /// swallowed here — the ring stays authoritative for the live tail —
    /// and surface on the explicit [`EventLog::flush`] at campaign end.
    pub fn emit(&self, seq: u64, round: u64, kind: EventKind, value: u64, extra: u64, note: &str) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            campaign: self.campaign,
            seq,
            round,
            kind,
            value,
            extra,
            note: note.to_string(),
        };
        if let Ok(mut sink) = inner.sink.lock() {
            if let Some(sink) = sink.as_mut() {
                let _ = sink.append(&event);
            }
        }
        inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// Re-emit an already-built event verbatim (fleet barrier drains).
    pub fn emit_event(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        if let Ok(mut sink) = inner.sink.lock() {
            if let Some(sink) = sink.as_mut() {
                let _ = sink.append(&event);
            }
        }
        inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// Total events ever emitted into this log — the `/events` cursor.
    pub fn appended(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .appended
        })
    }

    /// The retained ring events, oldest first (empty when disabled).
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .events
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Remove and return the retained ring events, oldest first. The
    /// appended counter is unchanged, so `/events` cursors survive. Used
    /// by the fleet barrier to absorb per-tenant buffers in id order.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .events
                .drain(..)
                .collect()
        })
    }

    /// Events at global positions `>= since`, plus the next cursor and
    /// how many requested events were already overwritten.
    pub fn since(&self, since: u64) -> (Vec<Event>, u64, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0, 0);
        };
        let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        let oldest = ring.oldest();
        let missed = oldest.saturating_sub(since);
        let skip = since.saturating_sub(oldest) as usize;
        let events = ring.events.iter().skip(skip).cloned().collect();
        (events, ring.appended, missed)
    }

    /// The `/events?since=N` response body: schema tag, next cursor,
    /// overwritten-count, and the requested events as NDJSON objects.
    pub fn since_json(&self, since: u64) -> String {
        let (events, next, missed) = self.since(since);
        let mut out = format!(
            "{{\"schema\":\"{EVENTS_SCHEMA}\",\"next\":{next},\"missed\":{missed},\"events\":["
        );
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.render());
        }
        out.push_str("]}");
        out
    }

    /// Events dropped past the journal cap (0 when disabled or unsunk).
    pub fn journal_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .map_or(0, |sink| sink.dropped)
        })
    }

    /// Force a journal flush (no-op without a sink).
    ///
    /// # Errors
    /// [`EventError::Io`] when the rewrite fails.
    pub fn flush(&self) -> Result<(), EventError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
        match sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// A loaded, hash-verified journal.
#[derive(Debug, Clone, PartialEq)]
pub struct EventJournal {
    /// The journaled events, in emission order.
    pub events: Vec<Event>,
    /// Events dropped past [`MAX_JOURNAL_EVENTS`] at write time.
    pub dropped: u64,
}

/// Load and verify a `torpedo-events-v1` journal: size cap before
/// buffering, schema check on the header, FNV-1a verification of the tail
/// frame, then a typed parse of every event line.
///
/// # Errors
/// Every failure mode is a typed [`EventError`]; nothing panics on
/// garbage input (the loader is part of the fuzzed parser surface).
pub fn load_journal(path: &Path) -> Result<EventJournal, EventError> {
    let text = wire::read_capped(path, MAX_JOURNAL_FILE_BYTES).map_err(|e| match e {
        wire::ReadError::Io(source) => io_err(path)(source),
        wire::ReadError::Oversized { actual } => EventError::Oversized {
            limit: MAX_JOURNAL_FILE_BYTES,
            actual,
        },
    })?;
    parse_journal(&text)
}

/// The pure parsing half of [`load_journal`], exposed for the parser-fuzz
/// harness.
///
/// # Errors
/// See [`load_journal`].
pub fn parse_journal(text: &str) -> Result<EventJournal, EventError> {
    let mut lines: Vec<&str> = text.lines().collect();
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    if lines.len() < 2 {
        return Err(EventError::Malformed {
            line: 0,
            reason: "journal shorter than header + tail".to_string(),
        });
    }
    let header = lines[0];
    let schema = wire::parse_json(header).ok();
    if schema.as_ref().and_then(|h| h.get("schema")?.as_str()) != Some(EVENTS_SCHEMA) {
        return Err(EventError::Schema {
            found: header.chars().take(80).collect(),
        });
    }
    let tail_doc = wire::parse_json(lines[lines.len() - 1]).map_err(malformed(lines.len()))?;
    let tail_u64 = |key: &str| wire::need_u64(&tail_doc, key).map_err(malformed(lines.len()));
    let count = tail_u64("events")?;
    let dropped = tail_u64("dropped")?;
    let expected = wire::need_str(&tail_doc, "hash")
        .map_err(malformed(lines.len()))?
        .to_string();
    // The hash covers everything before the tail line, newlines included.
    let mut body = String::new();
    for line in &lines[..lines.len() - 1] {
        body.push_str(line);
        body.push('\n');
    }
    let actual = format!("0x{:016x}", fnv64(body.as_bytes()));
    if actual != expected {
        return Err(EventError::HashMismatch { expected, actual });
    }
    let event_lines = &lines[1..lines.len() - 1];
    if event_lines.len() as u64 != count {
        return Err(EventError::Malformed {
            line: lines.len(),
            reason: format!(
                "tail says {count} events, journal has {}",
                event_lines.len()
            ),
        });
    }
    let mut events = Vec::with_capacity(event_lines.len());
    for (i, line) in event_lines.iter().enumerate() {
        let event = Event::parse(line).map_err(|e| match e {
            EventError::Malformed { reason, .. } => EventError::Malformed {
                line: i + 2,
                reason,
            },
            other => other,
        })?;
        events.push(event);
    }
    Ok(EventJournal { events, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, kind: EventKind) -> Event {
        Event {
            campaign: 3,
            seq,
            round: seq * 2,
            kind,
            value: 10 + seq,
            extra: seq,
            note: format!("note-{seq}"),
        }
    }

    #[test]
    fn kind_wire_names_round_trip() {
        let kinds = [
            EventKind::RoundCompleted,
            EventKind::Flag("fuzz-core-below-floor".to_string()),
            EventKind::Crash,
            EventKind::Quarantine,
            EventKind::Park,
            EventKind::Unpark,
            EventKind::CheckpointWritten,
            EventKind::FaultInjected,
            EventKind::WorkerRestart,
            EventKind::ScheduleDecision,
            EventKind::HealthFinding("coverage-plateau".to_string()),
            EventKind::Unknown("from-the-future".to_string()),
        ];
        for kind in kinds {
            assert_eq!(EventKind::parse(&kind.wire_name()), kind);
        }
    }

    #[test]
    fn event_lines_round_trip_with_escapes() {
        let mut ev = event(7, EventKind::Flag("io-wait-outside-cpuset".to_string()));
        ev.note = "tricky \"note\"\nwith\tescapes \\ and \u{1} control".to_string();
        let line = ev.render();
        assert_eq!(Event::parse(&line).unwrap(), ev);
    }

    #[test]
    fn event_lines_are_strict_json() {
        let line = event(2, EventKind::Crash).render();
        for bad in [
            format!("{line} trailing junk {{"),
            line.replace("\"seq\":2", "\"seq\":2x"),
            line.replace("note-2", "note\\q"),
        ] {
            assert_ne!(bad, line);
            assert!(
                matches!(Event::parse(&bad), Err(EventError::Malformed { .. })),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = EventLog::disabled();
        assert!(!log.is_enabled());
        log.emit(0, 0, EventKind::Crash, 1, 0, "ignored");
        assert_eq!(log.appended(), 0);
        assert!(log.snapshot().is_empty());
        assert_eq!(log.since(0), (Vec::new(), 0, 0));
        log.flush().unwrap();
    }

    #[test]
    fn ring_overwrites_and_cursors_survive() {
        let log = EventLog::enabled();
        let total = DEFAULT_EVENT_CAPACITY as u64 + 6;
        for seq in 0..total {
            log.emit(seq, seq, EventKind::RoundCompleted, seq, 0, "");
        }
        assert_eq!(log.appended(), total);
        let snap = log.snapshot();
        assert_eq!(snap.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(snap[0].seq, 6);
        let (events, next, missed) = log.since(2);
        assert_eq!(next, total);
        assert_eq!(missed, 4); // positions 2..6 were overwritten
        assert_eq!(events.len(), DEFAULT_EVENT_CAPACITY);
        let (tail, next, missed) = log.since(total - 1);
        assert_eq!((tail.len(), next, missed), (1, total, 0));
        let body = wire::parse_json(&log.since_json(total - 1)).unwrap();
        assert_eq!(wire::need_u64(&body, "next"), Ok(total));
        let entries = wire::need_array(&body, "events").unwrap();
        assert_eq!(Event::from_json(&entries[0]).unwrap(), tail[0]);
    }

    #[test]
    fn rings_allocate_on_demand() {
        let ring = EventRing::new();
        assert_eq!(ring.events.capacity(), 0);
    }

    #[test]
    fn tagged_handles_share_the_ring() {
        let log = EventLog::enabled();
        let tenant = log.tagged(42);
        tenant.emit(0, 1, EventKind::Crash, 1, 0, "");
        assert_eq!(log.appended(), 1);
        assert_eq!(log.snapshot()[0].campaign, 42);
        assert_eq!(tenant.campaign_tag(), 42);
    }

    #[test]
    fn drain_clears_but_keeps_cursor() {
        let log = EventLog::enabled();
        log.emit(0, 0, EventKind::Crash, 1, 0, "");
        log.emit(1, 1, EventKind::Quarantine, 1, 0, "");
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.snapshot().is_empty());
        assert_eq!(log.appended(), 2);
    }

    #[test]
    fn journal_round_trips_byte_identically() {
        let dir = std::env::temp_dir().join(format!("torpedo-events-test-{}", std::process::id()));
        let path = dir.join("events.ndjson");
        let log = EventLog::journaled(&path).unwrap();
        for seq in 0..5u64 {
            log.emit(
                seq,
                seq,
                EventKind::Flag("memory-beyond-limits".to_string()),
                1,
                0,
                "flagged",
            );
        }
        log.flush().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let journal = load_journal(&path).unwrap();
        assert_eq!(journal.events.len(), 5);
        assert_eq!(journal.dropped, 0);
        assert_eq!(
            journal.events[2].kind,
            EventKind::Flag("memory-beyond-limits".to_string())
        );
        // Re-flushing without new events rewrites the same bytes.
        log.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loader_rejects_tampered_and_alien_journals() {
        let dir = std::env::temp_dir().join(format!("torpedo-events-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let log = EventLog::journaled(&path).unwrap();
        log.emit(0, 0, EventKind::Crash, 1, 0, "boom");
        log.flush().unwrap();

        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, good.replace("\"value\":1", "\"value\":2")).unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(EventError::HashMismatch { .. })
        ));

        std::fs::write(&path, "{\"schema\":\"something-else\"}\n{}\n").unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(EventError::Schema { .. })
        ));

        assert!(matches!(
            parse_journal(""),
            Err(EventError::Malformed { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_journal_never_panics_on_garbage() {
        for garbage in [
            "",
            "\n\n\n",
            "{\"schema\":\"torpedo-events-v1\"}",
            "{\"schema\":\"torpedo-events-v1\"}\n{\"events\":0}\n",
            "{\"schema\":\"torpedo-events-v1\"}\nnot json\n{\"events\":1,\"dropped\":0,\"hash\":\"0x0\"}\n",
            "\u{0}\u{1}\u{2}",
        ] {
            let _ = parse_journal(garbage);
        }
    }
}
