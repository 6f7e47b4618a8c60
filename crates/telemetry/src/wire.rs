//! Wire-format primitives: the one definition of each building block the
//! workspace's on-disk formats share.
//!
//! * FNV-1a-64 ([`Fnv64`], [`fnv64`]) — checkpoint and journal hash tails,
//!   the checkpoint config fingerprint, program ids, the kernel's
//!   syscall-name table, kcov signals and ([`FnvBuildHasher`]) the
//!   kernel's id-keyed maps.
//! * Crash-safe replacement ([`write_synced`] then [`commit_rename`]) —
//!   checkpoint bundles and event journals.
//! * Size-capped reads ([`read_capped`]) — every loader of untrusted files.
//! * JSON: [`escape`] for writers, and the strict reader ([`parse_json`],
//!   [`JsonValue`]) with its required-member accessors ([`need`], …).
//!
//! Telemetry is the workspace crate with no dependencies, so every other
//! crate can use these instead of keeping a copy. The hash and the escape
//! define bytes that are persisted, so changing either changes files on
//! disk; the tests pin both.

use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// FNV-1a-64
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a-64. Feeding bytes in pieces hashes exactly like one
/// [`fnv64`] call over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    #[inline]
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold the little-endian bytes of `word`.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// [`Fnv64`] as the hasher of a `HashMap` keyed by integer ids the
/// program assigns itself (pids, cgroup ids, fds): a few multiplies per
/// key where std's SipHash-1-3 runs its rounds. FNV has no key, so maps
/// whose keys an outside party picks (paths, container names) keep std's
/// keyed `RandomState`.
impl std::hash::Hasher for Fnv64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`Fnv64`] hashers: `HashMap<K, V, FnvBuildHasher>`.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<Fnv64>;

/// FNV-1a-64 of `bytes`.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Crash-safe replacement and capped reads
// ---------------------------------------------------------------------

/// The temp file a crash-safe replacement of `target` writes first:
/// `.<name>.tmp` in the same directory, so the final rename never
/// crosses a filesystem.
pub fn temp_path(target: &Path) -> PathBuf {
    let name = target.file_name().unwrap_or_default().to_string_lossy();
    target.with_file_name(format!(".{name}.tmp"))
}

/// Step one of a crash-safe replacement: write `bytes` to `tmp` and fsync
/// it. A process that dies after this step leaves the old target intact
/// and an orphaned temp file behind.
///
/// # Errors
/// Any failure creating, writing or syncing `tmp`.
pub fn write_synced(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Step two: atomically rename `tmp` over `target`, then fsync the
/// directory so the rename itself is durable. A reader sees either the
/// old file or the new one, never a torn mix.
///
/// # Errors
/// A failed rename. (The directory fsync is best effort.)
pub fn commit_rename(tmp: &Path, target: &Path) -> io::Result<()> {
    std::fs::rename(tmp, target)?;
    if let Some(dir) = target.parent() {
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

/// Why [`read_capped`] returned no text.
#[derive(Debug)]
pub enum ReadError {
    /// The file could not be opened or read, or is not UTF-8.
    Io(io::Error),
    /// The input is larger than the cap. `actual` is the size metadata
    /// reported, or the bytes read (the cap plus one) for inputs whose
    /// metadata does not tell: FIFOs, devices, files still growing.
    Oversized {
        /// Bytes found.
        actual: usize,
    },
}

/// Read `path` as UTF-8 text of at most `limit` bytes. A regular file
/// larger than `limit` is rejected from its metadata before any byte is
/// read; anything else is read through a `limit + 1` byte window, so no
/// input makes the caller buffer more than that.
///
/// # Errors
/// [`ReadError::Oversized`] past the cap, [`ReadError::Io`] otherwise.
pub fn read_capped(path: &Path, limit: usize) -> Result<String, ReadError> {
    let len = std::fs::metadata(path).map_err(ReadError::Io)?.len();
    if len > limit as u64 {
        return Err(ReadError::Oversized {
            actual: len as usize,
        });
    }
    // Sized from metadata, so a regular file reads without regrowing.
    let mut text = String::with_capacity(len as usize);
    std::fs::File::open(path)
        .and_then(|file| file.take(limit as u64 + 1).read_to_string(&mut text))
        .map_err(ReadError::Io)?;
    if text.len() > limit {
        return Err(ReadError::Oversized { actual: text.len() });
    }
    Ok(text)
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// Append `text` to `out` as the body of a JSON string literal: quotes,
/// backslashes and control characters escaped, everything else verbatim.
pub fn escape(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A parse failure in one of the workspace's text formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for LogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LogParseError {}

/// A document-level error: well-formed JSON whose content is wrong.
pub fn invalid(message: impl Into<String>) -> LogParseError {
    LogParseError {
        line: 1,
        message: message.into(),
    }
}

/// A minimal JSON value. Object keys keep their emission order (the
/// export order is part of each schema contract — stable for diffing).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Integers are exact up to 2^53; formats that
    /// persist wider values (seeds, hashes) write them as hex strings.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in emission order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, in emission order.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (counters, bucket counts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Member `key` of object `doc`, or [`invalid`] when absent. The typed
/// `need_*` accessors also reject a member of another type.
pub fn need<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue, LogParseError> {
    doc.get(key)
        .ok_or_else(|| invalid(format!("missing member '{key}'")))
}

/// [`need`] as a non-negative integer.
pub fn need_u64(doc: &JsonValue, key: &str) -> Result<u64, LogParseError> {
    need(doc, key)?
        .as_u64()
        .ok_or_else(|| invalid(format!("member '{key}' not an integer")))
}

/// [`need`] as a number.
pub fn need_f64(doc: &JsonValue, key: &str) -> Result<f64, LogParseError> {
    need(doc, key)?
        .as_f64()
        .ok_or_else(|| invalid(format!("member '{key}' not a number")))
}

/// [`need`] as a string.
pub fn need_str<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, LogParseError> {
    need(doc, key)?
        .as_str()
        .ok_or_else(|| invalid(format!("member '{key}' not a string")))
}

/// [`need`] as a boolean.
pub fn need_bool(doc: &JsonValue, key: &str) -> Result<bool, LogParseError> {
    need(doc, key)?
        .as_bool()
        .ok_or_else(|| invalid(format!("member '{key}' not a bool")))
}

/// [`need`] as an object's members, in order.
pub fn need_object<'a>(
    doc: &'a JsonValue,
    key: &str,
) -> Result<&'a [(String, JsonValue)], LogParseError> {
    need(doc, key)?
        .as_object()
        .ok_or_else(|| invalid(format!("member '{key}' not an object")))
}

/// [`need`] as an array.
pub fn need_array<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], LogParseError> {
    need(doc, key)?
        .as_array()
        .ok_or_else(|| invalid(format!("member '{key}' not an array")))
}

/// Parse a JSON document (single value plus trailing whitespace).
///
/// # Errors
/// [`LogParseError`] with the byte offset of the first malformed token in
/// the message (the documents are single-line, so line numbers carry no
/// information).
pub fn parse_json(text: &str) -> Result<JsonValue, LogParseError> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after JSON document"));
    }
    Ok(value)
}

/// Maximum container nesting [`parse_json`] accepts. The parser is
/// recursive-descent, so unbounded nesting would overflow the stack on
/// adversarial input; no torpedo export nests deeper than ~6 levels.
pub const MAX_JSON_DEPTH: usize = 96;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn fail(&self, message: &str) -> LogParseError {
        LogParseError {
            line: 1,
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), LogParseError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, LogParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, LogParseError>,
    ) -> Result<JsonValue, LogParseError> {
        if self.depth >= MAX_JSON_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, LogParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, LogParseError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, LogParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, LogParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.fail("invalid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.fail("bad char"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, LogParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        match text.parse::<f64>() {
            // `"1e999".parse::<f64>()` is Ok(inf) in Rust: JSON has no
            // non-finite numbers, so reject them explicitly.
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            Ok(_) => Err(self.fail("non-finite number")),
            Err(_) => Err(self.fail("malformed number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_standard_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces equals one pass over the concatenation.
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        let mut h = Fnv64::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv64(&[8, 7, 6, 5, 4, 3, 2, 1]));
        // Through `Hasher`, a derived `Hash` of an integer id is FNV over
        // its native-endian bytes.
        use std::hash::BuildHasher as _;
        assert_eq!(
            FnvBuildHasher::default().hash_one(7u32),
            fnv64(&7u32.to_ne_bytes())
        );
    }

    #[test]
    fn escape_round_trips_through_the_reader() {
        let text = "tricky \"quote\"\nnew\tline \\ \r and \u{1}\u{1f} é";
        let mut lit = String::from("\"");
        escape(&mut lit, text);
        lit.push('"');
        assert_eq!(
            lit,
            "\"tricky \\\"quote\\\"\\nnew\\tline \\\\ \\r and \\u0001\\u001f é\""
        );
        assert_eq!(parse_json(&lit).unwrap().as_str(), Some(text));
    }
}
