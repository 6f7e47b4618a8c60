//! Round-log persistence: the on-disk format the offline flagging pass
//! consumes (§3.6.1: "TORPEDO uses this Oracle functionality to parse
//! through log files from each round and isolate small numbers of
//! adversarial programs asynchronously from actual program execution").
//!
//! One log is a sequence of round blocks:
//!
//! ```text
//! === round 17 batch 2 score 31.25 window 5000000 sidecar 3
//! --- recovery restarts 1 hangs 1 retried 0 salvaged 1 startfail 0 quarantined 0
//! --- programs
//! >>> executor 0 cpuset 0 quota 1
//! sync()
//! >>> executor 1 cpuset 1 quota 1
//! getpid()
//! --- proc_stat
//! cpu0 user 105 nice 0 system 331 idle 62 iowait 0 irq 0 softirq 0
//! …
//! === end
//! ```
//!
//! Per-core counters use the same `/proc/stat` tick unit (10 ms) as the
//! appendix tables, so archived logs diff cleanly against the paper.

use torpedo_kernel::cpu::{CpuCategory, CpuTimes};
use torpedo_kernel::time::Usecs;
use torpedo_oracle::observation::{ContainerInfo, Observation};
use torpedo_prog::{deserialize, serialize, SyscallDesc};

use crate::campaign::RoundLog;
use crate::stats::RecoveryStats;

// The strict JSON reader lives with the other wire primitives; these
// re-exports keep its `torpedo_core::logfmt` paths.
pub use torpedo_telemetry::wire::{parse_json, JsonValue, LogParseError, MAX_JSON_DEPTH};

/// Serialize one round log block.
pub fn write_round(log: &RoundLog, table: &[SyscallDesc]) -> String {
    let obs = &log.observation;
    let mut out = String::new();
    out.push_str(&format!(
        "=== round {} batch {} score {:.4} window {} sidecar {}\n",
        log.round,
        log.batch,
        log.score,
        obs.window.as_micros(),
        obs.sidecar_core.map_or(-1i64, |c| c as i64),
    ));
    // Recovery events are rare; the line is emitted only when one occurred,
    // so fault-free logs are byte-identical to the original format.
    if !log.recovery.is_zero() {
        let r = &log.recovery;
        out.push_str(&format!(
            "--- recovery restarts {} hangs {} retried {} salvaged {} startfail {} quarantined {}\n",
            r.worker_restarts,
            r.hangs_detected,
            r.rounds_retried,
            r.rounds_salvaged,
            r.start_failures,
            r.quarantined_programs,
        ));
    }
    out.push_str("--- programs\n");
    for (i, program) in log.programs.iter().enumerate() {
        let info = obs.containers.get(i);
        let cpuset = info
            .map(|c| {
                c.cpuset
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        let quota = info.and_then(|c| c.cpu_quota).unwrap_or(0.0);
        out.push_str(&format!(">>> executor {i} cpuset {cpuset} quota {quota}\n"));
        out.push_str(&serialize(program, table));
    }
    out.push_str("--- proc_stat\n");
    for (core, row) in obs.per_core.iter().enumerate() {
        out.push_str(&format!("cpu{core}"));
        for cat in CpuCategory::ALL {
            out.push_str(&format!(
                " {} {}",
                cat.header().to_lowercase().replace(' ', "_"),
                row.get(cat).as_micros() / 10_000
            ));
        }
        out.push('\n');
    }
    out.push_str("=== end\n");
    out
}

/// A round block parsed back from a log (programs + the observation fields
/// the offline flagging pass needs).
#[derive(Debug, Clone)]
pub struct ParsedRound {
    /// Round number.
    pub round: u64,
    /// Batch index.
    pub batch: usize,
    /// Oracle score recorded at runtime.
    pub score: f64,
    /// Reconstructed observation (no `top` frame: logs archive the
    /// `/proc/stat` view, as the paper's appendix does).
    pub observation: Observation,
    /// The programs that ran (shared, like the live round log).
    pub programs: Vec<std::sync::Arc<torpedo_prog::Program>>,
    /// Recovery events recorded for the round (all zero when the log block
    /// carries no `--- recovery` line).
    pub recovery: RecoveryStats,
}

/// Parse a whole log back into round blocks.
///
/// # Errors
/// [`LogParseError`] at the first malformed line.
pub fn parse_log(text: &str, table: &[SyscallDesc]) -> Result<Vec<ParsedRound>, LogParseError> {
    let mut rounds = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let header = line
            .strip_prefix("=== round ")
            .ok_or_else(|| err(lineno, "expected '=== round' header"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        // <round> batch <b> score <s> window <w> sidecar <c>
        if fields.len() != 9 {
            return Err(err(lineno, "malformed round header"));
        }
        let round: u64 = parse_field(fields[0], lineno)?;
        let batch: usize = parse_field(fields[2], lineno)?;
        let score: f64 = parse_field(fields[4], lineno)?;
        let window = Usecs(parse_field(fields[6], lineno)?);
        let sidecar: i64 = parse_field(fields[8], lineno)?;

        // Optional recovery line (absent in fault-free logs and in logs
        // written before the supervision subsystem existed).
        let mut recovery = RecoveryStats::default();
        if let Some(&(n, peeked)) = lines.peek() {
            if let Some(rest) = peeked.trim().strip_prefix("--- recovery ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                match parts.as_slice() {
                    ["restarts", a, "hangs", b, "retried", c, "salvaged", d, "startfail", e, "quarantined", f] =>
                    {
                        recovery = RecoveryStats {
                            worker_restarts: parse_field(a, n)?,
                            hangs_detected: parse_field(b, n)?,
                            rounds_retried: parse_field(c, n)?,
                            rounds_salvaged: parse_field(d, n)?,
                            start_failures: parse_field(e, n)?,
                            quarantined_programs: parse_field(f, n)?,
                        };
                    }
                    _ => return Err(err(n, "malformed recovery line")),
                }
                lines.next();
            }
        }

        expect_line(&mut lines, "--- programs")?;
        let mut programs = Vec::new();
        let mut containers = Vec::new();
        let mut program_text = String::new();
        let mut cur_header: Option<(Vec<usize>, Option<f64>)> = None;
        loop {
            let Some(&(n, peeked)) = lines.peek() else {
                return Err(err(usize::MAX, "unterminated programs section"));
            };
            let peeked = peeked.trim();
            if peeked == "--- proc_stat" || peeked.starts_with(">>> executor ") {
                if let Some((cpuset, quota)) = cur_header.take() {
                    let program = deserialize(&program_text, table)
                        .map_err(|e| err(n, &format!("program parse: {e}")))?;
                    containers.push(ContainerInfo {
                        name: format!("fuzz-{}", programs.len()),
                        cpuset,
                        cpu_quota: quota,
                        memory_limit: None,
                        memory_used: 0,
                        io_bytes: 0,
                        oom_events: 0,
                    });
                    programs.push(std::sync::Arc::new(program));
                    program_text.clear();
                }
                if peeked == "--- proc_stat" {
                    lines.next();
                    break;
                }
                let (n2, header_line) = lines.next().expect("peeked");
                let rest = header_line.trim().strip_prefix(">>> executor ").unwrap();
                let parts: Vec<&str> = rest.split_whitespace().collect();
                // <i> cpuset <set> quota <q> — cpuset may be empty.
                let (cpuset_str, quota_str) = match parts.as_slice() {
                    [_, "cpuset", set, "quota", q] => (*set, *q),
                    [_, "cpuset", "quota", q] => ("", *q),
                    _ => return Err(err(n2, "malformed executor header")),
                };
                let cpuset = cpuset_str
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
                    .map_err(|_| err(n2, "bad cpuset"))?;
                let quota: f64 = parse_field(quota_str, n2)?;
                cur_header = Some((cpuset, if quota == 0.0 { None } else { Some(quota) }));
            } else {
                let (_, text_line) = lines.next().expect("peeked");
                program_text.push_str(text_line);
                program_text.push('\n');
            }
        }

        // proc_stat rows until "=== end".
        let mut per_core = Vec::new();
        loop {
            let Some((n, row_line)) = lines.next() else {
                return Err(err(usize::MAX, "unterminated proc_stat section"));
            };
            let row_line = row_line.trim();
            if row_line == "=== end" {
                break;
            }
            let mut parts = row_line.split_whitespace();
            let _core = parts.next().ok_or_else(|| err(n, "missing core label"))?;
            let mut row = CpuTimes::default();
            for cat in CpuCategory::ALL {
                let key = parts.next().ok_or_else(|| err(n, "missing category"))?;
                let expected = cat.header().to_lowercase().replace(' ', "_");
                if key != expected {
                    return Err(err(n, &format!("expected {expected}, got {key}")));
                }
                let ticks: u64 = parse_field(parts.next().unwrap_or(""), n)?;
                row.charge(cat, Usecs(ticks * 10_000));
            }
            per_core.push(row);
        }

        rounds.push(ParsedRound {
            round,
            batch,
            score,
            observation: Observation {
                window,
                per_core,
                top: None,
                containers,
                sidecar_core: if sidecar < 0 {
                    None
                } else {
                    Some(sidecar as usize)
                },
                startup_times: Vec::new(),
            },
            programs,
            recovery,
        });
    }
    Ok(rounds)
}

fn err(line: usize, message: &str) -> LogParseError {
    LogParseError {
        line: line.saturating_add(1),
        message: message.to_string(),
    }
}

fn parse_field<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, LogParseError> {
    s.parse()
        .map_err(|_| err(line, &format!("unparseable field '{s}'")))
}

fn expect_line<'a, I>(lines: &mut I, expected: &str) -> Result<(), LogParseError>
where
    I: Iterator<Item = (usize, &'a str)>,
{
    match lines.next() {
        Some((_, line)) if line.trim() == expected => Ok(()),
        Some((n, line)) => Err(err(n, &format!("expected '{expected}', got '{line}'"))),
        None => Err(err(usize::MAX, &format!("expected '{expected}', got EOF"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_kernel::KernelConfig;
    use torpedo_oracle::{CpuOracle, Oracle};
    use torpedo_prog::build_table;

    use crate::campaign::{Campaign, CampaignConfig};
    use crate::observer::ObserverConfig;
    use crate::seeds::{default_denylist, SeedCorpus};

    fn small_report() -> (Vec<RoundLog>, Vec<SyscallDesc>) {
        let table = build_table();
        let seeds = SeedCorpus::load(
            &[
                "sync()\n",
                "getpid()\n",
                "r0 = socket(0x10, 0x3, 0x9)\nsendto(r0, 0x0, 0x24, 0x0, 0x0, 0xc)\n",
            ],
            &table,
            &default_denylist(),
        )
        .unwrap();
        let config = CampaignConfig {
            kernel: KernelConfig::default(),
            observer: ObserverConfig {
                window: Usecs::from_secs(1),
                executors: 3,
                ..ObserverConfig::default()
            },
            max_rounds_per_batch: 3,
            ..CampaignConfig::default()
        };
        let report = Campaign::new(config, table.clone())
            .run(&seeds, &CpuOracle::new())
            .unwrap();
        (report.logs, table)
    }

    #[test]
    fn round_trip_preserves_flagging_inputs() {
        let (logs, table) = small_report();
        assert!(!logs.is_empty());
        let text: String = logs.iter().map(|l| write_round(l, &table)).collect();
        let parsed = parse_log(&text, &table).unwrap();
        assert_eq!(parsed.len(), logs.len());
        let oracle = CpuOracle::new();
        for (orig, back) in logs.iter().zip(&parsed) {
            assert_eq!(orig.round, back.round);
            assert_eq!(orig.programs, back.programs);
            // Flagging on the parsed log agrees with flagging on the live
            // observation, modulo the top-based heuristic (logs archive the
            // /proc/stat view only) and tick rounding near a threshold.
            let live: Vec<_> = oracle
                .flag(&orig.observation)
                .into_iter()
                .filter(|v| {
                    v.heuristic != torpedo_oracle::HeuristicKind::SystemProcessAboveBaseline
                        && (v.measured - v.threshold).abs() > 1.0
                })
                .map(|v| (v.heuristic, v.core))
                .collect();
            let archived: Vec<_> = oracle
                .flag(&back.observation)
                .into_iter()
                .map(|v| (v.heuristic, v.core))
                .collect();
            for v in live {
                assert!(archived.contains(&v), "lost violation {v:?}");
            }
        }
    }

    #[test]
    fn malformed_header_is_reported_with_line() {
        let table = build_table();
        let e = parse_log("=== round nonsense\n", &table).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn truncated_log_is_an_error() {
        let (logs, table) = small_report();
        let text = write_round(&logs[0], &table);
        let truncated = &text[..text.len() / 2];
        assert!(parse_log(truncated, &table).is_err());
    }

    #[test]
    fn recovery_line_round_trips() {
        let (logs, table) = small_report();
        let mut log = logs[0].clone();
        log.recovery = RecoveryStats {
            worker_restarts: 2,
            hangs_detected: 1,
            rounds_retried: 1,
            rounds_salvaged: 1,
            start_failures: 3,
            quarantined_programs: 1,
        };
        let text = write_round(&log, &table);
        assert!(text.contains(
            "--- recovery restarts 2 hangs 1 retried 1 salvaged 1 startfail 3 quarantined 1\n"
        ));
        let parsed = parse_log(&text, &table).unwrap();
        assert_eq!(parsed[0].recovery, log.recovery);
        // Fault-free rounds stay byte-compatible: no recovery line at all.
        let clean = write_round(&logs[0], &table);
        assert!(!clean.contains("--- recovery"));
        assert!(parse_log(&clean, &table).unwrap()[0].recovery.is_zero());
    }

    #[test]
    fn empty_log_parses_to_nothing() {
        let table = build_table();
        assert!(parse_log("", &table).unwrap().is_empty());
        assert!(parse_log("\n\n", &table).unwrap().is_empty());
    }

    /// The default observer config's telemetry handle is disabled, so its
    /// metrics export reads back as the enabled flag alone: no counters, no
    /// histograms.
    #[test]
    fn disabled_metrics_export_parses_empty() {
        use torpedo_telemetry::{check_exposition, prometheus_exposition};
        let telemetry = ObserverConfig::default().telemetry;
        let samples = check_exposition(&prometheus_exposition(&telemetry)).unwrap();
        assert_eq!(samples, vec![("torpedo_telemetry_enabled".to_string(), 0.0)]);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"schema\":").is_err());
        // Trailing garbage after a valid document is not silently ignored.
        assert!(parse_json("{} extra").is_err());
        // Nested structures and escapes decode.
        let v = parse_json("{\"a\":[1,2.5,-3],\"b\":\"x\\ny\",\"c\":{\"d\":null}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_decode_and_bad_escapes_fail() {
        let v = parse_json("\"a\\\"b\\\\c\\/d\\n\\t\\r\\b\\f\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\n\t\r\u{8}\u{c}A\u{e9}"));
        assert!(parse_json("\"\\x41\"").is_err(), "unknown escape");
        assert!(parse_json("\"\\u12\"").is_err(), "truncated \\u escape");
        assert!(parse_json("\"\\ud800\"").is_err(), "lone surrogate");
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_json_depth() {
        // Exactly at the limit parses; one deeper is rejected instead of
        // overflowing the parser's stack.
        let ok = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&ok).is_ok());
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let e = parse_json(&deep).unwrap_err();
        assert!(e.message.contains("nesting too deep"), "{e}");
        // Mixed object/array nesting counts, too.
        let mixed = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + "0" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&mixed).is_err());
        // Depth resets between sibling containers: wide documents are fine.
        let wide = format!("[{}]", vec!["[0]"; 500].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        assert!(parse_json("NaN").is_err());
        assert!(parse_json("Infinity").is_err());
        assert!(parse_json("-Infinity").is_err());
        // 1e999 overflows f64 to +inf — must not parse as a JSON number.
        assert!(parse_json("1e999").is_err());
        assert!(parse_json("-1e999").is_err());
        assert!(parse_json("[1,NaN]").is_err());
        // Ordinary scientific notation still parses.
        assert_eq!(parse_json("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(parse_json("-2e-2").unwrap().as_f64(), Some(-0.02));
    }

    #[test]
    fn trailing_garbage_variants_are_rejected() {
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("[1],").is_err());
        assert!(parse_json("{\"a\":1}}").is_err());
        assert!(parse_json("null null").is_err());
        // Trailing whitespace alone is fine.
        assert!(parse_json("  {\"a\":1}  \n").is_ok());
    }
}
