//! `parser_fuzz`: the in-tree, dependency-free fuzzer for every text
//! format TORPEDO parses from disk. The cargo-fuzz targets under `fuzz/`
//! wrap the same five surfaces with libFuzzer for coverage-guided runs;
//! this binary is the fallback that needs nothing beyond the workspace —
//! a deterministic xorshift64* mutation loop over the committed corpora,
//! so CI exercises the parsers on hostile input even where cargo-fuzz and
//! a nightly toolchain are unavailable.
//!
//! Every target is a *panic hunt*: the parsers must return typed errors
//! on arbitrary input, so any panic aborts the run with a non-zero exit
//! and the offending input on stderr. A target that completes no input
//! within its share of the budget also fails the run.
//!
//! Targets:
//!
//! * `logfmt_json` — [`torpedo_core::parse_json`], [`parse_log`] and
//!   [`parse_metrics`] over JSON and round-log text.
//! * `forensics_bundle` — [`torpedo_core::parse_bundle`]
//!   (`torpedo-forensics-v1`).
//! * `seed_file` — the program deserializer, [`SeedCorpus::load`] and the
//!   `torpedo-corpus-v1` importer.
//! * `snapshot_bundle` — [`torpedo_core::parse_snapshot`]
//!   (`torpedo-snapshot-v1`), on each mutant as it is and again with its
//!   hash tail re-sealed, since nearly every mutation breaks the hash and
//!   would otherwise never reach the member reader.
//! * `events_journal` — [`parse_journal`] (`torpedo-events-v1`), plus
//!   [`Event::parse`] on every line, since a mutated journal rarely gets
//!   past the hash check to its event lines.
//!
//! Usage:
//!
//! * `parser_fuzz [--secs N] [--target NAME]` — fuzz (all targets by
//!   default), splitting the `N`-second budget evenly (default 20 s).
//! * `parser_fuzz --emit-corpus DIR` — write the generated exemplar
//!   inputs to `DIR/<target>/` (how `fuzz/corpora/` was produced).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use torpedo_core::campaign::{Campaign, CampaignConfig};
use torpedo_core::logfmt::{parse_json, parse_log, parse_metrics, write_round};
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::{
    export_corpus, import_corpus, load_latest, parse_bundle, parse_snapshot, CheckpointConfig,
};
use torpedo_kernel::Usecs;
use torpedo_oracle::IoOracle;
use torpedo_prog::{build_table, deserialize, SyscallDesc};
use torpedo_telemetry::events::parse_journal;
use torpedo_telemetry::wire::fnv64;
use torpedo_telemetry::{Event, EventLog};

const TARGETS: [&str; 5] = [
    "logfmt_json",
    "forensics_bundle",
    "seed_file",
    "snapshot_bundle",
    "events_journal",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--emit-corpus") {
        let Some(dir) = args.get(1) else {
            std::process::exit(usage());
        };
        emit_corpus(Path::new(dir));
        return;
    }
    let secs = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(20.0);
    let only = args
        .iter()
        .position(|a| a == "--target")
        .and_then(|i| args.get(i + 1).cloned());

    let targets: Vec<&str> = match &only {
        Some(name) => match TARGETS.iter().find(|t| *t == name) {
            Some(t) => vec![*t],
            None => {
                eprintln!("parser_fuzz: unknown target '{name}' (have {TARGETS:?})");
                std::process::exit(2);
            }
        },
        None => TARGETS.to_vec(),
    };
    let budget = Duration::from_secs_f64(secs / targets.len() as f64);

    let table = build_table();
    let exemplars = Exemplars::generate(&table);
    for target in targets {
        let seeds = corpus_for(target, &exemplars);
        let iters = fuzz_target(target, &seeds, budget, &table);
        eprintln!(
            "parser_fuzz: {target:<17} {iters} inputs in {:.1}s ({:.0}/s), {} seed(s)",
            budget.as_secs_f64(),
            iters as f64 / budget.as_secs_f64().max(1e-9),
            seeds.len(),
        );
        if iters == 0 {
            eprintln!("parser_fuzz: no progress on {target}");
            std::process::exit(1);
        }
    }
    eprintln!("parser_fuzz: ok (no parser panicked)");
}

fn usage() -> i32 {
    eprintln!(
        "usage: parser_fuzz [--secs N] [--target {}] | --emit-corpus DIR",
        TARGETS.join("|")
    );
    2
}

/// Deterministic exemplar inputs for every target, generated from a real
/// (tiny) campaign so the corpora start deep inside each grammar.
struct Exemplars {
    logfmt_json: Vec<Vec<u8>>,
    forensics_bundle: Vec<Vec<u8>>,
    seed_file: Vec<Vec<u8>>,
    snapshot_bundle: Vec<Vec<u8>>,
    events_journal: Vec<Vec<u8>>,
}

impl Exemplars {
    fn generate(table: &[SyscallDesc]) -> Exemplars {
        let base = std::env::temp_dir().join(format!("torpedo-parser-fuzz-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        // The sync() storm flags deterministically under the I/O oracle
        // (the forensics_inspect replay test pins this), giving us a real
        // forensics bundle; checkpointing every round gives a snapshot,
        // and the journaled event log an events journal (in a directory
        // of its own: checkpoint GC sweeps stray temp files from `base`).
        let journal = base.join("events").join("events.ndjson");
        let seeds = SeedCorpus::load(
            &["sync()\nsync()\n", "getpid()\n"],
            table,
            &default_denylist(),
        )
        .expect("exemplar seeds");
        let config = CampaignConfig {
            observer: ObserverConfig {
                window: Usecs::from_secs(1),
                executors: 2,
                collider: true,
                ..ObserverConfig::default()
            },
            max_rounds_per_batch: 3,
            forensics: true,
            checkpoint: Some(CheckpointConfig {
                dir: base.clone(),
                interval_rounds: 1,
                keep: 2,
            }),
            events: EventLog::journaled(&journal).expect("exemplar journal"),
            ..CampaignConfig::default()
        };
        let report = Campaign::new(config, table.to_vec())
            .run(&seeds, &IoOracle::new())
            .expect("exemplar campaign");
        let snapshot_text = load_latest(&base)
            .map(|(bundle, _)| bundle.render())
            .expect("exemplar checkpoint");
        let journal_text = std::fs::read(&journal).expect("exemplar journal written");
        std::fs::remove_dir_all(&base).ok();

        let round_text = write_round(&report.logs[0], table);
        let logfmt_json = vec![
            br#"{"schema":"torpedo-x","n":3,"neg":-17,"pi":3.5,"arr":[1,2,3],"s":"he\"llo\n","t":true,"nul":null,"nest":{"a":[{"b":0.5}]}}"#.to_vec(),
            round_text.clone().into_bytes(),
        ];
        let forensics_bundle = report
            .forensics
            .first()
            .map(|b| b.to_json().into_bytes())
            .into_iter()
            .collect();
        let seed_file = vec![
            b"sync()\nsocket(0x9, 0x3, 0x0)\n".to_vec(),
            b"r1 = creat(&'workfile-0', 0x1a4)\nfallocate(r1, 0x0, 0x0, 0x100000)\n".to_vec(),
            export_corpus(&report.corpus, table).into_bytes(),
        ];
        Exemplars {
            logfmt_json,
            forensics_bundle,
            seed_file,
            snapshot_bundle: vec![snapshot_text.into_bytes()],
            events_journal: vec![journal_text],
        }
    }

    fn builtin(&self, target: &str) -> &[Vec<u8>] {
        match target {
            "logfmt_json" => &self.logfmt_json,
            "forensics_bundle" => &self.forensics_bundle,
            "seed_file" => &self.seed_file,
            "snapshot_bundle" => &self.snapshot_bundle,
            "events_journal" => &self.events_journal,
            _ => unreachable!("unknown target"),
        }
    }
}

/// The committed corpus for `target` when present (fuzz/corpora/<target>),
/// else the generated exemplars.
fn corpus_for(target: &str, exemplars: &Exemplars) -> Vec<Vec<u8>> {
    let dir = Path::new("fuzz").join("corpora").join(target);
    let mut seeds = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if let Ok(bytes) = std::fs::read(&path) {
                seeds.push(bytes);
            }
        }
    }
    if seeds.is_empty() {
        seeds = exemplars.builtin(target).to_vec();
    }
    seeds
}

fn emit_corpus(dir: &Path) {
    let table = build_table();
    let exemplars = Exemplars::generate(&table);
    for target in TARGETS {
        let tdir = dir.join(target);
        std::fs::create_dir_all(&tdir).expect("create corpus dir");
        for (i, bytes) in exemplars.builtin(target).iter().enumerate() {
            let path = tdir.join(format!("seed-{i}"));
            std::fs::write(&path, bytes).expect("write corpus seed");
            eprintln!(
                "parser_fuzz: wrote {} ({} bytes)",
                path.display(),
                bytes.len()
            );
        }
    }
}

/// xorshift64* — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Mutate `bytes` in place: 1–4 stacked byte-level edits drawn from the
/// classic flip/overwrite/truncate/insert/duplicate/splice set.
fn mutate(bytes: &mut Vec<u8>, rng: &mut XorShift, pool: &[Vec<u8>]) {
    for _ in 0..=(rng.next() % 4) {
        match rng.next() % 6 {
            0 if !bytes.is_empty() => {
                let i = (rng.next() % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << (rng.next() % 8);
            }
            1 if !bytes.is_empty() => {
                let i = (rng.next() % bytes.len() as u64) as usize;
                bytes[i] = (rng.next() & 0xFF) as u8;
            }
            2 if !bytes.is_empty() => {
                let len = (rng.next() % bytes.len() as u64) as usize;
                bytes.truncate(len);
            }
            3 => {
                let i = (rng.next() % (bytes.len() as u64 + 1)) as usize;
                bytes.insert(i, (rng.next() & 0xFF) as u8);
            }
            4 if !bytes.is_empty() => {
                let start = (rng.next() % bytes.len() as u64) as usize;
                let end = start + 1 + (rng.next() % 16) as usize;
                let slice: Vec<u8> = bytes[start..end.min(bytes.len())].to_vec();
                let at = (rng.next() % (bytes.len() as u64 + 1)) as usize;
                bytes.splice(at..at, slice);
            }
            _ => {
                // Splice: head of this input, tail of another seed.
                let other = &pool[(rng.next() % pool.len() as u64) as usize];
                let cut = (rng.next() % (bytes.len() as u64 + 1)) as usize;
                let from = (rng.next() % (other.len() as u64 + 1)) as usize;
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[from..]);
            }
        }
    }
}

fn fuzz_target(target: &str, seeds: &[Vec<u8>], budget: Duration, table: &[SyscallDesc]) -> u64 {
    let denylist = default_denylist();
    let mut rng = XorShift(0x7042_ED0F ^ fnv64(target.as_bytes()));
    let deadline = Instant::now() + budget;
    let mut iters = 0u64;
    while Instant::now() < deadline {
        let mut input = seeds[(rng.next() % seeds.len() as u64) as usize].clone();
        mutate(&mut input, &mut rng, seeds);
        let lossy = String::from_utf8_lossy(&input);
        let text: &str = lossy.as_ref();
        match target {
            "logfmt_json" => {
                std::hint::black_box(parse_json(text).is_ok());
                std::hint::black_box(parse_log(text, table).is_ok());
                std::hint::black_box(parse_metrics(text).is_ok());
            }
            "forensics_bundle" => {
                std::hint::black_box(parse_bundle(text).is_ok());
            }
            "seed_file" => {
                std::hint::black_box(deserialize(text, table).is_ok());
                std::hint::black_box(SeedCorpus::load(&[text], table, &denylist).is_ok());
                std::hint::black_box(import_corpus(text, table).is_ok());
            }
            "snapshot_bundle" => {
                std::hint::black_box(parse_snapshot(text).is_ok());
                let body = text.rfind(",\"hash\":\"").map_or(text, |end| &text[..end]);
                let sealed = format!("{body},\"hash\":\"{:#018x}\"}}", fnv64(body.as_bytes()));
                std::hint::black_box(parse_snapshot(&sealed).is_ok());
            }
            "events_journal" => {
                std::hint::black_box(parse_journal(text).is_ok());
                for line in text.lines() {
                    std::hint::black_box(Event::parse(line).is_ok());
                }
            }
            _ => unreachable!("unknown target"),
        }
        iters += 1;
    }
    iters
}
