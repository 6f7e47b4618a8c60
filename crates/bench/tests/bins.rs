//! The inspector binaries, driven end to end: each test builds its fixture
//! in-process (a campaign, a checkpoint, a bundle or a journal), then runs
//! the binary on it and checks both the exit status and what it printed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::forensics::{parse_bundle, BundleKind};
use torpedo_core::logfmt::{parse_json, write_round};
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::{export_corpus, import_corpus, load_latest, CheckpointConfig};
use torpedo_kernel::Usecs;
use torpedo_oracle::{CpuOracle, IoOracle};
use torpedo_prog::{build_table, SyscallDesc};
use torpedo_telemetry::events::parse_journal;
use torpedo_telemetry::server::request;
use torpedo_telemetry::{
    check_exposition, load_journal, EventKind, EventLog, Series, Telemetry, DEFAULT_BUCKET_ROUNDS,
};

/// What one run of a binary left behind.
struct Run {
    success: bool,
    stdout: String,
    stderr: String,
}

fn run(exe: &str, args: &[&str]) -> Run {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{exe} did not start: {e}"));
    Run {
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torpedo-bins-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn status_probe_fetches_every_endpoint() {
    let table = build_table();
    let seeds = SeedCorpus::load(&["sync()\n", "getpid()\n"], &table, &default_denylist())
        .expect("seed corpus");
    let config = CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 2,
            telemetry: Telemetry::enabled(),
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 2,
        status_addr: Some("127.0.0.1:0".to_string()),
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(config, table);
    campaign
        .run(&seeds, &CpuOracle::new())
        .expect("smoke campaign");
    // The server outlives run(): the final stats page stays served until
    // the campaign itself drops.
    let addr = campaign.status_local_addr().expect("status server bound");
    let addr_text = addr.to_string();
    let probe = |path: &str| {
        let mut run = run(env!("CARGO_BIN_EXE_status_probe"), &[&addr_text, path]);
        // The binary prints the body with a trailing newline.
        run.stdout.pop();
        run
    };

    let page = probe("/");
    assert!(page.success, "{}", page.stderr);
    assert!(
        page.stdout.contains("TORPEDO campaign status"),
        "{}",
        page.stdout
    );

    // The exposition passes the checker and carries the enabled gauge, the
    // rounds counter and the round-latency histogram; `/metrics.prom` is an
    // alias that serves it too.
    for path in ["/metrics", "/metrics.prom"] {
        let metrics = probe(path);
        assert!(metrics.success, "{}", metrics.stderr);
        let samples: BTreeMap<String, f64> = check_exposition(&metrics.stdout)
            .unwrap_or_else(|e| panic!("{path} exposition violation: {e}\n{}", metrics.stdout))
            .into_iter()
            .collect();
        assert_eq!(samples.get("torpedo_telemetry_enabled"), Some(&1.0));
        assert!(
            samples["torpedo_rounds_completed"] > 0.0,
            "no rounds recorded:\n{}",
            metrics.stdout
        );
        assert!(
            samples["torpedo_round_latency_ns_count"] > 0.0,
            "no round latencies recorded:\n{}",
            metrics.stdout
        );
    }

    let missing = probe("/nonexistent");
    assert!(!missing.success, "a 404 must exit non-zero");
    assert!(missing.stderr.contains("404"), "{}", missing.stderr);

    // Chrome trace: valid JSON with a traceEvents array.
    let trace = probe("/trace.json");
    assert!(trace.success, "{}", trace.stderr);
    let doc = parse_json(&trace.stdout).expect("/trace.json is valid JSON");
    assert!(
        doc.get("traceEvents").and_then(|e| e.as_array()).is_some(),
        "/trace.json has no traceEvents array"
    );

    // HEAD and unknown methods answer promptly with proper statuses.
    let (status, body) = request(addr, "HEAD", "/").expect("HEAD /");
    assert!(status.contains("200"), "HEAD / returned {status}");
    assert!(body.is_empty(), "HEAD / returned a {}B body", body.len());
    let (status, _) = request(addr, "POST", "/").expect("POST /");
    assert!(status.contains("405"), "POST / returned {status}");
}

#[test]
fn forensics_inspect_replays_a_minimized_flag_bundle() {
    let table = build_table();
    // The sync() storm is the deterministic solo-reproducible pattern: the
    // I/O oracle flags it both in the campaign round and under the replay
    // harness.
    let seeds = SeedCorpus::load(
        &["sync()\nsync()\n", "getpid()\n"],
        &table,
        &default_denylist(),
    )
    .expect("seed corpus");
    let config = CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 2,
            collider: true,
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 4,
        forensics: true,
        ..CampaignConfig::default()
    };
    let report = Campaign::new(config, table)
        .run(&seeds, &IoOracle::new())
        .expect("forensics campaign");
    // A flag bundle whose minimization succeeded: its kinds came from the
    // replay harness itself, so the replay must match them exactly.
    let bundle = report
        .forensics
        .iter()
        .find(|b| {
            b.kind == BundleKind::Flag
                && b.minimization.as_ref().is_some_and(|m| !m.kinds.is_empty())
        })
        .expect("the campaign produces a minimized flag bundle");

    let dir = scratch("forensics");
    let path = dir.join("bundle.json");
    std::fs::write(&path, bundle.to_json()).expect("write bundle");
    let reloaded = parse_bundle(&std::fs::read_to_string(&path).expect("reread bundle"))
        .expect("bundle round-trips");
    assert_eq!(
        &reloaded, bundle,
        "reloaded bundle differs from the original"
    );

    let replay = run(
        env!("CARGO_BIN_EXE_forensics_inspect"),
        &["--replay", path_str(&path)],
    );
    assert!(replay.success, "replay failed:\n{}", replay.stderr);
    assert!(
        replay
            .stdout
            .contains("replay              reconfirmed (all minimized"),
        "{}",
        replay.stdout
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn render_report(report: &CampaignReport, table: &[SyscallDesc]) -> String {
    let mut out = format!("{report:?}\n");
    for log in &report.logs {
        out.push_str(&write_round(log, table));
    }
    out
}

#[test]
fn snapshot_inspect_verifies_a_checkpoint_that_resumes_byte_identically() {
    let table = build_table();
    let base = scratch("snapshot");
    let seeds = SeedCorpus::load(
        &[
            "socket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "sync()\n",
        ],
        &table,
        &default_denylist(),
    )
    .expect("seed corpus");
    let config = |dir: PathBuf| CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 2,
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 4,
        forensics: true,
        checkpoint: Some(CheckpointConfig {
            dir,
            interval_rounds: 2,
            keep: 8,
        }),
        ..CampaignConfig::default()
    };

    let report = Campaign::new(config(base.join("writer")), table.clone())
        .run(&seeds, &CpuOracle::new())
        .expect("checkpointed campaign");
    let (bundle, path) = load_latest(&base.join("writer")).expect("a checkpoint was written");

    // The bundle re-renders to its exact file bytes.
    let verify = run(
        env!("CARGO_BIN_EXE_snapshot_inspect"),
        &["--verify", path_str(&path)],
    );
    assert!(verify.success, "verify failed:\n{}", verify.stderr);
    assert!(
        verify
            .stdout
            .contains(&format!("snapshot            round {}", bundle.rounds)),
        "{}",
        verify.stdout
    );
    assert!(
        verify.stdout.contains("verify              ok"),
        "{}",
        verify.stdout
    );

    // Resume in a fresh campaign: the report is byte-identical.
    let resumed = Campaign::new(config(base.join("resume")), table.clone())
        .resume(&bundle, &CpuOracle::new())
        .expect("resume");
    assert_eq!(
        render_report(&resumed, &table),
        render_report(&report, &table)
    );

    // Corpus service: export, reimport, warm-start a second campaign.
    let imported =
        import_corpus(&export_corpus(&report.corpus, &table), &table).expect("corpus reimports");
    assert_eq!(imported.len(), report.corpus.len());
    let mut warm = config(base.join("warm"));
    warm.warm_start = Some(imported);
    Campaign::new(warm, table)
        .run(&seeds, &CpuOracle::new())
        .expect("warm-started campaign");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn events_inspect_summarizes_a_journal_and_rejects_tampering() {
    let dir = scratch("events");
    let path = dir.join("events.ndjson");

    // A small multi-campaign stream through the journal sink.
    let log = EventLog::journaled(&path).expect("journal sink");
    for campaign in 0..3u64 {
        let tenant = log.tagged(campaign);
        for seq in 1..=6u64 {
            let round = seq * 3;
            tenant.emit(seq, round, EventKind::RoundCompleted, 4, 1, "");
            if seq == 4 {
                tenant.emit(
                    seq,
                    round,
                    EventKind::Flag("fuzz-core-below-floor".to_string()),
                    1,
                    0,
                    "",
                );
            }
        }
    }
    log.emit(
        100,
        18,
        EventKind::Unknown("from-the-future".to_string()),
        7,
        0,
        "forward-compat",
    );
    log.flush().expect("flush");

    let journal = load_journal(&path).expect("journal loads");
    assert_eq!(journal.events.len(), 22);
    assert_eq!(
        journal.events.last().map(|e| &e.kind),
        Some(&EventKind::Unknown("from-the-future".to_string())),
        "an unknown kind must round-trip"
    );

    // The loaded journal and the live ring fold to the same series.
    let series = Series::from_events(journal.events.iter(), DEFAULT_BUCKET_ROUNDS).render();
    let ring = log.snapshot();
    assert_eq!(
        series,
        Series::from_events(ring.iter(), DEFAULT_BUCKET_ROUNDS).render()
    );
    assert!(
        series.contains("campaign 2") && series.contains("fleet\n"),
        "degenerate series:\n{series}"
    );

    let summary = run(
        env!("CARGO_BIN_EXE_events_inspect"),
        &["--summary", path_str(&path)],
    );
    assert!(summary.success, "--summary failed:\n{}", summary.stderr);
    assert_eq!(
        summary.stdout,
        format!(
            "{series}22 events (0 dropped past the journal cap), 3 campaigns, 3 flags, \
             0 health findings\n"
        )
    );

    // Tampering with a single payload byte is caught by the tail hash.
    let good = std::fs::read_to_string(&path).expect("journal readable");
    std::fs::write(&path, good.replace("\"value\":7", "\"value\":8")).expect("tamper write");
    assert!(load_journal(&path).is_err(), "a tampered journal loaded");
    let tampered = run(
        env!("CARGO_BIN_EXE_events_inspect"),
        &["--summary", path_str(&path)],
    );
    assert!(!tampered.success, "--summary accepted a tampered journal");

    // The parser rejects garbage with typed errors, never a panic.
    for garbage in [
        "",
        "\n",
        "{\"schema\":\"torpedo-events-v1\"}\n",
        "not a journal at all",
        "{\"schema\":\"torpedo-events-v1\"}\n{\"events\":1,\"dropped\":0,\"hash\":\"0xdead\"}\n",
    ] {
        assert!(
            parse_journal(garbage).is_err(),
            "garbage accepted: {garbage:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every target must complete at least one input within its share of the
/// budget; the binary fails the run otherwise, and on any parser panic.
/// The targets it runs are exactly the cargo-fuzz `[[bin]]`s in
/// `fuzz/Cargo.toml`, and each has a committed seed corpus.
#[test]
fn parser_fuzz_makes_progress_on_every_target() {
    // From the workspace root, so the committed `fuzz/corpora` seed it.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let out = Command::new(env!("CARGO_BIN_EXE_parser_fuzz"))
        .args(["--secs", "2"])
        .current_dir(root)
        .output()
        .expect("parser_fuzz starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("parser_fuzz: ok"), "{stderr}");

    let ran: BTreeSet<&str> = stderr
        .lines()
        .filter(|l| l.contains(" inputs in "))
        .filter_map(|l| l.strip_prefix("parser_fuzz: ")?.split_whitespace().next())
        .collect();
    let manifest = std::fs::read_to_string(root.join("fuzz/Cargo.toml")).unwrap();
    let declared: BTreeSet<&str> = manifest
        .split("[[bin]]")
        .skip(1)
        .filter_map(|bin| {
            bin.lines()
                .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        })
        .collect();
    assert_eq!(ran, declared, "parser_fuzz targets vs fuzz/Cargo.toml");
    for name in declared {
        let corpus = root.join("fuzz/corpora").join(name);
        let seeded = std::fs::read_dir(&corpus).is_ok_and(|mut d| d.next().is_some());
        assert!(seeded, "{} holds no seed input", corpus.display());
    }
}

/// The committed seed corpora are what `--emit-corpus` writes today, byte
/// for byte: a format change that leaves them stale has the fuzzers
/// mutating inputs their parser already rejects.
#[test]
fn committed_fuzz_seeds_match_a_fresh_emission() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = scratch("emit-corpus");
    let emit = run(
        env!("CARGO_BIN_EXE_parser_fuzz"),
        &["--emit-corpus", path_str(&dir)],
    );
    assert!(emit.success, "{}", emit.stderr);
    let committed = corpus_files(&root.join("fuzz/corpora"));
    let fresh = corpus_files(&dir);
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&committed), names(&fresh));
    for ((name, bytes), (_, emitted)) in committed.iter().zip(&fresh) {
        assert!(
            bytes == emitted,
            "fuzz/corpora/{name} differs from a fresh --emit-corpus"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `<target>/<seed>` file of a corpus directory with its bytes,
/// sorted by name.
fn corpus_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for target in std::fs::read_dir(dir).expect("corpus dir").flatten() {
        for seed in std::fs::read_dir(target.path())
            .expect("target dir")
            .flatten()
        {
            let name = format!(
                "{}/{}",
                target.file_name().to_string_lossy(),
                seed.file_name().to_string_lossy()
            );
            files.push((name, std::fs::read(seed.path()).expect("read seed")));
        }
    }
    files.sort();
    files
}
