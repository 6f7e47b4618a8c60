//! Durable-campaign acceptance tests: a campaign killed at *any* round and
//! resumed from its newest checkpoint must finish with a byte-identical
//! report and logfmt stream — with forensics, telemetry, and fault
//! injection all enabled — and the crash-safe write protocol must leave a
//! loadable checkpoint behind every failure mode the fault injector can
//! produce (`FaultKind::CheckpointWriteFail` dies after the temp-file
//! fsync, before the atomic rename).

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use torpedo_prop::prelude::*;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::logfmt::write_round;
use torpedo_core::observer::{ObserverConfig, SupervisorConfig};
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::snapshot::checkpoint_file_name;
use torpedo_core::{
    export_corpus, import_corpus, load_checkpoint, load_latest, read_text_capped,
    render_campaign_config, CheckpointConfig, SnapshotError, Telemetry, TorpedoError,
};
use torpedo_kernel::Usecs;
use torpedo_oracle::{CpuOracle, NetOracle};
use torpedo_prog::{build_table, DirectedTarget, SyscallDesc};
use torpedo_runtime::FaultConfig;

/// A scratch directory under the system temp root, unique per process and
/// tag, emptied before use.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torpedo-durability-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Two batches of three: enough rounds that every checkpoint position —
/// first round, mid-batch, batch boundary, final round — gets exercised.
fn seeds(table: &[SyscallDesc]) -> SeedCorpus {
    SeedCorpus::load(
        &[
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "stat(&'/etc/passwd', 0x0)\n",
            "sync()\n",
            "getuid()\ngetpid()\n",
            "socket(0x9, 0x3, 0x0)\n",
        ],
        table,
        &default_denylist(),
    )
    .unwrap()
}

/// The full-feature config the acceptance criteria demand: forensics on,
/// telemetry on, supervised fault injection, and periodic checkpoints.
fn durable_config(dir: PathBuf, interval: u64, faults: FaultConfig) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 3,
            faults,
            telemetry: Telemetry::enabled(),
            supervisor: SupervisorConfig {
                backoff_base: Duration::from_micros(50),
                backoff_cap: Duration::from_micros(400),
                ..SupervisorConfig::default()
            },
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 4,
        forensics: true,
        checkpoint: Some(CheckpointConfig {
            dir,
            interval_rounds: interval,
            keep: 64,
        }),
        ..CampaignConfig::default()
    }
}

/// The byte-identity oracle: the full report rendering plus the concatenated
/// logfmt stream every round would be written with.
fn render_report(report: &CampaignReport, table: &[SyscallDesc]) -> String {
    let mut out = format!("{report:?}\n");
    for log in &report.logs {
        out.push_str(&write_round(log, table));
    }
    out
}

/// Tentpole acceptance: for **every** round r of a full-feature campaign,
/// kill-after-r (simulated by loading the round-r checkpoint into a fresh
/// `Campaign`) and resume produces a byte-identical final report and logfmt
/// stream.
#[test]
fn kill_at_any_round_resumes_byte_identical() {
    let table = build_table();
    let base = scratch("exhaustive");
    let faults = FaultConfig {
        seed: 0xC0FF_EE00,
        executor_hang: 0.1,
        container_crash: 0.002,
        start_fail: 0.1,
        exec_error: 0.001,
        cgroup_write_fail: 0.02,
        checkpoint_write_fail: 0.0,
    };
    let writer = Campaign::new(
        durable_config(base.join("writer"), 1, faults.clone()),
        table.clone(),
    );
    let report = writer.run(&seeds(&table), &CpuOracle::new()).unwrap();
    let want = render_report(&report, &table);
    assert!(report.rounds_total >= 8, "two full batches must run");

    for r in 1..=report.rounds_total {
        let bundle = load_checkpoint(&base.join("writer").join(checkpoint_file_name(r)))
            .unwrap_or_else(|e| panic!("round {r} checkpoint must load: {e}"));
        assert_eq!(bundle.rounds, r);
        let resumed = Campaign::new(
            durable_config(base.join(format!("resume-{r}")), 1, faults.clone()),
            table.clone(),
        )
        .resume(&bundle, &CpuOracle::new())
        .unwrap_or_else(|e| panic!("resume from round {r} must succeed: {e}"));
        assert_eq!(
            render_report(&resumed, &table),
            want,
            "resume from round {r} must be byte-identical"
        );
    }
    fs::remove_dir_all(&base).ok();
}

/// Seeds exercising the memory and network OOB families: bulk transmits
/// past the NAPI budget and accumulating mlock pins against the container
/// memory limit, mixed with benign fillers.
fn directed_seeds(table: &[SyscallDesc]) -> SeedCorpus {
    SeedCorpus::load(
        &[
            "r0 = socket(0x2, 0x1, 0x0)\nsendto(r0, 0x0, 0x10000, 0x0, 0x0, 0x10)\n\
             sendto(r0, 0x0, 0x10000, 0x0, 0x0, 0x10)\n",
            "mlock(0x0, 0x800000)\n",
            "getpid()\nuname(0x0)\n",
            "mmap(0x0, 0x2000000, 0x3, 0x22, 0xffffffffffffffff, 0x0)\n",
            "getuid()\ngetpid()\n",
            "socket(0x9, 0x3, 0x0)\n",
        ],
        table,
        &default_denylist(),
    )
    .unwrap()
}

/// [`durable_config`] plus the PR's new knobs: a directed target (whose
/// distance map must ride entirely outside the two-u64 RNG state for
/// resume to stay byte-identical) and a per-container memory limit so the
/// writeback channel actually fires during the campaign.
fn directed_durable_config(dir: PathBuf, interval: u64, faults: FaultConfig) -> CampaignConfig {
    let mut config = durable_config(dir, interval, faults);
    config.directed = DirectedTarget::parse("channel:net-softirq");
    config.observer.memory_bytes_per_container = Some(32 << 20);
    config
}

/// Satellite: the kill-at-any-round guarantee extended to a *directed*
/// campaign with the writeback and net-softirq channels live. Directed
/// state (the distance map) is rebuilt from config at start/resume, so
/// every checkpoint must replay byte-identically with the new counters,
/// channels, and bias multipliers in the loop.
#[test]
fn directed_kill_at_any_round_resumes_byte_identical() {
    let table = build_table();
    let base = scratch("directed");
    let faults = FaultConfig {
        seed: 0xD1_4EC7ED,
        executor_hang: 0.05,
        start_fail: 0.05,
        ..FaultConfig::default()
    };
    let writer = Campaign::new(
        directed_durable_config(base.join("writer"), 2, faults.clone()),
        table.clone(),
    );
    let report = writer
        .run(&directed_seeds(&table), &NetOracle::new())
        .unwrap();
    let want = render_report(&report, &table);
    assert!(
        !report.flagged.is_empty(),
        "the bulk-send seeds must flag under the net oracle"
    );

    let mut resumed_from = 0;
    for r in 1..=report.rounds_total {
        let path = base.join("writer").join(checkpoint_file_name(r));
        if !path.exists() {
            continue; // interval 2: odd rounds have no checkpoint
        }
        let bundle = load_checkpoint(&path)
            .unwrap_or_else(|e| panic!("round {r} checkpoint must load: {e}"));
        let resumed = Campaign::new(
            directed_durable_config(base.join(format!("resume-{r}")), 2, faults.clone()),
            table.clone(),
        )
        .resume(&bundle, &NetOracle::new())
        .unwrap_or_else(|e| panic!("directed resume from round {r} must succeed: {e}"));
        assert_eq!(
            render_report(&resumed, &table),
            want,
            "directed resume from round {r} must be byte-identical"
        );
        resumed_from += 1;
    }
    assert!(resumed_from >= 2, "at least two checkpoints must exist");

    // A directed checkpoint must never cross-resume into an undirected
    // campaign (the rendered config fingerprints the target).
    let (bundle, _) = load_latest(&base.join("writer")).unwrap();
    let mut undirected = directed_durable_config(base.join("cross"), 2, faults);
    undirected.directed = None;
    let err = Campaign::new(undirected, table.clone())
        .resume(&bundle, &NetOracle::new())
        .unwrap_err();
    assert!(
        matches!(err, TorpedoError::Snapshot(SnapshotError::ConfigMismatch)),
        "undirected resume of a directed checkpoint must mismatch, got: {err}"
    );
    fs::remove_dir_all(&base).ok();
}

/// A resumed campaign must be configured exactly like the writer; anything
/// else is a typed [`SnapshotError::ConfigMismatch`], not silent drift.
#[test]
fn resume_rejects_a_differently_configured_campaign() {
    let table = build_table();
    let base = scratch("config-mismatch");
    let writer = Campaign::new(
        durable_config(base.join("writer"), 2, FaultConfig::default()),
        table.clone(),
    );
    writer.run(&seeds(&table), &CpuOracle::new()).unwrap();
    let (bundle, _) = load_latest(&base.join("writer")).unwrap();

    let mut config = durable_config(base.join("other"), 2, FaultConfig::default());
    config.max_rounds_per_batch = 5;
    let err = Campaign::new(config, table.clone())
        .resume(&bundle, &CpuOracle::new())
        .unwrap_err();
    assert!(
        matches!(err, TorpedoError::Snapshot(SnapshotError::ConfigMismatch)),
        "wrong config must be a ConfigMismatch, got: {err}"
    );
    fs::remove_dir_all(&base).ok();
}

/// Corruption handling: a truncated or bit-flipped newest checkpoint is
/// rejected with a typed error and [`load_latest`] falls back to the
/// previous good one.
#[test]
fn load_latest_falls_back_past_a_corrupted_checkpoint() {
    let table = build_table();
    let base = scratch("corruption");
    let dir = base.join("writer");
    let campaign = Campaign::new(
        durable_config(dir.clone(), 1, FaultConfig::default()),
        table.clone(),
    );
    let report = campaign.run(&seeds(&table), &CpuOracle::new()).unwrap();
    let newest = dir.join(checkpoint_file_name(report.rounds_total));

    // Truncate the newest checkpoint mid-write (the classic crash shape).
    let text = fs::read_to_string(&newest).unwrap();
    fs::write(&newest, &text[..text.len() / 2]).unwrap();
    assert!(
        matches!(load_checkpoint(&newest), Err(SnapshotError::Truncated)),
        "half a bundle must read as Truncated"
    );
    let (bundle, path) = load_latest(&dir).unwrap();
    assert_eq!(
        bundle.rounds,
        report.rounds_total - 1,
        "fallback is the previous round"
    );
    assert_eq!(
        path,
        dir.join(checkpoint_file_name(report.rounds_total - 1))
    );

    // Flip one byte in the fallback: the embedded hash catches bit rot.
    let text = fs::read_to_string(&path).unwrap();
    let mut bytes = text.into_bytes();
    let i = bytes.len() / 3;
    bytes[i] = if bytes[i] == b'a' { b'b' } else { b'a' };
    fs::write(&path, &bytes).unwrap();
    assert!(
        matches!(
            load_checkpoint(&path),
            Err(SnapshotError::HashMismatch { .. }) | Err(SnapshotError::Truncated)
        ),
        "bit rot must be caught by the content hash"
    );
    let (bundle, _) = load_latest(&dir).unwrap();
    assert_eq!(
        bundle.rounds,
        report.rounds_total - 2,
        "fallback skips both bad files"
    );
    fs::remove_dir_all(&base).ok();
}

/// A directory that mixes checkpoints from *different* campaigns plus the
/// debris a crashed run leaves behind: truncated bundles, foreign schema
/// versions. [`load_latest`] must fall back past the junk to the newest
/// loadable bundle regardless of owner, and that bundle resumes as the
/// campaign that wrote it.
#[test]
fn load_latest_in_a_mixed_campaign_fleet_dir() {
    let table = build_table();
    let base = scratch("fleet-dir");
    let fleet = base.join("fleet");

    // Tenant A checkpoints straight into the shared fleet dir.
    let mut config_a = durable_config(fleet.clone(), 1, FaultConfig::default());
    config_a.seed = 0xA11CE;
    let report_a = Campaign::new(config_a.clone(), table.clone())
        .run(&seeds(&table), &CpuOracle::new())
        .unwrap();

    // Tenant B checkpoints into its own dir; its files are then copied into
    // the fleet dir under unpadded round names, so the same round number
    // exists twice with distinct paths (the deterministic tie-break case).
    let dir_b = base.join("writer-b");
    let mut config_b = durable_config(dir_b.clone(), 1, FaultConfig::default());
    config_b.seed = 0xB0B;
    let report_b = Campaign::new(config_b.clone(), table.clone())
        .run(&seeds(&table), &CpuOracle::new())
        .unwrap();
    for round in 1..=report_b.rounds_total {
        let text = fs::read_to_string(dir_b.join(checkpoint_file_name(round))).unwrap();
        fs::write(fleet.join(format!("torpedo-snapshot-{round}.json")), text).unwrap();
    }

    // Debris, both at rounds newer than any real bundle: a truncated
    // write and a bundle from some future schema version.
    let newest_a =
        fs::read_to_string(fleet.join(checkpoint_file_name(report_a.rounds_total))).unwrap();
    fs::write(
        fleet.join(checkpoint_file_name(90_000_000)),
        &newest_a[..newest_a.len() / 2],
    )
    .unwrap();
    fs::write(
        fleet.join(checkpoint_file_name(90_000_001)),
        newest_a.replacen("torpedo-snapshot-v1", "torpedo-snapshot-v9", 1),
    )
    .unwrap();

    // load_latest skips the junk and hands back the newest loadable bundle,
    // whichever tenant wrote it.
    let (bundle, _) = load_latest(&fleet).unwrap();
    let rendered_a = render_campaign_config(&config_a);
    let rendered_b = render_campaign_config(&config_b);
    assert_eq!(
        bundle.rounds,
        report_a.rounds_total.max(report_b.rounds_total),
        "newest loadable bundle wins, junk is skipped"
    );
    assert!(
        bundle.config == rendered_a || bundle.config == rendered_b,
        "the bundle must belong to one of the two tenants"
    );

    // Tenant B's newest bundle, read from its unpadded copy, resumes as
    // tenant B.
    let for_b =
        load_checkpoint(&fleet.join(format!("torpedo-snapshot-{}.json", report_b.rounds_total)))
            .unwrap();
    assert_eq!(for_b.config, rendered_b);
    assert_eq!(for_b.rounds, report_b.rounds_total);
    let resumed = Campaign::new(config_b, table.clone())
        .resume(&for_b, &CpuOracle::new())
        .unwrap();
    assert_eq!(
        render_report(&resumed, &table),
        render_report(&report_b, &table)
    );
    fs::remove_dir_all(&base).ok();
}

/// Loader hardening: oversized inputs are rejected by a typed error before
/// any parsing happens, and undersized (truncated) ones never panic.
#[test]
fn loaders_reject_oversized_and_truncated_input() {
    let table = build_table();
    let base = scratch("loader-limits");
    fs::create_dir_all(&base).unwrap();

    let path = base.join("big.json");
    fs::write(&path, "x".repeat(4096)).unwrap();
    match read_text_capped(&path, 1024) {
        Err(SnapshotError::Oversized { limit, actual }) => {
            assert_eq!((limit, actual), (1024, 4096));
        }
        other => panic!("oversized read must be typed, got {other:?}"),
    }

    // An oversized corpus import is refused up front.
    let mut text = String::from("# torpedo-corpus-v1\n");
    text.push_str(&"#\n".repeat(torpedo_core::snapshot::MAX_CORPUS_BYTES / 2 + 1));
    assert!(matches!(
        import_corpus(&text, &table),
        Err(SnapshotError::Oversized { .. })
    ));
    // A corpus with a foreign header is a schema error, not garbage data.
    assert!(matches!(
        import_corpus("# some-other-format-v9\n", &table),
        Err(SnapshotError::SchemaMismatch { .. })
    ));
    // Truncated snapshots of every length are typed errors, never panics.
    let head = "{\"schema\":\"torpedo-snapshot-v1\"";
    for cut in [0usize, 1, 2, 10, head.len()] {
        let err = torpedo_core::parse_snapshot(&head[..cut]).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Truncated | SnapshotError::Parse(_)
        ));
    }
    fs::remove_dir_all(&base).ok();
}

/// Warm-start: a corpus exported from one campaign seeds the next. The
/// import is deduplicated against the explicit seed list and an empty
/// warm-start corpus changes nothing at all.
#[test]
fn warm_start_extends_the_seed_list_and_dedups() {
    let table = build_table();
    let donor = Campaign::new(
        durable_config(scratch("warm-donor"), 0, FaultConfig::default()),
        table.clone(),
    )
    .run(&seeds(&table), &CpuOracle::new())
    .unwrap();
    assert!(
        !donor.corpus.is_empty(),
        "the donor campaign must admit coverage"
    );
    let exported = export_corpus(&donor.corpus, &table);
    let imported = import_corpus(&exported, &table).unwrap();
    assert_eq!(
        imported.len(),
        donor.corpus.len(),
        "export/import is lossless"
    );

    // An empty warm-start corpus is a no-op: byte-identical campaign.
    let baseline = Campaign::new(
        durable_config(scratch("warm-base"), 0, FaultConfig::default()),
        table.clone(),
    )
    .run(&seeds(&table), &CpuOracle::new())
    .unwrap();
    let mut config = durable_config(scratch("warm-empty"), 0, FaultConfig::default());
    config.warm_start = Some(torpedo_prog::Corpus::new());
    let with_empty = Campaign::new(config, table.clone())
        .run(&seeds(&table), &CpuOracle::new())
        .unwrap();
    assert_eq!(
        render_report(&with_empty, &table),
        render_report(&baseline, &table),
        "an empty warm-start corpus must change nothing"
    );

    // A real warm-start extends the batch schedule with the new programs.
    let mut config = durable_config(scratch("warm-real"), 0, FaultConfig::default());
    config.warm_start = Some(imported);
    let warmed = Campaign::new(config, table.clone())
        .run(&seeds(&table), &CpuOracle::new())
        .unwrap();
    assert!(
        warmed.rounds_total >= baseline.rounds_total,
        "warm-started programs can only add batches"
    );
    fs::remove_dir_all(scratch("warm-donor")).ok();
}

/// Satellite: dropping a campaign (or calling `shutdown_status`) joins the
/// status listener, so a resumed campaign in the same process can rebind
/// the very same address without `AddrInUse` flakes — and still produce
/// the byte-identical report.
#[test]
fn status_endpoint_rebinds_deterministically_across_resume() {
    let table = build_table();
    let base = scratch("status-rebind");
    let mut config = durable_config(base.join("writer"), 2, FaultConfig::default());
    config.status_addr = Some("127.0.0.1:0".into());
    let writer = Campaign::new(config, table.clone());
    let report = writer.run(&seeds(&table), &CpuOracle::new()).unwrap();
    let addr = writer.status_local_addr().expect("status endpoint serving");
    let want = render_report(&report, &table);
    let (bundle, _) = load_latest(&base.join("writer")).unwrap();
    drop(writer); // joins the listener thread

    let mut config = durable_config(base.join("resume"), 2, FaultConfig::default());
    config.status_addr = Some(addr.to_string());
    let resumer = Campaign::new(config, table.clone());
    let resumed = resumer.resume(&bundle, &CpuOracle::new()).unwrap();
    assert_eq!(
        resumer.status_local_addr().map(|a| a.port()),
        Some(addr.port()),
        "the resumed campaign must own the same port"
    );
    resumer.shutdown_status();
    assert_eq!(resumer.status_local_addr(), None);
    assert_eq!(render_report(&resumed, &table), want);

    // Fleet park/unpark churns the same address far harder than a single
    // resume: cycle bind → shutdown on the fixed port 100× and require
    // every rebind to land without an AddrInUse flake.
    for cycle in 0..100 {
        let got = resumer
            .serve_status(&addr.to_string())
            .unwrap_or_else(|e| panic!("cycle {cycle}: rebind failed: {e}"));
        assert_eq!(got.port(), addr.port(), "cycle {cycle}");
        resumer.shutdown_status();
        assert_eq!(resumer.status_local_addr(), None, "cycle {cycle}");
    }
    fs::remove_dir_all(&base).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite: under any checkpoint-write fault rate, a death
    /// mid-rename leaves the previous good checkpoint loadable, and
    /// resuming from whatever survived still reproduces the campaign
    /// byte-for-byte.
    #[test]
    fn checkpoint_write_faults_leave_a_loadable_trail(
        fault_seed in any::<u64>(),
        ckpt_fail in 0.05f64..0.9,
        hang in 0.0f64..0.12,
        interval in 1u64..4,
    ) {
        let table = build_table();
        let base = scratch(&format!("ckpt-fault-{fault_seed:x}-{interval}"));
        let faults = FaultConfig {
            seed: fault_seed,
            executor_hang: hang,
            checkpoint_write_fail: ckpt_fail,
            ..FaultConfig::default()
        };
        let writer = Campaign::new(
            durable_config(base.join("writer"), interval, faults.clone()),
            table.clone(),
        );
        let report = writer.run(&seeds(&table), &CpuOracle::new()).unwrap();
        let due = report.rounds_total / interval;
        prop_assert!(
            report.faults_injected.checkpoint_write_fail <= due,
            "at most one fault per due round"
        );
        match load_latest(&base.join("writer")) {
            Ok((bundle, _)) => {
                prop_assert_eq!(bundle.rounds % interval, 0);
                let resumed = Campaign::new(
                    durable_config(base.join("resume"), interval, faults.clone()),
                    table.clone(),
                )
                .resume(&bundle, &CpuOracle::new())
                .unwrap_or_else(|e| panic!("resume from round {} failed: {e}", bundle.rounds));
                prop_assert_eq!(
                    render_report(&resumed, &table),
                    render_report(&report, &table)
                );
            }
            Err(SnapshotError::NoCheckpoint { .. }) => {
                // Legal only if literally every due write faulted.
                prop_assert_eq!(report.faults_injected.checkpoint_write_fail, due);
            }
            Err(e) => panic!("load_latest must succeed or report NoCheckpoint: {e}"),
        }
        fs::remove_dir_all(&base).ok();
    }
}
