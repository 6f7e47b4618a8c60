//! Finding-forensics acceptance tests: for each of the five Table 4.2 runC
//! OOB families, a forensics-enabled campaign must emit a flight-recorder
//! bundle for the flagged pattern, the bundle must round-trip through the
//! `torpedo-forensics-v1` parser byte-for-byte, and replaying the bundled
//! program against a fresh simulated kernel must reconfirm the oracle
//! violation (the `forensics_inspect --replay` semantics).

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::executor::GlueCost;
use torpedo_core::forensics::{parse_bundle, BundleKind, ForensicsBundle, DEFERRAL_EXCERPT_CAP};
use torpedo_core::minimize::ViolationHarness;
use torpedo_core::observer::{Observer, ObserverConfig};
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_integration_tests::table;
use torpedo_kernel::{KernelConfig, Usecs};
use torpedo_oracle::violation::{violation_kinds, HeuristicKind};
use torpedo_oracle::{CpuOracle, IoOracle, Oracle};
use torpedo_prog::{deserialize, MutatePolicy, ProgramId};
use torpedo_telemetry::wire::fnv64;

/// The five Table 4.2 runC OOB recreation patterns (§4.2).
const RUNC_OOB_PATTERNS: [(&str, &str); 5] = [
    ("sync, fsync", "sync()\n"),
    ("rt_sigreturn", "rt_sigreturn()\n"),
    ("rseq", "rseq(0x7f0000000001, 0x20, 0x3, 0x0)\n"),
    (
        "fallocate, ftruncate",
        "setrlimit(0x1, 0x1000)\nr1 = creat(&'workfile-0', 0x1a4)\nfallocate(r1, 0x0, 0x0, 0x100000)\n",
    ),
    ("socket", "socket(0x9, 0x3, 0x0)\n"),
];

fn forensics_config() -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(2),
            executors: 3,
            runtime: "runc".into(),
            collider: true,
            glue: GlueCost::fuzzing(),
            cpus_per_container: 1.0,
            ..ObserverConfig::default()
        },
        mutate: MutatePolicy {
            denylist: default_denylist(),
            ..MutatePolicy::default()
        },
        max_rounds_per_batch: 4,
        forensics: true,
        ..CampaignConfig::default()
    }
}

/// Run one forensics campaign where every executor fuzzes the pattern.
fn run_pattern(pattern: &str, oracle: &dyn Oracle) -> CampaignReport {
    let t = table();
    let seeds = SeedCorpus::load(&[pattern, pattern, pattern], &t, &default_denylist()).unwrap();
    Campaign::new(forensics_config(), t)
        .run(&seeds, oracle)
        .unwrap()
}

/// The `forensics_inspect --replay` check: re-run the bundled program solo
/// and confirm the recorded violation reproduces.
fn replay_reconfirms(bundle: &ForensicsBundle, oracle: &dyn Oracle) -> Result<(), String> {
    let t = table();
    let text = bundle
        .minimization
        .as_ref()
        .map_or(bundle.program.as_str(), |m| m.program.as_str());
    let program = deserialize(text, &t).map_err(|e| format!("program must parse: {e}"))?;
    let harness = ViolationHarness::new(KernelConfig::default(), &bundle.runtime);
    let got = violation_kinds(&harness.violations(&program, &t, oracle));
    match &bundle.minimization {
        // Minimization kinds came from this same deterministic harness and
        // oracle: the replay must reproduce them exactly.
        Some(m) if !m.kinds.is_empty() => {
            if got == m.kinds {
                Ok(())
            } else {
                Err(format!(
                    "replay kinds {got:?} != minimized kinds {:?}",
                    m.kinds
                ))
            }
        }
        // No minimization: the flagged round ran a whole batch, so solo
        // replay must share at least one program-attributable kind.
        _ => {
            let wanted: Vec<HeuristicKind> = bundle
                .violations
                .iter()
                .map(|v| v.heuristic)
                .filter(|k| *k != HeuristicKind::SystemProcessAboveBaseline)
                .collect();
            if wanted.iter().any(|k| got.contains(k)) {
                Ok(())
            } else {
                Err(format!(
                    "replay kinds {got:?} share nothing with flagged {wanted:?} (round {} program {:?})",
                    bundle.round, bundle.program
                ))
            }
        }
    }
}

#[test]
fn all_five_runc_oob_patterns_emit_replayable_bundles() {
    // The sync family is flagged by the I/O oracle (io-wait outside the
    // cpuset); the other four storms surface through the CPU oracle.
    let cpu = CpuOracle::new();
    let io = IoOracle::new();
    for (family, pattern) in RUNC_OOB_PATTERNS {
        let oracle: &dyn Oracle = if family == "sync, fsync" { &io } else { &cpu };
        let report = run_pattern(pattern, oracle);
        assert!(
            !report.flagged.is_empty(),
            "{family}: pattern must be flagged"
        );
        let flag_bundles: Vec<&ForensicsBundle> = report
            .forensics
            .iter()
            .filter(|b| b.kind == BundleKind::Flag)
            .collect();
        assert!(
            !flag_bundles.is_empty(),
            "{family}: flagged finding must produce a forensics bundle"
        );

        // Every bundle round-trips through the parser byte-for-byte.
        for bundle in &report.forensics {
            let json = bundle.to_json();
            let back = parse_bundle(&json)
                .unwrap_or_else(|e| panic!("{family}: bundle does not parse: {e}"));
            assert_eq!(&back, bundle, "{family}: bundle round-trip drifted");
            assert_eq!(
                back.to_json(),
                json,
                "{family}: serialization not a fixed point"
            );
        }

        // At least one flag bundle replays to the same oracle violation.
        let mut errors = Vec::new();
        let reconfirmed = flag_bundles.iter().any(|b| {
            replay_reconfirms(b, oracle)
                .map_err(|e| errors.push(e))
                .is_ok()
        });
        assert!(
            reconfirmed,
            "{family}: no bundle replayed to the recorded violation: {errors:?}"
        );
    }
}

/// A round log keeps only the deferral excerpt forensics reads. Replaying
/// the logged rounds through a fresh observer recovers each round's whole
/// ledger: every log holds the first `min(events, DEFERRAL_EXCERPT_CAP)`
/// of its round's events, the storms push rounds past the cap, and the
/// bundles hash to the digest of a run whose logs kept every event.
#[test]
fn round_logs_keep_only_the_deferral_excerpt() {
    let t = table();
    let patterns: Vec<&str> = RUNC_OOB_PATTERNS.iter().map(|(_, p)| *p).collect();
    let seeds = SeedCorpus::load(&patterns, &t, &default_denylist()).unwrap();
    let config = forensics_config();
    let report = Campaign::new(config.clone(), t.clone())
        .run(&seeds, &CpuOracle::new())
        .unwrap();

    let mut observer = Observer::new(config.kernel, config.observer).unwrap();
    let mut batch = None;
    let mut capped = 0;
    for log in &report.logs {
        if batch != Some(log.batch) {
            observer.restart_crashed().unwrap();
            batch = Some(log.batch);
        }
        let record = observer.round(&t, &log.programs).unwrap();
        assert_eq!(
            format!("{:?}", record.observation),
            format!("{:?}", log.observation),
            "round {} must replay as it ran",
            log.round
        );
        for _ in record.reports.iter().filter(|r| r.crash.is_some()) {
            observer.restart_crashed().unwrap();
        }
        let kept = record.deferrals.len().min(DEFERRAL_EXCERPT_CAP);
        assert_eq!(
            log.deferrals,
            record.deferrals[..kept],
            "round {}",
            log.round
        );
        capped += usize::from(record.deferrals.len() > DEFERRAL_EXCERPT_CAP);
    }
    assert!(capped > 0, "no round's ledger outgrew the excerpt");

    let bundles: String = report.forensics.iter().map(|b| b.to_json()).collect();
    assert!(!report.forensics.is_empty());
    assert_eq!(fnv64(bundles.as_bytes()), BUNDLES_DIGEST, "{bundles}");
}

/// FNV-1a of the concatenated bundles of
/// [`round_logs_keep_only_the_deferral_excerpt`]'s campaign, from a build
/// whose round logs kept every deferral event.
const BUNDLES_DIGEST: u64 = 0xa071_90ed_64d2_a6c7;

#[test]
fn bundles_carry_lineage_back_to_the_seed() {
    let report = run_pattern("sync()\n", &IoOracle::new());
    let bundle = report
        .forensics
        .iter()
        .find(|b| b.kind == BundleKind::Flag)
        .expect("sync storm produces a flag bundle");
    assert!(!bundle.lineage.is_empty(), "flag bundle must carry lineage");
    // The chain is parent-linked newest-first and terminates at a root
    // (a seed or a fresh swap: no parent, no operator).
    for pair in bundle.lineage.windows(2) {
        assert_eq!(
            pair[0].parent,
            Some(pair[1].id),
            "chain must be parent-linked"
        );
    }
    // Every mutation-derived record names its operator.
    for record in &bundle.lineage {
        assert_eq!(
            record.parent.is_some(),
            record.op.is_some(),
            "mutants carry an operator, roots carry none"
        );
        assert_eq!(record.shard, 0, "unsharded campaign stamps shard 0");
    }
    // The newest record is the flagged program itself.
    let t = table();
    let flagged = deserialize(&bundle.program, &t).unwrap();
    assert_eq!(bundle.lineage[0].id, ProgramId::of(&flagged));
    // The trajectory covers the batch the finding came from, and the
    // flagged round's score appears in it.
    assert!(!bundle.trajectory.is_empty());
    assert!(
        bundle
            .trajectory
            .iter()
            .any(|p| p.round == bundle.round && (p.score - bundle.score).abs() < 1e-9),
        "flagged round's score must be on the trajectory"
    );
}

#[test]
fn forensics_off_produces_no_bundles_and_identical_findings() {
    let t = table();
    let seeds = SeedCorpus::load(
        &["sync()\n", "getpid()\n", "getuid()\n"],
        &t,
        &default_denylist(),
    )
    .unwrap();
    let run = |forensics: bool| {
        let mut config = forensics_config();
        config.forensics = forensics;
        Campaign::new(config, t.clone())
            .run(&seeds, &IoOracle::new())
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert!(off.forensics.is_empty());
    assert_eq!(
        on.forensics.len(),
        on.flagged.len() + on.crashes.len() + on.quarantined.len(),
        "one bundle per flag, crash, and quarantine"
    );
    // Every non-forensics field is unchanged by recording.
    assert_eq!(off.rounds_total, on.rounds_total);
    assert_eq!(off.coverage_signals, on.coverage_signals);
    assert_eq!(off.flagged.len(), on.flagged.len());
    assert_eq!(
        format!("{:?}", off.logs),
        format!("{:?}", on.logs),
        "round logs must be byte-identical with forensics on or off"
    );
}
