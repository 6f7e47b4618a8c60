//! Fleet-observatory invariants (DESIGN.md §5g): the event pipeline must
//! never perturb results, must be a pure function of the logical
//! schedule, and must survive kill/resume byte-identically.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use torpedo_prop::prelude::*;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::fleet::{Fleet, FleetConfig, FleetSpec};
use torpedo_core::logfmt::write_round;
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::snapshot::checkpoint_file_name;
use torpedo_core::{load_checkpoint, CheckpointConfig, HealthConfig};
use torpedo_kernel::Usecs;
use torpedo_oracle::CpuOracle;
use torpedo_prog::{build_table, MutatePolicy, SyscallDesc};
use torpedo_telemetry::server::{fetch, StatusServer, StatusShared};
use torpedo_telemetry::{
    check_exposition, load_journal, EventKind, EventLog, Series, Telemetry, DEFAULT_BUCKET_ROUNDS,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torpedo-events-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 2,
            runtime: "runc".to_string(),
            ..ObserverConfig::default()
        },
        mutate: MutatePolicy {
            denylist: default_denylist(),
            ..MutatePolicy::default()
        },
        seed,
        max_rounds_per_batch: 3,
        ..CampaignConfig::default()
    }
}

fn campaign_seeds(table: &[SyscallDesc]) -> SeedCorpus {
    SeedCorpus::load(
        &[
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "sync()\n",
        ],
        table,
        &default_denylist(),
    )
    .unwrap()
}

/// The byte-identity oracle shared with the durability suite: the full
/// report rendering plus the logfmt stream every round would be written
/// with.
fn render_report(report: &CampaignReport, table: &[SyscallDesc]) -> String {
    let mut out = format!("{report:?}\n");
    for log in &report.logs {
        out.push_str(&write_round(log, table));
    }
    out
}

const TENANT_SEEDS: &[&str] = &[
    "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
    "getpid()\nuname(0x0)\n",
    "sync()\n",
    "stat(&'/etc/passwd', 0x0)\n",
];

fn fleet_spec(i: usize, table: &Arc<[SyscallDesc]>) -> FleetSpec {
    let mut config = campaign_config(0xEE_0000 + i as u64);
    config.observer.executors = 1;
    FleetSpec {
        name: format!("tenant-{i}"),
        config,
        table: Arc::clone(table),
        seeds: SeedCorpus::load(
            &[TENANT_SEEDS[i % TENANT_SEEDS.len()]],
            table,
            &default_denylist(),
        )
        .unwrap(),
        oracle: Arc::new(CpuOracle::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Attaching the event pipeline — ring only or ring + journal — must
    /// not change a single byte of the campaign report, for arbitrary
    /// campaign seeds.
    #[test]
    fn events_on_and_off_reports_are_byte_identical(seed in any::<u64>()) {
        let table = build_table();
        let seeds = campaign_seeds(&table);
        let oracle = CpuOracle::new();
        let run = |events: EventLog| {
            let mut config = campaign_config(seed);
            config.events = events;
            let report = Campaign::new(config, table.clone())
                .run(&seeds, &oracle)
                .unwrap();
            render_report(&report, &table)
        };
        let dir = scratch("onoff");
        let off = run(EventLog::disabled());
        let ring = run(EventLog::enabled());
        let journaled = run(EventLog::journaled(&dir.join("events.ndjson")).unwrap());
        prop_assert_eq!(&off, &ring, "in-memory events perturbed the report");
        prop_assert_eq!(&off, &journaled, "journaled events perturbed the report");
        fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The journal and its folded logical-time series are pure functions
    /// of the schedule: byte-identical at 1, 2, and 4 workers, with the
    /// working set bounded so park/unpark events are in the stream too.
    #[test]
    fn fleet_journal_and_series_are_worker_count_invariant(
        fleet_seed in any::<u64>(),
        campaigns in 4usize..7,
    ) {
        let table: Arc<[SyscallDesc]> = build_table().into();
        let dir = scratch("workers");
        let mut journals = Vec::new();
        for workers in [1usize, 2, 4] {
            let path = dir.join(format!("events-w{workers}.ndjson"));
            let mut fleet = Fleet::new(FleetConfig {
                seed: fleet_seed,
                workers,
                max_active: 3,
                window_rounds: 2,
                window_rounds_max: 5,
                starvation_windows: 2,
                round_budget: 48,
                events: EventLog::journaled(&path).unwrap(),
                ..FleetConfig::default()
            });
            for i in 0..campaigns {
                fleet.admit(fleet_spec(i, &table));
            }
            fleet.run().unwrap();
            journals.push((workers, fs::read_to_string(&path).unwrap()));
        }
        let (_, reference) = &journals[0];
        prop_assert!(reference.lines().count() > 2, "journal must not be empty");
        for (workers, bytes) in &journals[1..] {
            prop_assert_eq!(
                reference,
                bytes,
                "event journal diverged between 1 and {} workers",
                workers
            );
        }
        let journal = load_journal(&dir.join("events-w1.ndjson")).unwrap();
        let series = Series::from_events(journal.events.iter(), DEFAULT_BUCKET_ROUNDS);
        prop_assert!(!series.campaign_ids().is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}

/// The observatory over a whole fleet: a journaled fleet with the health
/// detectors armed carries the round, schedule and health vocabulary and
/// folds into a series that accounts for every round; turning events on
/// leaves the fleet report byte-identical; and the status server serves
/// the journal's `/events` tail, the `/health` page and the health gauges.
#[test]
fn fleet_journal_folds_and_serves_the_observatory() {
    let table: Arc<[SyscallDesc]> = build_table().into();
    let dir = scratch("observatory");
    let run = |events: EventLog,
               health: Option<HealthConfig>,
               max_active: usize,
               checkpoints: Option<PathBuf>| {
        let mut fleet = Fleet::new(FleetConfig {
            workers: 2,
            max_active,
            window_rounds: 2,
            window_rounds_max: 4,
            starvation_windows: 2,
            round_budget: 48,
            events,
            health,
            ..FleetConfig::default()
        });
        for i in 0..8 {
            let mut spec = fleet_spec(i, &table);
            spec.config.checkpoint = checkpoints.as_ref().map(|dir| CheckpointConfig {
                dir: dir.join(format!("tenant-{i}")),
                interval_rounds: 2,
                keep: 2,
            });
            fleet.admit(spec);
        }
        fleet.run().unwrap()
    };

    // An execution floor no simulated window can meet, so the
    // throughput-stall detector fires deterministically: event, report
    // annotation and all.
    let stall_everything = HealthConfig {
        min_execs_per_round: 1_000_000,
        ..HealthConfig::default()
    };
    let journal_path = dir.join("events.ndjson");
    let watched = run(
        EventLog::journaled(&journal_path).unwrap(),
        Some(stall_everything),
        3,
        None,
    );
    assert!(!watched.health.is_empty());
    assert!(watched.render().contains("health findings"));

    let journal = load_journal(&journal_path).unwrap();
    assert!(!journal.events.is_empty());
    assert_eq!(journal.dropped, 0);
    let count =
        |wanted: fn(&EventKind) -> bool| journal.events.iter().filter(|e| wanted(&e.kind)).count();
    let rounds = count(|k| *k == EventKind::RoundCompleted);
    assert!(rounds > 0, "no round-completed events");
    assert!(count(|k| *k == EventKind::ScheduleDecision) > 0);
    assert!(count(|k| matches!(k, EventKind::HealthFinding(_))) > 0);

    // The series folds the journal and accounts for every executed round.
    let series = Series::from_events(journal.events.iter(), DEFAULT_BUCKET_ROUNDS);
    let folded: u64 = series.fleet().iter().map(|b| b.rounds).sum();
    assert_eq!(folded, rounds as u64);
    assert!(!series.campaign_ids().is_empty());
    assert!(series.render().contains("fleet\n"));

    // Journaling must not perturb results: with the health annotation
    // off, the events-on and events-off fleet reports are byte-identical.
    let with_events = run(
        EventLog::journaled(&dir.join("compare.ndjson")).unwrap(),
        None,
        3,
        None,
    );
    let without_events = run(EventLog::disabled(), None, 3, None);
    assert_eq!(with_events.render(), without_events.render());

    // Checkpointing tenants with the detectors armed: checkpoint lag comes
    // from the runs, not from the event log, so the reports stay equal,
    // with parking and without. These tenants finish after 3 rounds, so
    // only a bound under the 2-round interval makes the detector fire.
    let lagging = HealthConfig {
        checkpoint_lag_rounds: 0,
        ..HealthConfig::default()
    };
    for max_active in [3, usize::MAX] {
        let ckpt = |side: &str| Some(dir.join(format!("ckpt-{side}-{max_active}")));
        let on = run(
            EventLog::enabled(),
            Some(lagging.clone()),
            max_active,
            ckpt("on"),
        );
        let off = run(
            EventLog::disabled(),
            Some(lagging.clone()),
            max_active,
            ckpt("off"),
        );
        assert!(on.render().contains("checkpoint-lag"), "{}", on.render());
        assert_eq!(on.render(), off.render(), "max_active {max_active}");
    }

    // Serve the journal through the StatusShared/StatusServer pair the
    // fleet mounts.
    let live = EventLog::enabled();
    for event in &journal.events {
        live.emit_event(event.clone());
    }
    let shared = Arc::new(StatusShared::new(Telemetry::enabled()));
    shared.set_events(live.clone());
    shared.set_health_page("TORPEDO fleet health\ngeneration 0\nall clear\n".to_string());
    shared.set_extra_prom(
        "# HELP torpedo_fleet_health_findings Health-detector findings raised so far.\n\
         # TYPE torpedo_fleet_health_findings gauge\n\
         torpedo_fleet_health_findings{detector=\"coverage-plateau\"} 1\n"
            .to_string(),
    );
    let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
    let addr = server.local_addr();
    let appended = live.appended();
    let (status, body) = fetch(addr, "/events?since=0").unwrap();
    assert!(status.contains("200"), "/events returned {status}");
    assert!(body.contains("torpedo-events-v1"), "{body}");
    assert!(body.contains(&format!("\"next\":{appended}")), "{body}");
    let (status, body) = fetch(addr, &format!("/events?since={appended}")).unwrap();
    assert!(status.contains("200"), "/events returned {status}");
    assert!(
        body.contains("\"events\":[]"),
        "the cursor must drain: {body}"
    );
    let (status, body) = fetch(addr, "/health").unwrap();
    assert!(status.contains("200"), "/health returned {status}");
    assert!(body.contains("TORPEDO fleet health"), "{body}");
    let (status, prom) = fetch(addr, "/metrics.prom").unwrap();
    assert!(status.contains("200"), "/metrics.prom returned {status}");
    check_exposition(&prom).unwrap_or_else(|e| panic!("exposition violation: {e}\n{prom}"));
    assert!(prom.contains("torpedo_fleet_health_findings"), "{prom}");
    fs::remove_dir_all(&dir).ok();
}

/// Kill/resume with the journal attached: resuming from **every** round-r
/// checkpoint re-emits the replayed rounds' events with their original
/// sequence numbers, so both the final report and the resumed journal are
/// byte-identical to the uninterrupted run's.
#[test]
fn kill_at_any_round_resume_rebuilds_an_identical_journal() {
    let table = build_table();
    let base = scratch("resume");
    let durable = |dir: PathBuf, journal: &std::path::Path| {
        let mut config = campaign_config(0x0B5E_CAFE);
        config.checkpoint = Some(CheckpointConfig {
            dir,
            interval_rounds: 1,
            keep: 64,
        });
        config.events = EventLog::journaled(journal).unwrap();
        config
    };
    let writer_journal = base.join("writer-events.ndjson");
    let writer = Campaign::new(durable(base.join("writer"), &writer_journal), table.clone());
    let report = writer
        .run(&campaign_seeds(&table), &CpuOracle::new())
        .unwrap();
    let want_report = render_report(&report, &table);
    drop(writer);
    let want_journal = fs::read_to_string(&writer_journal).unwrap();
    assert!(report.rounds_total >= 6, "two batches must run");

    for r in 1..=report.rounds_total {
        let bundle = load_checkpoint(&base.join("writer").join(checkpoint_file_name(r)))
            .unwrap_or_else(|e| panic!("round {r} checkpoint must load: {e}"));
        let resumed_journal = base.join(format!("resume-{r}-events.ndjson"));
        let resumed = Campaign::new(
            durable(base.join(format!("resume-{r}")), &resumed_journal),
            table.clone(),
        );
        let resumed_report = resumed
            .resume(&bundle, &CpuOracle::new())
            .unwrap_or_else(|e| panic!("resume from round {r} must succeed: {e}"));
        assert_eq!(
            render_report(&resumed_report, &table),
            want_report,
            "resume from round {r} must render byte-identically"
        );
        drop(resumed);
        assert_eq!(
            fs::read_to_string(&resumed_journal).unwrap(),
            want_journal,
            "journal resumed from round {r} must be byte-identical"
        );
    }
    fs::remove_dir_all(&base).ok();
}
