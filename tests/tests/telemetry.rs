//! Observability-layer integration tests: the status endpoint end to end
//! over real TCP, the `/metrics` exposition read back through its checker,
//! and the zero-perturbation property — a campaign's results are
//! byte-identical with telemetry on or off.

use torpedo_prop::prelude::*;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::logfmt::write_round;
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::stats::CampaignStats;
use torpedo_kernel::Usecs;
use torpedo_oracle::CpuOracle;
use torpedo_prog::{build_table, SyscallDesc};
use torpedo_telemetry::server::fetch;
use torpedo_telemetry::{check_exposition, CounterId, Telemetry};

const SEED_POOL: [&str; 4] = [
    "sync()\n",
    "getpid()\n",
    "r0 = socket(0x10, 0x3, 0x9)\nsendto(r0, 0x0, 0x24, 0x0, 0x0, 0xc)\n",
    "sync()\ngetpid()\nsync()\n",
];

fn small_config(telemetry: Telemetry, parallel: bool) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 2,
            telemetry,
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 2,
        parallel,
        ..CampaignConfig::default()
    }
}

fn run_small(config: CampaignConfig) -> (CampaignReport, Vec<SyscallDesc>) {
    let table = build_table();
    let seeds = SeedCorpus::load(&SEED_POOL[..2], &table, &default_denylist()).unwrap();
    let report = Campaign::new(config, table.clone())
        .run(&seeds, &CpuOracle::new())
        .unwrap();
    (report, table)
}

/// The full loop: campaign binds the status server, serves live pages during
/// the run, and keeps the final stats page plus `/metrics` up after `run`
/// returns (the campaign owns the server, not the run).
#[test]
fn status_endpoint_serves_stats_and_metrics_end_to_end() {
    let table = build_table();
    let seeds = SeedCorpus::load(&SEED_POOL[..3], &table, &default_denylist()).unwrap();
    let mut config = small_config(Telemetry::enabled(), true);
    config.status_addr = Some("127.0.0.1:0".to_string());
    let telemetry = config.observer.telemetry.clone();
    let campaign = Campaign::new(config, table);
    let report = campaign.run(&seeds, &CpuOracle::new()).unwrap();
    let addr = campaign.status_local_addr().expect("server bound by run()");

    // `/` is the final stats page once the run finishes. The rendered
    // stats come first; the campaign may append saturation / forensics
    // lines after them.
    let (status, page) = fetch(addr, "/").unwrap();
    assert!(status.contains("200 OK"), "{status}");
    assert!(
        page.starts_with(&CampaignStats::from_report(&report).render()),
        "{page}"
    );

    // `/metrics` reads back through the exposition checker and carries
    // the round-latency and exec-latency histograms.
    let (status, body) = fetch(addr, "/metrics").unwrap();
    assert!(status.contains("200 OK"), "{status}");
    let samples: std::collections::BTreeMap<String, f64> =
        check_exposition(&body).unwrap().into_iter().collect();
    assert_eq!(samples["torpedo_telemetry_enabled"], 1.0);
    let rounds = report.rounds_total as f64;
    assert_eq!(samples["torpedo_round_latency_ns_count"], rounds);
    assert!(samples["torpedo_round_latency_ns_max"] > 0.0);
    assert!(
        samples["torpedo_exec_latency_us_count"] > 0.0,
        "parallel rounds must record execution latencies"
    );
    assert_eq!(samples["torpedo_rounds_completed"], rounds);
    assert!(samples["torpedo_execs_total"] > 0.0);
    assert_eq!(
        samples["torpedo_rounds_completed"],
        telemetry.counter(CounterId::RoundsCompleted) as f64
    );
    // The probe requests themselves are counted: the `/` fetch above and
    // this one.
    assert_eq!(samples["torpedo_status_requests"], 2.0);

    // Unknown routes 404, and the server survives to answer again.
    let (status, _) = fetch(addr, "/nope").unwrap();
    assert!(status.contains("404"), "{status}");
    let (status, _) = fetch(addr, "/status").unwrap();
    assert!(status.contains("200 OK"), "{status}");
}

/// `serve_status` is idempotent and usable without a run for tooling that
/// wants the endpoint before the campaign starts.
#[test]
fn serve_status_is_idempotent() {
    let table = build_table();
    let campaign = Campaign::new(small_config(Telemetry::enabled(), false), table);
    let first = campaign.serve_status("127.0.0.1:0").unwrap();
    let second = campaign.serve_status("127.0.0.1:0").unwrap();
    assert_eq!(first, second, "rebinding must reuse the live server");
    let (status, page) = fetch(first, "/").unwrap();
    assert!(status.contains("200 OK"), "{status}");
    assert!(page.contains("TORPEDO"), "{page}");
}

/// A campaign without `status_addr` binds nothing.
#[test]
fn no_status_server_by_default() {
    let (report, _) = run_small(small_config(Telemetry::disabled(), false));
    assert!(report.rounds_total > 0);
}

fn report_fingerprint(report: &CampaignReport, table: &[SyscallDesc]) -> String {
    let logs: String = report.logs.iter().map(|l| write_round(l, table)).collect();
    format!(
        "rounds={} signals={} corpus={} flagged={} crashes={} logs:\n{logs}",
        report.rounds_total,
        report.coverage_signals,
        report.corpus.len(),
        report.flagged.len(),
        report.crashes.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Telemetry records timing; it must never influence results. For any
    /// small campaign shape, the report with telemetry enabled is identical
    /// to the report with the no-op handle.
    #[test]
    fn telemetry_on_and_off_reports_are_identical(
        seed in any::<u64>(),
        nseeds in 1usize..=SEED_POOL.len(),
        executors in 1usize..3,
        parallel in any::<bool>(),
    ) {
        let table = build_table();
        let corpus = SeedCorpus::load(&SEED_POOL[..nseeds], &table, &default_denylist()).unwrap();
        let run = |telemetry: Telemetry| {
            let mut config = small_config(telemetry, parallel);
            config.seed = seed;
            config.observer.executors = executors;
            Campaign::new(config, table.clone())
                .run(&corpus, &CpuOracle::new())
                .unwrap()
        };
        let run_forensics = || {
            let mut config = small_config(Telemetry::disabled(), parallel);
            config.seed = seed;
            config.observer.executors = executors;
            config.forensics = true;
            Campaign::new(config, table.clone())
                .run(&corpus, &CpuOracle::new())
                .unwrap()
        };
        let off = run(Telemetry::disabled());
        let on = run(Telemetry::enabled());
        let forensics = run_forensics();
        prop_assert_eq!(
            report_fingerprint(&off, &table),
            report_fingerprint(&on, &table)
        );
        prop_assert_eq!(
            CampaignStats::from_report(&off),
            CampaignStats::from_report(&on)
        );
        // The flight recorder is a pure observer: every result field stays
        // byte-identical with forensics on, and the extra work shows up only
        // as the bundle list (one bundle per flag, crash, and quarantine).
        prop_assert_eq!(
            report_fingerprint(&off, &table),
            report_fingerprint(&forensics, &table)
        );
        prop_assert_eq!(
            CampaignStats::from_report(&off),
            CampaignStats::from_report(&forensics)
        );
        prop_assert!(off.forensics.is_empty());
        prop_assert_eq!(
            forensics.forensics.len(),
            forensics.flagged.len()
                + forensics.crashes.len()
                + forensics.quarantined.len()
        );
    }
}
