//! Robustness tests for the deterministic fault-injection harness and the
//! supervised recovery machinery: campaigns under bounded fault schedules
//! must run to completion without panicking, report their recovery
//! counters, and — given identical seeds and fault plans — produce
//! bit-for-bit identical results.

use std::time::Duration;

use torpedo_prop::prelude::*;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::logfmt::{parse_log, write_round};
use torpedo_core::observer::{ObserverConfig, SupervisorConfig};
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_kernel::Usecs;
use torpedo_oracle::CpuOracle;
use torpedo_prog::{build_table, serialize, SyscallDesc};
use torpedo_runtime::FaultConfig;

fn seeds(table: &[SyscallDesc]) -> SeedCorpus {
    SeedCorpus::load(
        &[
            "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
            "getpid()\nuname(0x0)\n",
            "stat(&'/etc/passwd', 0x0)\n",
        ],
        table,
        &default_denylist(),
    )
    .unwrap()
}

fn faulty_config(faults: FaultConfig, parallel: bool) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 3,
            faults,
            supervisor: SupervisorConfig {
                // Backoff shrunk so injected start failures resolve fast.
                backoff_base: Duration::from_micros(50),
                backoff_cap: Duration::from_micros(400),
                ..SupervisorConfig::default()
            },
            ..ObserverConfig::default()
        },
        max_rounds_per_batch: 4,
        parallel,
        ..CampaignConfig::default()
    }
}

fn run(faults: FaultConfig, parallel: bool) -> CampaignReport {
    let table = build_table();
    let campaign = Campaign::new(faulty_config(faults, parallel), table.clone());
    campaign
        .run(&seeds(&table), &CpuOracle::new())
        .expect("faulty campaign completes under supervision")
}

/// Acceptance: a campaign with nonzero executor-hang and container-crash
/// rates runs to completion, panics nowhere, and reports its recovery
/// counters through both the report and the round logs.
#[test]
fn faulty_campaign_completes_and_reports_recovery() {
    let report = run(
        FaultConfig {
            seed: 0xFA11,
            executor_hang: 0.12,
            container_crash: 0.002,
            start_fail: 0.1,
            exec_error: 0.001,
            ..FaultConfig::default()
        },
        false,
    );
    assert!(report.rounds_total >= 4);
    assert!(report.faults_injected.total() > 0, "faults must fire");
    let rec = &report.recovery;
    assert!(rec.hangs_detected > 0, "12% hang rate must hit");
    assert!(rec.worker_restarts > 0);
    // The recovery events surface in the round logs and round-trip
    // through the on-disk format.
    let table = build_table();
    let per_round: torpedo_core::RecoveryStats =
        report.logs.iter().fold(Default::default(), |mut acc, log| {
            acc.absorb(&log.recovery);
            acc
        });
    assert!(per_round.hangs_detected > 0, "deltas must attribute hangs");
    let salvaged_log = report
        .logs
        .iter()
        .find(|l| !l.recovery.is_zero())
        .expect("some round recorded recovery");
    let text = write_round(salvaged_log, &table);
    assert!(text.contains("--- recovery "));
    let parsed = parse_log(&text, &table).unwrap();
    assert_eq!(parsed[0].recovery, salvaged_log.recovery);
}

/// The same campaign under the threaded observer: each rolled hang is
/// respawned inside its worker's own partition, and the campaign still
/// finishes.
#[test]
fn faulty_parallel_campaign_completes() {
    let report = run(
        FaultConfig {
            seed: 0xFA12,
            executor_hang: 0.18,
            container_crash: 0.002,
            ..FaultConfig::default()
        },
        true,
    );
    assert!(report.rounds_total >= 4);
    assert!(report.recovery.hangs_detected > 0);
    assert!(report.recovery.worker_restarts > 0);
}

/// Acceptance: an identical re-run with the same campaign seed and fault
/// plan is bit-for-bit deterministic — same rounds, same scores, same
/// recovery counters, same injected-fault counters, same flagged programs
/// and same round logs — under the sequential and the threaded observer.
#[test]
fn same_seed_and_fault_plan_is_deterministic() {
    let faults = FaultConfig {
        seed: 0xD37E_2217,
        executor_hang: 0.15,
        container_crash: 0.003,
        start_fail: 0.15,
        exec_error: 0.002,
        cgroup_write_fail: 0.05,
        checkpoint_write_fail: 0.0,
    };
    let table = build_table();
    for parallel in [false, true] {
        let a = run(faults.clone(), parallel);
        let b = run(faults.clone(), parallel);
        assert_eq!(a.rounds_total, b.rounds_total);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert!(a.recovery.total() > 0, "the schedule must actually inject");
        let scores_a: Vec<u64> = a.logs.iter().map(|l| l.score.to_bits()).collect();
        let scores_b: Vec<u64> = b.logs.iter().map(|l| l.score.to_bits()).collect();
        assert_eq!(scores_a, scores_b, "scores must match bit-for-bit");
        let flagged_a: Vec<String> = a
            .flagged
            .iter()
            .map(|f| serialize(&f.program, &table))
            .collect();
        let flagged_b: Vec<String> = b
            .flagged
            .iter()
            .map(|f| serialize(&f.program, &table))
            .collect();
        assert_eq!(flagged_a, flagged_b);
        assert_eq!(a.quarantined, b.quarantined);
        assert_eq!(
            format!("{:?}", a.logs),
            format!("{:?}", b.logs),
            "parallel: {parallel}"
        );
    }
}

/// A program that keeps killing its executor is quarantined: the campaign
/// stops rescheduling it rather than burning its round budget on respawns.
#[test]
fn executor_killers_are_quarantined() {
    let table = build_table();
    let killer = "open(&'/lib/x86_64-Linux-gnu/libc.so.6', 0x680002, 0x20)\n";
    let corpus = SeedCorpus::load(
        &[killer, "getpid()\n", "getuid()\n"],
        &table,
        &default_denylist(),
    )
    .unwrap();
    let mut config = faulty_config(FaultConfig::default(), false);
    config.observer.runtime = "runsc".to_string();
    config.observer.supervisor.quarantine_threshold = 1;
    let report = Campaign::new(config, table.clone())
        .run(&corpus, &CpuOracle::new())
        .unwrap();
    assert!(!report.crashes.is_empty(), "the open() seed must crash");
    assert!(report.recovery.quarantined_programs >= 1);
    assert!(
        report.quarantined.iter().any(|p| p.contains("open(")),
        "the killer is on the list: {:?}",
        report.quarantined
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite (c): any bounded fault schedule — every rate within the
    /// plausible-operations envelope — still yields a completed
    /// [`CampaignReport`] with coherent recovery counters.
    #[test]
    fn bounded_fault_schedules_always_complete(
        seed in any::<u64>(),
        hang in 0.0f64..0.2,
        crash in 0.0f64..0.004,
        start in 0.0f64..0.25,
        exec in 0.0f64..0.003,
        cgroup in 0.0f64..0.1,
    ) {
        let report = run(
            FaultConfig {
                seed,
                executor_hang: hang,
                container_crash: crash,
                start_fail: start,
                exec_error: exec,
                cgroup_write_fail: cgroup,
                checkpoint_write_fail: 0.0,
            },
            false,
        );
        prop_assert!(report.rounds_total >= 4);
        prop_assert!(!report.logs.is_empty());
        let rec = &report.recovery;
        // Salvage implies a detected hang.
        prop_assert!(rec.rounds_salvaged <= rec.hangs_detected);
        // Counters in the report equal the sum of per-round deltas the
        // logs carry (modulo boot-time start failures, attributed to no
        // round, and end-of-run quarantine bookkeeping).
        let mut summed = torpedo_core::RecoveryStats::default();
        for log in &report.logs {
            summed.absorb(&log.recovery);
        }
        prop_assert_eq!(summed.hangs_detected, rec.hangs_detected);
        prop_assert_eq!(summed.rounds_salvaged, rec.rounds_salvaged);
        prop_assert_eq!(summed.rounds_retried, rec.rounds_retried);
    }
}
