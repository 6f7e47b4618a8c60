//! `timing_check`: every wall-clock claim of the fuzzer, held to its limit
//! in one table.
//!
//! | row | claim | limit |
//! |---|---|---|
//! | `checkpoint-off` | a config carrying a disabled checkpoint policy runs at reference speed | < 2% |
//! | `directed-no-target` | a directed config with an unreachable target runs at reference speed | < 2% |
//! | `events-on` | an in-memory event ring runs at reference speed | < 2% |
//! | `fleet-scheduler` | the scheduler's share of busy time, 32 tenants on one worker | < 5% |
//! | `fleet-scaling` | a 4-worker fleet's efficiency against 1 worker | ≥ 0.5, on hosts with ≥ 4 cores |
//!
//! The three pair rows time whole campaigns (3 executors, 4-round batches,
//! a 6-program generated corpus). Each pair runs the reference config and
//! the variant back to back, alternating which runs first so host drift
//! hits both arms alike, and the row reads the median of the per-pair
//! wall-time ratios over 128 pairs.
//!
//! Usage: `timing_check`, in a release build, on an otherwise idle host.
//! It prints one line per row and exits non-zero if any row fails. The
//! unoptimised, thread-parallel test suite cannot hold a 2% wall-clock
//! limit, so these claims live here rather than in `cargo test`.

use std::sync::Arc;
use std::time::Instant;

use torpedo_bench::run_schedule_fleet;
use torpedo_core::campaign::{Campaign, CampaignConfig};
use torpedo_core::fleet::{Fleet, FleetConfig, FleetSpec};
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::CheckpointConfig;
use torpedo_kernel::Usecs;
use torpedo_oracle::CpuOracle;
use torpedo_prog::{build_table, DirectedTarget, MutatePolicy, SyscallDesc};
use torpedo_telemetry::EventLog;

/// One row's measurement against its limit, as printed.
struct Reading {
    measured: String,
    limit: String,
    /// Whether the claim holds; `None` when this host cannot test it.
    holds: Option<bool>,
}

/// A row's measurement: runs the workload and reads it against the limit.
type Measure = fn() -> Reading;

const ROWS: &[(&str, Measure)] = &[
    ("checkpoint-off", checkpoint_off),
    ("directed-no-target", directed_no_target),
    ("events-on", events_on),
    ("fleet-scheduler", fleet_scheduler),
    ("fleet-scaling", fleet_scaling),
];

fn main() {
    let mut failed = 0;
    for (name, measure) in ROWS {
        let start = Instant::now();
        let reading = measure();
        let verdict = match reading.holds {
            Some(true) => "ok",
            Some(false) => {
                failed += 1;
                "FAIL"
            }
            None => "skip",
        };
        println!(
            "timing_check: {name:<18} {:>12} (limit {}) {verdict} [{:.1}s]",
            reading.measured,
            reading.limit,
            start.elapsed().as_secs_f64()
        );
    }
    if failed > 0 {
        eprintln!("timing_check: {failed} row(s) failed");
        std::process::exit(1);
    }
}

fn table() -> Arc<[SyscallDesc]> {
    build_table().into()
}

/// The campaign the pair rows time: 3 executors and 4-round batches.
fn reference_config() -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 3,
            ..ObserverConfig::default()
        },
        mutate: MutatePolicy {
            denylist: default_denylist(),
            ..MutatePolicy::default()
        },
        max_rounds_per_batch: 4,
        ..CampaignConfig::default()
    }
}

/// Campaign pairs per pair row.
const PAIRS: usize = 128;
const PAIR_LIMIT_PCT: f64 = 2.0;

/// The median wall-time overhead of `variant` over [`reference_config`],
/// in percent, as a pair-row reading.
fn pair_overhead(variant: CampaignConfig) -> Reading {
    let table = table();
    let texts = torpedo_moonshine::generate_corpus(6, 1);
    let seeds = SeedCorpus::load(&texts, &table, &default_denylist()).expect("corpus parses");
    let oracle = CpuOracle::new();
    let reference = reference_config();
    let secs = |config: &CampaignConfig| {
        let start = Instant::now();
        Campaign::new(config.clone(), Arc::clone(&table))
            .run(&seeds, &oracle)
            .expect("timed campaign");
        start.elapsed().as_secs_f64()
    };
    // Warm-up, untimed.
    secs(&reference);
    secs(&variant);
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let reference = secs(&reference);
                secs(&variant) / reference
            } else {
                let variant = secs(&variant);
                variant / secs(&reference)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0;
    let overhead_pct = 100.0 * (median - 1.0);
    Reading {
        measured: format!("{overhead_pct:.2}%"),
        limit: format!("< {PAIR_LIMIT_PCT:.0}%"),
        holds: Some(overhead_pct < PAIR_LIMIT_PCT),
    }
}

/// A checkpoint policy with interval 0 is filtered out up front, so the
/// variant runs the reference code path and never writes to `dir`.
fn checkpoint_off() -> Reading {
    let mut variant = reference_config();
    variant.checkpoint = Some(CheckpointConfig {
        dir: std::env::temp_dir().join("torpedo-timing-checkpoint-off"),
        interval_rounds: 0,
        keep: 2,
    });
    pair_overhead(variant)
}

/// `channel:tty-flush` has an empty trigger set: the campaign drops the
/// all-unreachable distance map and runs the undirected path, so the
/// overhead is one distance-map build per campaign.
fn directed_no_target() -> Reading {
    let mut variant = reference_config();
    variant.directed = DirectedTarget::parse("channel:tty-flush");
    pair_overhead(variant)
}

fn events_on() -> Reading {
    let mut variant = reference_config();
    variant.events = EventLog::enabled();
    pair_overhead(variant)
}

/// Every tenant gets at least one window on a single worker, so planning
/// covers the full tenant table every generation while the window work is
/// serialized: the worst case for the ratio.
fn fleet_scheduler() -> Reading {
    const CAMPAIGNS: usize = 32;
    const LIMIT_PCT: f64 = 5.0;
    let outcome = run_schedule_fleet(
        FleetConfig {
            workers: 1,
            window_rounds: 2,
            window_rounds_max: 6,
            round_budget: CAMPAIGNS as u64 * 3,
            ..FleetConfig::default()
        },
        CAMPAIGNS,
        4,
        &table(),
    );
    let pct = outcome.scheduler_overhead_pct();
    Reading {
        measured: format!("{pct:.2}%"),
        limit: format!("< {LIMIT_PCT:.0}%"),
        holds: Some(pct < LIMIT_PCT),
    }
}

/// Four one-program tenants (2 executors, 2-round batches) run to
/// completion at 1 worker and at 4 workers. Efficiency is the speedup
/// divided by 4, so 1.0 is linear scaling. A host with fewer than 4 cores
/// serializes the workers and says nothing about contention, so the row
/// is skipped there.
fn fleet_scaling() -> Reading {
    const TENANTS: usize = 4;
    const FLOOR: f64 = 0.5;
    let table = table();
    let texts = torpedo_moonshine::generate_corpus(TENANTS, 1);
    let run = |workers: usize| {
        let mut fleet = Fleet::new(FleetConfig {
            workers,
            round_budget: 1 << 20,
            ..FleetConfig::default()
        });
        for (i, text) in texts.iter().enumerate() {
            let mut config = reference_config();
            config.observer.executors = 2;
            config.max_rounds_per_batch = 2;
            config.seed = 0x5CA1_E000 + i as u64;
            fleet.admit(FleetSpec {
                name: format!("tenant-{i}"),
                config,
                table: Arc::clone(&table),
                seeds: SeedCorpus::load(&[text.as_str()], &table, &default_denylist())
                    .expect("tenant seeds parse"),
                oracle: Arc::new(CpuOracle::new()),
            });
        }
        let start = Instant::now();
        fleet.run().expect("scaling fleet");
        start.elapsed().as_secs_f64()
    };
    // Warm-up, then the fastest of two runs per point.
    let best = |workers| {
        run(workers);
        run(workers).min(run(workers))
    };
    let efficiency = best(1) / best(TENANTS) / TENANTS as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Reading {
        measured: format!("{efficiency:.3}"),
        limit: format!(">= {FLOOR} at {TENANTS} cores, host has {cores}"),
        holds: (cores >= TENANTS).then_some(efficiency >= FLOOR),
    }
}
