//! Fleet scheduler integration tests: every admitted campaign makes
//! progress, the fleet report is byte-stable, park/unpark round-trips
//! through the snapshot path, the control plane admits and cancels
//! tenants, and — the tentpole invariant — the whole schedule and every
//! artifact are worker-count invariant (pinned by proptest).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use torpedo_prop::prelude::*;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignStep};
use torpedo_core::fleet::{Fleet, FleetConfig, FleetPolicy, FleetSpec};
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_core::{load_checkpoint, CampaignState, CheckpointConfig, Telemetry};
use torpedo_integration_tests::table;
use torpedo_kernel::Usecs;
use torpedo_oracle::observation::Observation;
use torpedo_oracle::violation::Violation;
use torpedo_oracle::{CpuOracle, Oracle};
use torpedo_prog::{DirectedTarget, MutatePolicy};

/// A deliberately small per-tenant campaign: 1-second windows, one
/// executor, short batches — fleet tests measure scheduling, not fuzzing
/// throughput.
fn tenant_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 1,
            runtime: "runc".to_string(),
            ..ObserverConfig::default()
        },
        mutate: MutatePolicy {
            denylist: default_denylist(),
            ..MutatePolicy::default()
        },
        seed,
        max_rounds_per_batch: 4,
        ..CampaignConfig::default()
    }
}

/// Seed texts cycled across tenants: a mix of adversarial (socket storm,
/// sync, bulk transmit, mlock pressure) and benign programs so the bandit
/// has something to rank.
const TENANT_SEEDS: &[&str] = &[
    "socket(0x9, 0x3, 0x0)\nsocket(0x9, 0x3, 0x0)\n",
    "getpid()\nuname(0x0)\n",
    "r0 = socket(0x2, 0x1, 0x0)\nsendto(r0, 0x0, 0x10000, 0x0, 0x0, 0x10)\n\
     sendto(r0, 0x0, 0x10000, 0x0, 0x0, 0x10)\n",
    "sync()\n",
    "mlock(0x0, 0x800000)\n",
    "stat(&'/etc/passwd', 0x0)\n",
];

/// Every third tenant runs *directed* at one of the new deferral channels
/// (with the memory limit the writeback family needs), so the fleet
/// invariants below — progress, byte-stable reports, worker-count
/// invariance — cover directed and undirected campaigns side by side.
fn spec(i: usize) -> FleetSpec {
    let text = TENANT_SEEDS[i % TENANT_SEEDS.len()];
    let mut config = tenant_config(0x70CA_0000 + i as u64);
    if i % 3 == 2 {
        let target = if i.is_multiple_of(2) {
            "channel:net-softirq"
        } else {
            "channel:writeback"
        };
        config.directed = DirectedTarget::parse(target);
        config.observer.memory_bytes_per_container = Some(32 << 20);
    }
    FleetSpec {
        name: format!("tenant-{i}"),
        config,
        table: table_arc(),
        seeds: SeedCorpus::load(&[text], &table(), &default_denylist()).unwrap(),
        oracle: Arc::new(CpuOracle::new()),
    }
}

fn table_arc() -> Arc<[torpedo_prog::SyscallDesc]> {
    table().into()
}

fn run_fleet(config: FleetConfig, campaigns: usize) -> torpedo_core::FleetOutcome {
    let mut fleet = Fleet::new(config);
    for i in 0..campaigns {
        fleet.admit(spec(i));
    }
    fleet.run().unwrap()
}

#[test]
fn every_campaign_executes_and_report_is_byte_stable() {
    let config = FleetConfig {
        workers: 2,
        window_rounds: 2,
        window_rounds_max: 6,
        round_budget: 96,
        ..FleetConfig::default()
    };
    let first = run_fleet(config.clone(), 8);
    for row in &first.rows {
        assert!(
            row.windows >= 1,
            "campaign {} ({}) never got a window",
            row.id,
            row.name
        );
        assert!(row.error.is_none(), "campaign {}: {:?}", row.id, row.error);
    }
    assert!(
        first.rounds_total <= 96,
        "budget overrun: {}",
        first.rounds_total
    );
    assert!(first.flags_total > 0, "the socket storms must flag");

    let second = run_fleet(config, 8);
    assert_eq!(
        first.render(),
        second.render(),
        "fleet report must be byte-stable across runs"
    );
}

#[test]
fn bounded_working_set_parks_through_snapshots() {
    let config = FleetConfig {
        workers: 2,
        max_active: 2,
        window_rounds: 2,
        window_rounds_max: 4,
        starvation_windows: 2,
        round_budget: 72,
        ..FleetConfig::default()
    };
    let outcome = run_fleet(config.clone(), 6);
    assert!(outcome.parks > 0, "a 6-tenant fleet capped at 2 must park");
    assert!(outcome.unparks > 0, "parked campaigns must resume");
    for row in &outcome.rows {
        assert!(
            row.windows >= 1,
            "starvation bound must schedule campaign {} at least once",
            row.id
        );
        assert!(row.error.is_none(), "campaign {}: {:?}", row.id, row.error);
    }
    // Park/unpark is invisible in the deterministic report.
    let again = run_fleet(config, 6);
    assert_eq!(outcome.render(), again.render());
}

/// The CPU oracle, counting its calls.
#[derive(Debug, Default)]
struct CountingOracle {
    inner: CpuOracle,
    scores: AtomicU64,
    flags: AtomicU64,
}

impl Oracle for CountingOracle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&self, obs: &Observation) -> f64 {
        self.scores.fetch_add(1, Ordering::Relaxed);
        self.inner.score(obs)
    }

    fn flag(&self, obs: &Observation) -> Vec<Violation> {
        self.flags.fetch_add(1, Ordering::Relaxed);
        self.inner.flag(obs)
    }
}

/// A fleet flags every round it steps once, parked or not: one `flag`
/// call per `score` call, replayed unpark rounds included. The flags it
/// counts are the findings its tenants' reports hold, and parking does
/// not change them.
#[test]
fn fleet_flags_each_stepped_round_once() {
    let mut flags_total = Vec::new();
    for max_active in [usize::MAX, 2] {
        let oracle = Arc::new(CountingOracle::default());
        let mut fleet = Fleet::new(FleetConfig {
            workers: 2,
            max_active,
            window_rounds: 2,
            window_rounds_max: 6,
            round_budget: 96,
            keep_reports: true,
            ..FleetConfig::default()
        });
        for i in 0..8 {
            fleet.admit(FleetSpec {
                oracle: oracle.clone(),
                ..spec(i)
            });
        }
        let outcome = fleet.run().unwrap();
        let scores = oracle.scores.load(Ordering::Relaxed);
        let flags = oracle.flags.load(Ordering::Relaxed);
        assert!(scores > 0);
        assert_eq!(
            flags, scores,
            "flag vs score calls at max_active {max_active}"
        );
        assert_eq!(outcome.reports.len(), 8, "every tenant finishes");
        let found: usize = outcome.reports.iter().map(|(_, r)| r.flagged.len()).sum();
        assert_eq!(outcome.flags_total, found as u64);
        flags_total.push(outcome.flags_total);
    }
    assert!(flags_total[0] > 0);
    assert_eq!(flags_total[0], flags_total[1]);
}

#[test]
fn disk_spill_parks_to_the_fleet_dir() {
    let dir = tempdir("fleet-spill");
    let config = FleetConfig {
        workers: 1,
        max_active: 1,
        window_rounds: 2,
        round_budget: 24,
        park_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    let outcome = run_fleet(config, 3);
    assert!(outcome.parks > 0);
    let spilled = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert!(spilled > 0, "park_dir must hold spilled bundles");
    for row in &outcome.rows {
        assert!(row.error.is_none(), "campaign {}: {:?}", row.id, row.error);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn control_plane_submits_and_cancels_at_the_barrier() {
    let mut fleet = Fleet::new(FleetConfig {
        workers: 1,
        window_rounds: 2,
        round_budget: 48,
        ..FleetConfig::default()
    });
    for i in 0..3 {
        fleet.admit(spec(i));
    }
    fleet.enable_submissions(table_arc());
    let control = fleet.control_api().expect("control plane mounted");

    // Queue a cancellation of tenant 1 and a new submission; both drain at
    // the first generation barrier, before any window is granted.
    let (code, _) = control.handle("POST", "/fleet/cancel?id=1", "").unwrap();
    assert_eq!(code, 202);
    let (code, _) = control
        .handle("POST", "/fleet/submit?name=late-tenant&seed=77", "sync()\n")
        .unwrap();
    assert_eq!(code, 202);
    // Malformed requests answer 4xx without queueing.
    let (code, _) = control.handle("POST", "/fleet/cancel?id=x", "").unwrap();
    assert_eq!(code, 400);
    let (code, _) = control.handle("POST", "/fleet/submit", "").unwrap();
    assert_eq!(code, 400);
    let (code, _) = control
        .handle("POST", "/fleet/submit?seed=7x", "sync()\n")
        .unwrap();
    assert_eq!(code, 400);
    assert!(control.handle("POST", "/fleet/nope", "").is_none());

    let outcome = fleet.run().unwrap();
    assert_eq!(outcome.rows.len(), 4, "the submission was admitted");
    assert_eq!(outcome.rows[1].state, CampaignState::Cancelled);
    assert_eq!(outcome.rows[1].windows, 0, "cancelled before any window");
    let late = &outcome.rows[3];
    assert_eq!(late.name, "late-tenant");
    assert!(late.windows >= 1, "submitted tenant must execute");
    assert!(late.error.is_none(), "{:?}", late.error);
}

/// A tenant admitted through `/fleet/submit` clones the first tenant's
/// config; its checkpoints must land in a directory of its own, not in the
/// first tenant's, where keep-N garbage collection would prune across both
/// trails.
#[test]
fn submitted_tenant_checkpoints_into_its_own_directory() {
    let dir = tempdir("fleet-submit-ckpt");
    let mut fleet = Fleet::new(FleetConfig {
        workers: 1,
        window_rounds: 2,
        round_budget: 8,
        ..FleetConfig::default()
    });
    let mut first = spec(0);
    let first_seed = first.config.seed;
    first.config.checkpoint = Some(CheckpointConfig {
        dir: dir.clone(),
        interval_rounds: 1,
        keep: 8,
    });
    fleet.admit(first);
    fleet.enable_submissions(table_arc());
    let control = fleet.control_api().expect("control plane mounted");
    let (code, _) = control
        .handle("POST", "/fleet/submit?name=late-tenant&seed=77", "sync()\n")
        .unwrap();
    assert_eq!(code, 202);
    let outcome = fleet.run().unwrap();
    assert_eq!(outcome.rows.len(), 2, "the submission was admitted");

    // The campaign seed of every checkpoint directly inside `dir`.
    let seeds_in = |dir: &Path| -> Vec<u64> {
        let mut seeds = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                seeds.push(load_checkpoint(&path).unwrap().rng_seed);
            }
        }
        seeds
    };
    let own = seeds_in(&dir);
    assert!(!own.is_empty(), "the first tenant checkpointed");
    assert!(own.iter().all(|s| *s == first_seed), "{own:x?}");
    let submitted = seeds_in(&dir.join("fleet-campaign-00001"));
    assert!(!submitted.is_empty(), "the submitted tenant checkpointed");
    assert!(submitted.iter().all(|s| *s == 77), "{submitted:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "torpedo-{tag}-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole determinism invariant: the fleet report is a pure
    /// function of (fleet seed, campaign set) — identical bytes under 1,
    /// 2, and 4 workers, with the working set bounded so park/unpark is
    /// exercised too. With `sinks` on, every tenant also carries
    /// telemetry, forensics and a checkpoint every round into a directory
    /// of its own, and the kept tenant reports (forensics included) and
    /// the checkpoint files are identical across worker counts as well.
    /// Each kept report equals the same campaign run standalone for the
    /// same number of rounds: time-slicing, parking and sinks never change
    /// what a campaign computes.
    #[test]
    fn fleet_report_is_worker_count_invariant(
        fleet_seed in any::<u64>(),
        campaigns in 4usize..7,
        sinks in any::<bool>(),
        policy_bandit in any::<bool>(),
    ) {
        let dir = tempdir(&format!("fleet-invariance-{fleet_seed}"));
        let tenant = |i: usize| {
            let mut spec = spec(i);
            if sinks {
                spec.config.observer.telemetry = Telemetry::enabled();
                spec.config.forensics = true;
                spec.config.checkpoint = Some(CheckpointConfig {
                    dir: dir.join(format!("tenant-{i}")),
                    interval_rounds: 1,
                    keep: 8,
                });
            }
            spec
        };
        let base = FleetConfig {
            seed: fleet_seed,
            max_active: 3,
            window_rounds: 2,
            window_rounds_max: 5,
            starvation_windows: 2,
            round_budget: 60,
            policy: if policy_bandit { FleetPolicy::Bandit } else { FleetPolicy::RoundRobin },
            keep_reports: true,
            ..FleetConfig::default()
        };
        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            std::fs::remove_dir_all(&dir).ok();
            let mut fleet = Fleet::new(FleetConfig { workers, ..base.clone() });
            for i in 0..campaigns {
                fleet.admit(tenant(i));
            }
            let outcome = fleet.run().unwrap();
            let reports = format!("{:?}", outcome.reports);
            runs.push((workers, outcome, reports, dir_files(&dir)));
        }
        let (_, reference, reference_reports, reference_files) = &runs[0];
        prop_assert_eq!(reference_files.is_empty(), !sinks);
        for (workers, outcome, reports, files) in &runs[1..] {
            prop_assert_eq!(
                reference.render(),
                outcome.render(),
                "fleet report diverged between 1 and {} workers",
                workers
            );
            prop_assert_eq!(
                reference_reports,
                reports,
                "tenant reports diverged between 1 and {} workers",
                workers
            );
            prop_assert!(
                reference_files == files,
                "checkpoint files diverged between 1 and {} workers",
                workers
            );
        }

        prop_assert!(!reference.reports.is_empty());
        for (id, report) in &reference.reports {
            let spec = tenant(*id);
            let campaign = Campaign::new(spec.config, spec.table);
            let oracle = spec.oracle.as_ref();
            let mut run = campaign.start(&spec.seeds, false).unwrap();
            let mut rounds = 0;
            while rounds < report.rounds_total {
                match run.step(oracle).unwrap() {
                    CampaignStep::Ran(_) => rounds += 1,
                    CampaignStep::Done => break,
                }
            }
            let standalone = run.finish(oracle).unwrap();
            prop_assert_eq!(
                format!("{:?} {:?}", report.logs, report.flagged),
                format!("{:?} {:?}", standalone.logs, standalone.flagged),
                "tenant {} diverged from its standalone run",
                id
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every file under `dir`, as sorted (relative path, bytes) pairs.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(base: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(base, &path, out);
            } else {
                let rel = path.strip_prefix(base).expect("entry under base");
                out.push((
                    rel.to_string_lossy().into_owned(),
                    std::fs::read(&path).expect("read checkpoint"),
                ));
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, dir, &mut files);
    files.sort();
    files
}
