//! `torpedo-bench`: shared fixtures for the table-regeneration binaries,
//! the directed and fleet-schedule tests, and the `timing_check` release
//! gate.
//!
//! Every table and figure in the paper's evaluation has a regenerator:
//!
//! | artifact | binary |
//! |---|---|
//! | Table 4.1 (CPU oracle heuristics) | `table_4_1` |
//! | Table 4.2 (runC findings) | `table_4_2` |
//! | Table 4.3 (gVisor findings) | `table_4_3` |
//! | Tables A.1–A.4 (observer logs) | `appendix_tables` |
//! | Figures 3.2/3.3 (state machines) | `state_machines` |
//! | §2.4.3 amplification, §3.4 T choice, §3.5.2 shuffle, §4.1.2 denylist | `ablations` |

use std::sync::Arc;

use torpedo_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use torpedo_core::confirm::{confirm, Confirmation};
use torpedo_core::fleet::{Fleet, FleetConfig, FleetOutcome, FleetSpec};
use torpedo_core::observer::ObserverConfig;
use torpedo_core::seeds::{default_denylist, SeedCorpus};
use torpedo_kernel::{KernelConfig, Usecs};
use torpedo_oracle::{CpuOracle, MemOracle, NetOracle, Oracle};
use torpedo_prog::{deserialize, DirectedTarget, MutatePolicy, Program, SyscallDesc};

/// The known-vulnerable recreation seeds of §4.1 ("we begin by distilling a
/// handful seeds from C programs that recreate the vulnerabilities
/// described in \[21\]"), plus the socket probe that leads to the new
/// finding.
pub const VULNERABILITY_SEEDS: &[(&str, &str)] = &[
    ("sync", "sync()\n"),
    (
        "fsync",
        "r0 = creat(&'workfile-0', 0x1a4)\nwrite(r0, 0x7f0000000000, 0x8000)\nfsync(r0)\n",
    ),
    ("rt_sigreturn", "rt_sigreturn()\n"),
    ("rseq", "rseq(0x7f0000000001, 0x20, 0x3, 0x0)\n"),
    (
        "fallocate",
        "setrlimit(0x1, 0x1000)\nr1 = creat(&'workfile-0', 0x1a4)\nfallocate(r1, 0x0, 0x0, 0x100000)\n",
    ),
    (
        "ftruncate",
        "setrlimit(0x1, 0x1000)\nr1 = creat(&'workfile-0', 0x1a4)\nftruncate(r1, 0x100000)\n",
    ),
    ("socket", "socket(0x9, 0x3, 0x0)\n"),
    ("socket-proto", "socket(0x2, 0x1, 0x63)\n"),
];

/// Parse one fixture seed.
pub fn seed_program(text: &str, table: &[SyscallDesc]) -> Program {
    deserialize(text, table).expect("fixture parses")
}

/// The benign corpus the directed-vs-undirected comparison starts from:
/// nothing here touches a deferral channel, so the campaign has to *mutate
/// its way* to the target family — exactly the search directed mode is
/// supposed to shorten.
pub const DIRECTED_BENIGN_SEEDS: &[&str] = &[
    "getpid()\nuname(0x0)\n",
    "getuid()\ngetpid()\n",
    // An *available*-family socket is benign — no modprobe, no transmit —
    // but gives mutation a SockFd to wire resource arguments against.
    "r0 = socket(0x2, 0x1, 0x0)\ngetpid()\n",
    "stat(&'/etc/passwd', 0x0)\ngetpid()\n",
    "uname(0x0)\ngetuid()\n",
];

/// One runC family of the directed comparison: the channel target the
/// directed campaign steers toward, plus the observer/oracle shape the
/// family needs (the writeback family only exists relative to a
/// `memory.max`).
pub struct DirectedFamily {
    /// Family name (Table 4.2 vocabulary).
    pub name: &'static str,
    /// The rendered [`DirectedTarget`] for the directed arm.
    pub target: &'static str,
    /// `memory.max` for the fuzzing containers, when the family needs one.
    pub memory_bytes: Option<u64>,
}

/// The runC families the directed comparison covers: the classic Table 4.2
/// channels plus the two new OOB families.
pub const DIRECTED_FAMILIES: &[DirectedFamily] = &[
    DirectedFamily {
        name: "modprobe",
        target: "channel:modprobe",
        memory_bytes: None,
    },
    DirectedFamily {
        name: "io-flush",
        target: "channel:io-flush",
        memory_bytes: None,
    },
    DirectedFamily {
        name: "coredump",
        target: "channel:coredump",
        memory_bytes: None,
    },
    DirectedFamily {
        name: "writeback",
        target: "channel:writeback",
        memory_bytes: Some(32 << 20),
    },
    DirectedFamily {
        name: "net-softirq",
        target: "channel:net-softirq",
        memory_bytes: None,
    },
];

/// The oracle that flags `family` (CPU for the classic channels, memory
/// and net for the new ones).
pub fn directed_family_oracle(family: &str) -> Box<dyn Oracle> {
    match family {
        "writeback" => Box::new(MemOracle::new()),
        "net-softirq" => Box::new(NetOracle::new()),
        _ => Box::new(CpuOracle::new()),
    }
}

/// The campaign config of one comparison arm. Both arms share everything —
/// seed included, so they draw the same RNG stream — except the `directed`
/// target.
pub fn directed_bench_config(
    directed: Option<DirectedTarget>,
    memory_bytes: Option<u64>,
) -> CampaignConfig {
    CampaignConfig {
        observer: ObserverConfig {
            window: Usecs::from_secs(1),
            executors: 1,
            runtime: "runc".to_string(),
            memory_bytes_per_container: memory_bytes,
            ..ObserverConfig::default()
        },
        mutate: MutatePolicy {
            denylist: default_denylist(),
            ..MutatePolicy::default()
        },
        seed: 0xD1_C7ED,
        max_rounds_per_batch: 16,
        directed,
        ..CampaignConfig::default()
    }
}

/// Executions-to-first-flag summary of one comparison arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectedRun {
    /// Whether the campaign flagged at all.
    pub flagged: bool,
    /// Executions up to and including the first flagged round (the whole
    /// campaign when nothing flagged — the worst case the comparison
    /// counts).
    pub executions_to_first_flag: u64,
    /// Total rounds executed.
    pub rounds: u64,
    /// Total executions.
    pub executions_total: u64,
}

/// Fold a campaign report into the executions-to-first-flag metric.
pub fn execs_to_first_flag(report: &CampaignReport) -> DirectedRun {
    let first_flag_round = report.flagged.iter().map(|f| f.round).min();
    let mut executions = 0u64;
    let mut to_first_flag = None;
    for log in &report.logs {
        executions += log.executions;
        if Some(log.round) == first_flag_round && to_first_flag.is_none() {
            to_first_flag = Some(executions);
        }
    }
    DirectedRun {
        flagged: first_flag_round.is_some(),
        executions_to_first_flag: to_first_flag.unwrap_or(executions),
        rounds: report.rounds_total,
        executions_total: executions,
    }
}

/// Run one arm of the comparison for `family`: directed at the family's
/// channel, or undirected with the identical config and seed. The campaign
/// is deterministic, so the returned figures are exact, not wall-clock
/// noise.
pub fn run_directed_family(family: &DirectedFamily, directed: bool) -> DirectedRun {
    let table = torpedo_prog::build_table();
    let target =
        directed.then(|| DirectedTarget::parse(family.target).expect("family target parses"));
    let config = directed_bench_config(target, family.memory_bytes);
    let seeds = SeedCorpus::load(DIRECTED_BENIGN_SEEDS, &table, &default_denylist())
        .expect("benign seeds parse");
    let oracle = directed_family_oracle(family.name);
    let report = Campaign::new(config, table)
        .run(&seeds, oracle.as_ref())
        .expect("directed bench campaign");
    execs_to_first_flag(&report)
}

/// Benign tenant seeds diluting the Table 4.2 vulnerability families in a
/// scheduling fleet: programs the CPU oracle has no reason to flag, so
/// round-robin wastes budget on them while the bandit walks away.
const FLEET_BENIGN_SEEDS: &[&str] = &[
    "getpid()\nuname(0x0)\n",
    "stat(&'/etc/passwd', 0x0)\n",
    "getuid()\ngetpid()\n",
];

/// Tenant `i` of a scheduling fleet in which every `adversarial_every`-th
/// tenant seeds from a Table 4.2 vulnerability family and the rest are
/// benign. Each tenant is as small as a campaign can usefully be
/// (1-second windows, one executor, 8-round batches): the fleet measures
/// scheduling, not per-campaign fuzzing throughput.
fn schedule_fleet_spec(
    i: usize,
    adversarial_every: usize,
    table: &Arc<[SyscallDesc]>,
) -> FleetSpec {
    let adversarial = i.is_multiple_of(adversarial_every);
    // Adversarial tenants start at the socket families (index 6 in
    // `VULNERABILITY_SEEDS`) — the strongest CPU-oracle signal — then
    // rotate through the rest of Table 4.2.
    let (family, text) = if adversarial {
        VULNERABILITY_SEEDS[(6 + i / adversarial_every) % VULNERABILITY_SEEDS.len()]
    } else {
        ("benign", FLEET_BENIGN_SEEDS[i % FLEET_BENIGN_SEEDS.len()])
    };
    // Eight seed batches per tenant (one executor → one program per batch)
    // so a tenant lives for several fleet windows instead of finishing
    // inside its first one; an adversarial tenant keeps flagging across
    // its whole life, which is the signal the bandit feeds on.
    let texts: Vec<&str> = (0..8)
        .map(|k| {
            if adversarial {
                text
            } else {
                FLEET_BENIGN_SEEDS[(i + k) % FLEET_BENIGN_SEEDS.len()]
            }
        })
        .collect();
    let config = CampaignConfig {
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
        seed: 0xF1EE_7000 + i as u64,
        max_rounds_per_batch: 8,
        ..CampaignConfig::default()
    };
    FleetSpec {
        name: format!("{family}-{i}"),
        config,
        table: Arc::clone(table),
        seeds: SeedCorpus::load(&texts, table, &default_denylist()).expect("fleet seeds parse"),
        oracle: Arc::new(CpuOracle::new()),
    }
}

/// Run a scheduling fleet of `campaigns` tenants, every
/// `adversarial_every`-th seeded from a Table 4.2 vulnerability family and
/// the rest benign.
pub fn run_schedule_fleet(
    config: FleetConfig,
    campaigns: usize,
    adversarial_every: usize,
    table: &Arc<[SyscallDesc]>,
) -> FleetOutcome {
    let mut fleet = Fleet::new(config);
    for i in 0..campaigns {
        fleet.admit(schedule_fleet_spec(i, adversarial_every, table));
    }
    fleet.run().expect("scheduling fleet run")
}

/// Confirm a program on a runtime with the standard 2-second window.
pub fn confirm_on(program: &Program, table: &[SyscallDesc], runtime: &str) -> Confirmation {
    confirm(
        program,
        table,
        KernelConfig::default(),
        runtime,
        Usecs::from_secs(2),
    )
}

/// Derive the Table 4.2 "Symptoms" text for a minimized program by probing
/// its behaviour once against a fresh kernel.
pub fn derive_symptoms(program: &Program, table: &[SyscallDesc]) -> String {
    use torpedo_runtime::engine::Engine;
    use torpedo_runtime::spec::ContainerSpec;

    let mut kernel = torpedo_kernel::Kernel::with_defaults();
    let mut engine = Engine::new(&mut kernel);
    let id = engine
        .create(
            &mut kernel,
            ContainerSpec::new("probe").cpuset_cpus(&[0]).cpus(1.0),
        )
        .expect("probe container");
    kernel.begin_round(Usecs::from_secs(1));

    let mut symptoms: Vec<String> = Vec::new();
    let mut retvals: Vec<i64> = Vec::new();
    let mut req_paths: Vec<(usize, &str)> = Vec::new();
    for call in &program.calls {
        let desc = &table[call.desc];
        let mut args = [0u64; 6];
        req_paths.clear();
        for (i, a) in call.args.iter().take(6).enumerate() {
            match a {
                torpedo_prog::ArgValue::Int(v) => args[i] = *v,
                torpedo_prog::ArgValue::Ref(t) => {
                    let rv = retvals.get(*t).copied().unwrap_or(-1);
                    args[i] = if rv >= 0 { rv as u64 } else { u64::MAX };
                }
                torpedo_prog::ArgValue::Path(p) | torpedo_prog::ArgValue::Name(p) => {
                    args[i] = 0x7f00_0000_0000;
                    req_paths.push((i, p.as_str()));
                }
            }
        }
        let mut req = torpedo_kernel::SyscallRequest::with_nr(desc.name, desc.nr, args);
        for (i, p) in &req_paths {
            req = req.with_path(*i, p);
        }
        let exec = engine.exec(&mut kernel, &id, req).expect("probe exec");
        retvals.push(exec.outcome.retval);
        if let Some(sig) = exec.outcome.fatal_signal {
            let trigger = match desc.name {
                "rt_sigreturn" => "any usage",
                "rseq" => "invalid arguments",
                "fallocate" | "ftruncate" | "truncate" | "write" => "argument exceeds max",
                _ => "fatal signal",
            };
            symptoms.push(format!("{trigger} ({sig})"));
            break;
        }
        if let Some(errno) = exec.outcome.errno {
            if matches!(
                errno,
                torpedo_kernel::Errno::EAFNOSUPPORT
                    | torpedo_kernel::Errno::ESOCKTNOSUPPORT
                    | torpedo_kernel::Errno::EPROTONOSUPPORT
            ) {
                symptoms.push(format!("errno {}", errno.as_raw()));
            }
        }
        if matches!(desc.name, "sync" | "syncfs" | "fsync" | "fdatasync") {
            symptoms.push("any usage".to_string());
        }
    }
    if symptoms.is_empty() {
        symptoms.push("resource anomaly".to_string());
    }
    symptoms.dedup();
    symptoms.join("; ")
}

/// Render one Markdown-ish table row.
pub fn row(cols: &[&str], widths: &[usize]) -> String {
    let mut out = String::new();
    for (col, width) in cols.iter().zip(widths) {
        out.push_str(&format!("{col:<width$}  ", width = width));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_prog::build_table;

    #[test]
    fn vulnerability_seeds_parse() {
        let table = build_table();
        for (name, text) in VULNERABILITY_SEEDS {
            let prog = seed_program(text, &table);
            prog.validate(&table)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn symptoms_match_table_4_2_vocabulary() {
        let table = build_table();
        let cases = [
            ("sync()\n", "any usage"),
            ("rt_sigreturn()\n", "any usage"),
            (
                "rseq(0x7f0000000001, 0x20, 0x3, 0x0)\n",
                "invalid arguments",
            ),
            ("socket(0x9, 0x3, 0x0)\n", "errno 97"),
            ("socket(0x2, 0x1, 0x63)\n", "errno 93"),
            ("socket(0x2, 0x0, 0x0)\n", "errno 94"),
        ];
        for (text, expected) in cases {
            let prog = seed_program(text, &table);
            let symptoms = derive_symptoms(&prog, &table);
            assert!(
                symptoms.contains(expected),
                "{text:?}: got {symptoms:?}, wanted {expected:?}"
            );
        }
    }

    #[test]
    fn fallocate_symptom_is_sigxfsz() {
        let table = build_table();
        let prog = seed_program(VULNERABILITY_SEEDS[4].1, &table);
        let symptoms = derive_symptoms(&prog, &table);
        assert!(symptoms.contains("argument exceeds max"), "{symptoms}");
        assert!(symptoms.contains("SIGXFSZ"), "{symptoms}");
    }
}
