//! Directed fuzzing support: static distance-to-target over the syscall
//! description table.
//!
//! G-Fuzz-style directed greybox fuzzing needs a cheap, deterministic
//! estimate of "how far" a candidate syscall is from the behaviour the
//! campaign is hunting. The table gives us a natural interaction graph —
//! two descriptions are adjacent when they share an [`InterfaceGroup`]
//! or one produces a resource the other consumes — and the simulated
//! kernel's deferral channels give us target sets: the syscalls whose
//! semantics can trigger each channel. A single BFS from the target set
//! yields per-syscall hop counts, which [`DistanceMap::multiplier`] folds
//! into the §2.6.1 bias weights.
//!
//! Everything here is computed once per campaign from static data: no RNG,
//! no kernel state, so directed campaigns keep the two-u64 determinism
//! contract (the map is a pure function of the rendered config).

use crate::desc::{ArgType, SyscallDesc};

/// What a directed campaign steers toward.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DirectedTarget {
    /// A single syscall by table name (e.g. `"socket"`).
    Syscall(String),
    /// A deferral channel by wire name (see [`CHANNEL_TRIGGERS`]); the
    /// target set is every syscall whose semantics can trigger it.
    Channel(String),
}

impl DirectedTarget {
    /// Parse the rendered form: `syscall:<name>` or `channel:<name>`.
    pub fn parse(text: &str) -> Option<DirectedTarget> {
        let (kind, name) = text.split_once(':')?;
        if name.is_empty() {
            return None;
        }
        match kind {
            "syscall" => Some(DirectedTarget::Syscall(name.to_string())),
            "channel" => Some(DirectedTarget::Channel(name.to_string())),
            _ => None,
        }
    }

    /// Stable rendering, inverse of [`DirectedTarget::parse`]. Used by the
    /// campaign-config fingerprint, so it must stay byte-stable.
    pub fn render(&self) -> String {
        match self {
            DirectedTarget::Syscall(name) => format!("syscall:{name}"),
            DirectedTarget::Channel(name) => format!("channel:{name}"),
        }
    }
}

/// Deferral-channel wire names mapped to the syscalls that can trigger
/// them. This is a documented mirror of the simulated kernel's semantics
/// (`torpedo-kernel`'s syscall modules), kept here so the prog layer does
/// not need kernel state to compute distances:
///
/// - `io-flush`: kworker writeback flush from sync-family calls.
/// - `coredump`: usermodehelper core_pattern exec from fatal signals.
/// - `modprobe`: usermodehelper module requests for missing socket
///   families/protocols.
/// - `audit`: kauditd/journald processing of audit netlink records.
/// - `softirq`: inline rx/tx completion work on the interrupted core.
/// - `net-softirq`: `ksoftirqd` amplification once transmits exceed the
///   NAPI budget.
/// - `writeback`: dirty-page flush + kswapd reclaim under memory-cgroup
///   pressure.
/// - `tty-flush`: framework console overhead; no program syscall triggers
///   it, so targeting it leaves every distance unreachable (multiplier 1).
pub const CHANNEL_TRIGGERS: &[(&str, &[&str])] = &[
    ("io-flush", &["sync", "fsync", "fdatasync", "msync"]),
    (
        "coredump",
        &["rt_sigreturn", "rseq", "fallocate", "ftruncate"],
    ),
    ("modprobe", &["socket"]),
    ("audit", &["sendto"]),
    ("softirq", &["sendto"]),
    ("net-softirq", &["sendto"]),
    ("writeback", &["mmap", "mlock"]),
    ("tty-flush", &[]),
];

/// The syscall names that can trigger `channel`, or `None` for an unknown
/// channel name.
pub fn channel_triggers(channel: &str) -> Option<&'static [&'static str]> {
    CHANNEL_TRIGGERS
        .iter()
        .find(|(name, _)| *name == channel)
        .map(|(_, triggers)| *triggers)
}

/// Per-syscall hop counts to a [`DirectedTarget`], plus the bias
/// multiplier derived from them.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMap {
    distances: Vec<Option<u32>>,
}

impl DistanceMap {
    /// Distance decay base: each hop away from the target halves the
    /// bonus, so `multiplier = 1 + BOOST * 0.5^d`.
    pub const BOOST: f64 = 8.0;

    /// BFS from the target set over the table's interaction graph
    /// (shared interface group, or producer/consumer resource edge).
    /// Unknown syscall or channel names yield an all-unreachable map —
    /// directed mode degrades to undirected rather than erroring.
    pub fn build(table: &[SyscallDesc], target: &DirectedTarget) -> DistanceMap {
        let seeds: Vec<usize> = match target {
            DirectedTarget::Syscall(name) => table
                .iter()
                .enumerate()
                .filter(|(_, d)| d.name == name.as_str())
                .map(|(i, _)| i)
                .collect(),
            DirectedTarget::Channel(name) => {
                let triggers = channel_triggers(name).unwrap_or(&[]);
                table
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| triggers.contains(&d.name))
                    .map(|(i, _)| i)
                    .collect()
            }
        };
        let mut distances: Vec<Option<u32>> = vec![None; table.len()];
        let mut frontier = seeds;
        for seed in &frontier {
            distances[*seed] = Some(0);
        }
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &at in &frontier {
                for (i, dist) in distances.iter_mut().enumerate() {
                    if dist.is_none() && adjacent(&table[at], &table[i]) {
                        *dist = Some(depth);
                        next.push(i);
                    }
                }
            }
            frontier = next;
        }
        DistanceMap { distances }
    }

    /// Hop count from syscall `idx` to the target set (`Some(0)` for the
    /// targets themselves, `None` when unreachable).
    pub fn distance(&self, idx: usize) -> Option<u32> {
        self.distances.get(idx).copied().flatten()
    }

    /// The bias-weight multiplier for syscall `idx`: `1 + 8·0.5^d`, or
    /// exactly `1.0` when the target is unreachable from `idx` (directed
    /// mode never *suppresses* a syscall, it only amplifies the on-path
    /// ones — coverage feedback still works).
    pub fn multiplier(&self, idx: usize) -> f64 {
        match self.distance(idx) {
            Some(d) => 1.0 + Self::BOOST * 0.5f64.powi(d.min(64) as i32),
            None => 1.0,
        }
    }

    /// How many syscalls have a finite distance.
    pub fn reachable(&self) -> usize {
        self.distances.iter().flatten().count()
    }
}

/// Graph adjacency: shared interface group, or a resource produced by one
/// side that a `Res` argument of the other side accepts.
fn adjacent(a: &SyscallDesc, b: &SyscallDesc) -> bool {
    if a.group == b.group {
        return true;
    }
    consumes_of(a, b) || consumes_of(b, a)
}

/// Whether `consumer` has a resource argument accepting what `producer`
/// produces.
fn consumes_of(consumer: &SyscallDesc, producer: &SyscallDesc) -> bool {
    let Some(produced) = producer.produces else {
        return false;
    };
    consumer
        .args
        .iter()
        .any(|spec| matches!(spec.ty, ArgType::Res(wanted) if wanted.accepts(produced)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{build_table, find};

    #[test]
    fn target_syscall_is_distance_zero() {
        let table = build_table();
        let map = DistanceMap::build(&table, &DirectedTarget::Syscall("socket".into()));
        let socket = find(&table, "socket").unwrap();
        assert_eq!(map.distance(socket), Some(0));
        assert!(map.multiplier(socket) > 8.9);
    }

    #[test]
    fn distance_decays_with_hops() {
        let table = build_table();
        let map = DistanceMap::build(&table, &DirectedTarget::Syscall("socket".into()));
        let sendto = find(&table, "sendto").unwrap();
        let getpid = find(&table, "getpid").unwrap();
        // sendto shares the Net group with socket: one hop.
        assert_eq!(map.distance(sendto), Some(1));
        assert!(map.multiplier(sendto) > map.multiplier(getpid));
        assert!(map.multiplier(getpid) >= 1.0);
    }

    #[test]
    fn channel_targets_seed_their_trigger_family() {
        let table = build_table();
        let map = DistanceMap::build(&table, &DirectedTarget::Channel("writeback".into()));
        assert_eq!(map.distance(find(&table, "mmap").unwrap()), Some(0));
        assert_eq!(map.distance(find(&table, "mlock").unwrap()), Some(0));
        // munmap shares the Memory group: one hop.
        assert_eq!(map.distance(find(&table, "munmap").unwrap()), Some(1));

        let net = DistanceMap::build(&table, &DirectedTarget::Channel("net-softirq".into()));
        assert_eq!(net.distance(find(&table, "sendto").unwrap()), Some(0));
        assert_eq!(net.distance(find(&table, "socket").unwrap()), Some(1));
    }

    #[test]
    fn unknown_targets_degrade_to_undirected() {
        let table = build_table();
        for target in [
            DirectedTarget::Syscall("no_such_call".into()),
            DirectedTarget::Channel("no-such-channel".into()),
            DirectedTarget::Channel("tty-flush".into()),
        ] {
            let map = DistanceMap::build(&table, &target);
            assert_eq!(map.reachable(), 0);
            for i in 0..table.len() {
                assert_eq!(map.multiplier(i), 1.0);
            }
        }
    }

    #[test]
    fn render_parse_round_trips() {
        for text in ["syscall:mmap", "channel:net-softirq", "channel:writeback"] {
            let target = DirectedTarget::parse(text).unwrap();
            assert_eq!(target.render(), text);
        }
        assert_eq!(DirectedTarget::parse("nonsense"), None);
        assert_eq!(DirectedTarget::parse("syscall:"), None);
        assert_eq!(DirectedTarget::parse("oracle:io"), None);
    }

    #[test]
    fn every_kernel_channel_has_a_trigger_entry() {
        // The trigger table mirrors the kernel's channel set; keep the
        // names in sync with `torpedo_kernel::DeferralChannel`.
        let names: Vec<&str> = CHANNEL_TRIGGERS.iter().map(|(n, _)| *n).collect();
        for expected in [
            "io-flush",
            "coredump",
            "modprobe",
            "audit",
            "softirq",
            "net-softirq",
            "writeback",
            "tty-flush",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
        // Every trigger name resolves in the table.
        let table = build_table();
        for (channel, triggers) in CHANNEL_TRIGGERS {
            for name in *triggers {
                assert!(
                    find(&table, name).is_some(),
                    "{channel} trigger {name} not in the table"
                );
            }
        }
    }
}
