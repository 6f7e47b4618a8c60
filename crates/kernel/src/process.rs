//! The simulated process table.
//!
//! TORPEDO's per-process feedback (§3.4) needs to distinguish the kinds of
//! processes the paper's `top(1)` filter selects: `docker` components,
//! `kworker` threads, `kauditd`, `systemd-journal`, miscellaneous kernel
//! threads, and the fuzzing executors themselves. Short-lived helper
//! processes (e.g. `modprobe` storms) are modelled too — and, exactly as the
//! paper observes, `top` cannot attribute their usage, while the per-core
//! `/proc/stat` counters still see it.

use crate::cgroup::CgroupId;
use crate::time::Usecs;
use crate::IdMap;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Kernel-thread flavours relevant to work deferral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KthreadKind {
    /// Generic deferred-work worker (`kworker/uN:M`).
    Kworker,
    /// Per-core soft-IRQ thread (`ksoftirqd/N`).
    Ksoftirqd,
    /// The kernel thread daemon all kthreads fork from.
    Kthreadd,
}

/// Long-lived userspace daemons tracked by the paper's top filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DaemonKind {
    /// The Docker engine daemon.
    Dockerd,
    /// containerd, managing container objects.
    Containerd,
    /// Per-container shim keeping I/O pipes alive.
    ContainerdShim,
    /// Kernel-side audit daemon.
    Kauditd,
    /// Userspace audit daemon.
    Auditd,
    /// systemd journal daemon.
    Journald,
    /// Periodic cron noise.
    Cron,
    /// The gVisor sentry (one per sandboxed container).
    GvisorSentry,
}

/// Short-lived helper processes spawned by the kernel (usermodehelper API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperKind {
    /// `modprobe`, re-exec'd for every unsatisfiable module request.
    Modprobe,
    /// The registered coredump pipe helper.
    CoreDumpHelper,
}

/// What kind of process this is; drives cgroup placement and top visibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessKind {
    /// A fuzzing executor running inside a container.
    Executor {
        /// Name of the owning container.
        container: String,
    },
    /// A kernel thread (always in the root cgroup).
    KernelThread(KthreadKind),
    /// A long-lived system daemon.
    Daemon(DaemonKind),
    /// A short-lived usermodehelper child.
    Helper(HelperKind),
    /// Background host noise (cron jobs, logging, stray network handling).
    Noise,
}

impl ProcessKind {
    /// Whether the paper's `top` wrapper can attribute CPU to this process:
    /// only long-lived processes survive between two frames.
    pub fn long_lived(&self) -> bool {
        !matches!(self, ProcessKind::Helper(_))
    }
}

/// Per-process resource limits (subset of `getrlimit(2)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rlimits {
    /// `RLIMIT_FSIZE`: maximum file size, bytes. Writes/fallocates beyond it
    /// deliver `SIGXFSZ` (the Table 4.2 `fallocate`/`ftruncate` vector).
    pub fsize: u64,
    /// `RLIMIT_NOFILE`: maximum number of open file descriptors.
    pub nofile: u32,
}

impl Default for Rlimits {
    fn default() -> Self {
        Rlimits {
            fsize: 1 << 30, // 1 GiB
            nofile: 1024,
        }
    }
}

/// One simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    name: String,
    kind: ProcessKind,
    cgroup: CgroupId,
    rlimits: Rlimits,
    alive: bool,
    /// CPU consumed by this process in the current accounting round.
    round_cpu: Usecs,
    /// Set when the process was spawned mid-round (top cannot see it).
    born_this_round: bool,
    /// Count of times this process has been killed and restarted this round.
    restarts: u32,
}

impl Process {
    /// Process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Display name (e.g. `"kworker/u24:3"`, `"syz-executor-1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process kind.
    pub fn kind(&self) -> &ProcessKind {
        &self.kind
    }

    /// Owning cgroup.
    pub fn cgroup(&self) -> CgroupId {
        self.cgroup
    }

    /// Resource limits.
    pub fn rlimits(&self) -> Rlimits {
        self.rlimits
    }

    /// Mutable resource limits (for `setrlimit(2)`).
    pub fn rlimits_mut(&mut self) -> &mut Rlimits {
        &mut self.rlimits
    }

    /// Whether the process is currently alive.
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// CPU consumed this round.
    pub fn round_cpu(&self) -> Usecs {
        self.round_cpu
    }

    /// Whether the process was spawned during the current round.
    pub fn born_this_round(&self) -> bool {
        self.born_this_round
    }

    /// Times this process died and was restarted this round (fatal signals).
    pub fn restarts(&self) -> u32 {
        self.restarts
    }
}

/// The process table.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    procs: IdMap<Pid, Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// Where the pid counter restarts after a wrap: pids at or below it are
    /// only handed out before the first wrap, so the boot daemons' pids are
    /// never reused (Linux keeps the same floor, `RESERVED_PIDS`).
    const RESERVED_PIDS: u32 = 300;

    /// Create an empty table. PIDs start at 1 (`init` is implicit).
    pub fn new() -> ProcessTable {
        ProcessTable {
            procs: IdMap::default(),
            next_pid: 1,
        }
    }

    /// Spawn a process into `cgroup`.
    ///
    /// Pids count up. Past `u32::MAX` the counter wraps to just above
    /// `RESERVED_PIDS` (300), and a pid still in the table is skipped, so
    /// a spawn never replaces a live entry.
    pub fn spawn(&mut self, name: &str, kind: ProcessKind, cgroup: CgroupId) -> Pid {
        let pid = self.alloc_pid();
        self.procs.insert(
            pid,
            Process {
                pid,
                name: name.to_string(),
                kind,
                cgroup,
                rlimits: Rlimits::default(),
                alive: true,
                round_cpu: Usecs::ZERO,
                born_this_round: true,
                restarts: 0,
            },
        );
        pid
    }

    /// The next pid not in the table.
    fn alloc_pid(&mut self) -> Pid {
        loop {
            let pid = Pid(self.next_pid);
            self.next_pid = match self.next_pid.checked_add(1) {
                Some(next) => next,
                None => Self::RESERVED_PIDS + 1,
            };
            if !self.procs.contains_key(&pid) {
                return pid;
            }
        }
    }

    /// Mark a process dead. Unknown pids are ignored.
    pub fn exit(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.alive = false;
        }
    }

    /// Revive a process after a fatal signal (the executor loop restarts the
    /// workload, as SYZKALLER's executor does). Increments the restart count.
    pub fn restart(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.alive = true;
            p.restarts += 1;
        }
    }

    /// Look up a process.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// Charge CPU to a process for the current round.
    pub fn charge_cpu(&mut self, pid: Pid, amount: Usecs) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.round_cpu += amount;
        }
    }

    /// Iterate over all processes (alive and dead) in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        let mut v: Vec<&Process> = self.procs.values().collect();
        v.sort_by_key(|p| p.pid);
        v.into_iter()
    }

    /// Number of processes ever spawned and still in the table.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Begin a new accounting round: zero per-round CPU, clear the
    /// born-this-round marker on survivors, and reap dead short-lived
    /// helpers so the table does not grow without bound.
    pub fn begin_round(&mut self) {
        self.procs.retain(|_, p| p.alive || p.kind.long_lived());
        for p in self.procs.values_mut() {
            p.round_cpu = Usecs::ZERO;
            p.born_this_round = false;
            p.restarts = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupTree;

    #[test]
    fn spawn_assigns_monotonic_pids() {
        let mut t = ProcessTable::new();
        let a = t.spawn("a", ProcessKind::Noise, CgroupTree::ROOT);
        let b = t.spawn("b", ProcessKind::Noise, CgroupTree::ROOT);
        assert!(b > a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn helpers_are_short_lived_for_top() {
        assert!(!ProcessKind::Helper(HelperKind::Modprobe).long_lived());
        assert!(ProcessKind::Daemon(DaemonKind::Kauditd).long_lived());
        assert!(ProcessKind::KernelThread(KthreadKind::Kworker).long_lived());
        assert!(ProcessKind::Executor {
            container: "c".into()
        }
        .long_lived());
    }

    #[test]
    fn charge_and_round_reset() {
        let mut t = ProcessTable::new();
        let pid = t.spawn("x", ProcessKind::Noise, CgroupTree::ROOT);
        t.charge_cpu(pid, Usecs(500));
        assert_eq!(t.get(pid).unwrap().round_cpu(), Usecs(500));
        t.begin_round();
        assert_eq!(t.get(pid).unwrap().round_cpu(), Usecs::ZERO);
        assert!(!t.get(pid).unwrap().born_this_round());
    }

    #[test]
    fn begin_round_reaps_dead_helpers() {
        let mut t = ProcessTable::new();
        let helper = t.spawn(
            "modprobe",
            ProcessKind::Helper(HelperKind::Modprobe),
            CgroupTree::ROOT,
        );
        let daemon = t.spawn(
            "kauditd",
            ProcessKind::Daemon(DaemonKind::Kauditd),
            CgroupTree::ROOT,
        );
        t.exit(helper);
        t.exit(daemon);
        t.begin_round();
        assert!(t.get(helper).is_none(), "dead helper reaped");
        assert!(t.get(daemon).is_some(), "dead daemon retained");
    }

    #[test]
    fn restart_revives_and_counts() {
        let mut t = ProcessTable::new();
        let pid = t.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            CgroupTree::ROOT,
        );
        t.exit(pid);
        assert!(!t.get(pid).unwrap().alive());
        t.restart(pid);
        let p = t.get(pid).unwrap();
        assert!(p.alive());
        assert_eq!(p.restarts(), 1);
    }

    #[test]
    fn rlimits_default_and_mutable() {
        let mut t = ProcessTable::new();
        let pid = t.spawn("x", ProcessKind::Noise, CgroupTree::ROOT);
        assert_eq!(t.get(pid).unwrap().rlimits().fsize, 1 << 30);
        t.get_mut(pid).unwrap().rlimits_mut().fsize = 4096;
        assert_eq!(t.get(pid).unwrap().rlimits().fsize, 4096);
    }

    #[test]
    fn pid_wrap_replaces_no_live_entry() {
        let mut t = ProcessTable::new();
        let boot: Vec<Pid> = (0..21)
            .map(|i| {
                t.spawn(
                    &format!("kthread-{i}"),
                    ProcessKind::KernelThread(KthreadKind::Kworker),
                    CgroupTree::ROOT,
                )
            })
            .collect();
        // An executor holding the first pid the counter wraps to.
        t.next_pid = ProcessTable::RESERVED_PIDS + 1;
        let executor = t.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            CgroupTree::ROOT,
        );
        let before: Vec<(Pid, String)> = t.iter().map(|p| (p.pid(), p.name().into())).collect();
        t.next_pid = u32::MAX - 2;
        let mut spawned = Vec::new();
        for round in 0..3 {
            for _ in 0..2 {
                let pid = t.spawn(
                    "modprobe",
                    ProcessKind::Helper(HelperKind::Modprobe),
                    CgroupTree::ROOT,
                );
                t.exit(pid);
                spawned.push(pid);
            }
            if round == 0 {
                // The dead helpers stay in the table until the round ends.
                t.begin_round();
            }
        }
        assert_eq!(
            spawned,
            [
                Pid(u32::MAX - 2),
                Pid(u32::MAX - 1),
                Pid(u32::MAX),
                Pid(ProcessTable::RESERVED_PIDS + 2),
                Pid(ProcessTable::RESERVED_PIDS + 3),
                Pid(ProcessTable::RESERVED_PIDS + 4),
            ]
        );
        for (pid, name) in &before {
            assert_eq!(t.get(*pid).map(Process::name), Some(name.as_str()));
        }
        assert_eq!(t.get(executor).unwrap().name(), "syz-executor-0");
        assert!(boot.iter().all(|&pid| pid.0 <= ProcessTable::RESERVED_PIDS));
    }

    #[test]
    fn iter_is_pid_ordered() {
        let mut t = ProcessTable::new();
        for i in 0..5 {
            t.spawn(&format!("p{i}"), ProcessKind::Noise, CgroupTree::ROOT);
        }
        let pids: Vec<u32> = t.iter().map(|p| p.pid().0).collect();
        let mut sorted = pids.clone();
        sorted.sort_unstable();
        assert_eq!(pids, sorted);
    }
}
