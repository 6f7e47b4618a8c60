//! The simulated kernel: the substrate TORPEDO fuzzes.
//!
//! [`Kernel`] owns the cgroup tree, process table, VFS, network state and —
//! during an observer round — the per-core CPU ledger. Syscall semantics
//! live in [`crate::syscalls`]; this module provides the accounting
//! machinery those handlers charge against, including the work-deferral
//! paths that let cost escape a container's cgroup (§2.4.3 of the paper).

use std::collections::HashSet;

use torpedo_rng::rngs::StdRng;
use torpedo_rng::{Rng, SeedableRng};
use torpedo_telemetry::wire::FnvBuildHasher;

use crate::cgroup::{CgroupId, CgroupTree};
use crate::cpu::{CpuCategory, CpuTimes};
use crate::deferral::{DeferralChannel, DeferralEvent, DeferralLedger};
use crate::net::NetState;
use crate::process::{DaemonKind, HelperKind, KthreadKind, Pid, ProcessKind, ProcessTable};
use crate::time::Usecs;
use crate::vfs::{FdTable, Vfs};
use crate::IdMap;

/// How coverage feedback is produced (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverageMode {
    /// SYZKALLER's fallback: a signal derived from the syscall number XOR'd
    /// with the error code. This is what the paper's evaluation uses on both
    /// runtimes, for parity with gVisor (which lacks kcov).
    #[default]
    Fallback,
    /// kcov-style path coverage from inside the (simulated) kernel — the
    /// §5.4 future-work configuration.
    Kcov,
}

/// Static configuration of the simulated host.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Number of CPU cores (the paper's testbed exposes 12).
    pub cores: usize,
    /// Seed for host background noise.
    pub noise_seed: u64,
    /// Mean fraction of each core consumed by background noise per round
    /// (cron jobs, network packets, logging — §3.4 "noise spikes").
    pub noise_fraction: f64,
    /// Coverage mode.
    pub coverage: CoverageMode,
    /// Mitigation: cache negative module-load results (§5.5 — the patched
    /// kernel). Off by default, reproducing the vulnerable mainline.
    pub modprobe_negative_cache: bool,
    /// Mitigation: charge usermodehelper children to the originating cgroup
    /// (the one-module patch the author implemented for CS5264).
    pub usermodehelper_patched: bool,
    /// Mitigation: IRON-style credit accounting (Khalid et al., NSDI'18,
    /// reviewed in §2.4.3): soft-IRQ work executed in a victim's context is
    /// attributed back to the originating cgroup, debiting its quota.
    pub iron_accounting: bool,
    /// Dirty page-cache bytes added by host activity at each round start —
    /// the data a `sync(2)` storm forces out (ensures sync has victims).
    pub host_dirty_bytes_per_round: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cores: 12,
            noise_seed: 0x7042_ED00,
            noise_fraction: 0.04,
            coverage: CoverageMode::Fallback,
            modprobe_negative_cache: false,
            usermodehelper_patched: false,
            iron_accounting: false,
            host_dirty_bytes_per_round: 8 << 20,
        }
    }
}

/// The window charges run against outside an observer round: long enough
/// that no core or cgroup budget fills, with headroom for sums.
pub(crate) const NO_ROUND_WINDOW: Usecs = Usecs(u64::MAX / 4);

/// Per-round CPU ledger: one [`CpuTimes`] per core plus the round window.
#[derive(Debug, Clone)]
pub struct RoundState {
    window: Usecs,
    per_core: Vec<CpuTimes>,
}

impl RoundState {
    /// The round window length.
    pub fn window(&self) -> Usecs {
        self.window
    }

    /// Busy time charged so far on `core`.
    pub fn busy(&self, core: usize) -> Usecs {
        self.per_core[core].busy()
    }

    /// Remaining busy capacity on `core`.
    pub fn remaining(&self, core: usize) -> Usecs {
        self.window.saturating_sub(self.per_core[core].busy())
    }
}

/// Well-known daemon processes spawned at boot.
#[derive(Debug, Clone)]
pub struct BootProcs {
    /// The Docker engine daemon.
    pub dockerd: Pid,
    /// containerd.
    pub containerd: Pid,
    /// kauditd kernel thread-like audit daemon.
    pub kauditd: Pid,
    /// systemd-journald.
    pub journald: Pid,
    /// The kernel thread daemon.
    pub kthreadd: Pid,
    /// A pool of kworker threads (root cgroup).
    pub kworkers: Vec<Pid>,
    /// Per-core ksoftirqd threads.
    pub ksoftirqd: Vec<Pid>,
}

/// The simulated kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Static configuration.
    pub config: KernelConfig,
    /// The cgroup hierarchy.
    pub cgroups: CgroupTree,
    /// The process table.
    pub procs: ProcessTable,
    /// The filesystem.
    pub vfs: Vfs,
    /// Network state.
    pub net: NetState,
    /// Well-known boot-time processes.
    pub boot: BootProcs,
    fd_tables: IdMap<Pid, FdTable>,
    ledger: DeferralLedger,
    round: Option<RoundState>,
    /// Recycled per-core buffer from the previous round, so
    /// [`Kernel::begin_round`] does not reallocate every round.
    round_scratch: Vec<CpuTimes>,
    cumulative: Vec<CpuTimes>,
    rng: StdRng,
    /// Pids that performed block I/O this round, with their cores: the
    /// victims a `sync(2)` makes wait.
    io_active: HashSet<(Pid, usize), FnvBuildHasher>,
    rounds_completed: u64,
    /// Cores reserved for container cpusets this round: deferred work and
    /// background daemons avoid them, as the host scheduler would.
    reserved_cores: Vec<usize>,
}

impl Kernel {
    /// Boot a kernel with the given configuration.
    pub fn new(config: KernelConfig) -> Kernel {
        let mut cgroups = CgroupTree::new();
        let mut procs = ProcessTable::new();
        // A dedicated system slice for daemons, mirroring systemd layout.
        let system_slice = cgroups
            .create(CgroupTree::ROOT, "system.slice", Default::default())
            .expect("root exists");
        let dockerd = procs.spawn(
            "dockerd",
            ProcessKind::Daemon(DaemonKind::Dockerd),
            system_slice,
        );
        let containerd = procs.spawn(
            "containerd",
            ProcessKind::Daemon(DaemonKind::Containerd),
            system_slice,
        );
        let kauditd = procs.spawn(
            "kauditd",
            ProcessKind::Daemon(DaemonKind::Kauditd),
            CgroupTree::ROOT,
        );
        let journald = procs.spawn(
            "systemd-journal",
            ProcessKind::Daemon(DaemonKind::Journald),
            system_slice,
        );
        let kthreadd = procs.spawn(
            "kthreadd",
            ProcessKind::KernelThread(KthreadKind::Kthreadd),
            CgroupTree::ROOT,
        );
        let kworkers = (0..4)
            .map(|i| {
                procs.spawn(
                    &format!("kworker/u{}:{}", config.cores * 2, i),
                    ProcessKind::KernelThread(KthreadKind::Kworker),
                    CgroupTree::ROOT,
                )
            })
            .collect();
        let ksoftirqd = (0..config.cores)
            .map(|i| {
                procs.spawn(
                    &format!("ksoftirqd/{i}"),
                    ProcessKind::KernelThread(KthreadKind::Ksoftirqd),
                    CgroupTree::ROOT,
                )
            })
            .collect();
        let mut net = NetState::new();
        net.negative_cache_enabled = config.modprobe_negative_cache;
        let cores = config.cores;
        let noise_seed = config.noise_seed;
        Kernel {
            config,
            cgroups,
            procs,
            vfs: Vfs::new(),
            net,
            boot: BootProcs {
                dockerd,
                containerd,
                kauditd,
                journald,
                kthreadd,
                kworkers,
                ksoftirqd,
            },
            fd_tables: IdMap::default(),
            ledger: DeferralLedger::new(),
            round: None,
            round_scratch: Vec::new(),
            cumulative: vec![CpuTimes::default(); cores],
            rng: StdRng::seed_from_u64(noise_seed),
            io_active: HashSet::default(),
            rounds_completed: 0,
            reserved_cores: Vec::new(),
        }
    }

    /// Boot with the default (paper-testbed-like) configuration.
    pub fn with_defaults() -> Kernel {
        Kernel::new(KernelConfig::default())
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// The active round, if any.
    pub fn round(&self) -> Option<&RoundState> {
        self.round.as_ref()
    }

    /// Rounds completed since boot.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// The per-process fd table, created on first use.
    pub fn fd_table(&mut self, pid: Pid) -> &mut FdTable {
        self.fd_tables.entry(pid).or_default()
    }

    /// Drop per-process state at process teardown.
    pub fn release_process_state(&mut self, pid: Pid) {
        self.fd_tables.remove(&pid);
    }

    /// Declare the cores reserved for container cpusets: deferred work and
    /// victim selection will avoid them (the scheduler steers kworkers and
    /// helpers away from saturated, pinned cores).
    pub fn set_reserved_cores(&mut self, cores: &[usize]) {
        self.reserved_cores = cores.to_vec();
    }

    /// Record that `pid` performed block I/O on `core` this round.
    pub(crate) fn note_io_activity(&mut self, pid: Pid, core: usize) {
        self.io_active.insert((pid, core));
    }

    // ------------------------------------------------------------------
    // Round lifecycle
    // ------------------------------------------------------------------

    /// Begin an observer round of length `window`.
    ///
    /// Resets per-window cgroup charges, per-round process CPU, the deferral
    /// ledger, and deposits the host's background dirty page-cache data.
    pub fn begin_round(&mut self, window: Usecs) {
        self.cgroups.reset_window();
        self.procs.begin_round();
        self.ledger.clear();
        self.io_active.clear();
        self.net.reset_window();
        self.vfs.dirty(self.config.host_dirty_bytes_per_round);
        self.open_round(window);
    }

    /// Open a zeroed round of length `window`, drawn from the recycled
    /// scratch buffer (allocation-free in steady state). The cgroup CPU
    /// budgets follow the round's window.
    fn open_round(&mut self, window: Usecs) {
        let mut per_core = std::mem::take(&mut self.round_scratch);
        per_core.clear();
        per_core.resize(self.config.cores, CpuTimes::default());
        self.cgroups.set_window(window);
        self.round = Some(RoundState { window, per_core });
    }

    /// Close the open round, if any: the cgroup CPU budgets go back to the
    /// window outside a round.
    fn take_round(&mut self) -> Option<RoundState> {
        let round = self.round.take()?;
        self.cgroups.set_window(NO_ROUND_WINDOW);
        Some(round)
    }

    /// Finish the round: add background noise, the framework's softirq
    /// side-effect, fill idle time, fold into the cumulative `/proc/stat`
    /// counters, and return the per-core deltas plus the deferral ledger.
    ///
    /// `fuzz_cores` are the cores hosting executor containers; the paper's
    /// observer logs show a persistent SOFTIRQ workload on the core
    /// immediately following the last fuzzing core (a side-effect of
    /// streaming output through Docker), which is reproduced here.
    pub fn finish_round(&mut self, fuzz_cores: &[usize]) -> RoundOutput {
        // The supervised recovery path can close a round that was never
        // opened (a worker died between rounds and the observer drains the
        // kernel before retrying); report an empty window instead of
        // panicking the recovery thread.
        let Some(mut round) = self.take_round() else {
            return RoundOutput {
                window: Usecs::ZERO,
                per_core: vec![CpuTimes::default(); self.config.cores],
                deferrals: self.ledger.drain(),
            };
        };
        let window = round.window;
        let cores = self.config.cores;

        // Background host noise on every core: a proportional floor plus
        // occasional absolute-duration spikes (cron jobs, logging bursts,
        // packet storms). Spikes do not scale with the window — their share
        // of a round shrinks as T grows, which is the §3.4 argument for
        // longer measurement intervals.
        for core in 0..cores {
            let f = self.config.noise_fraction;
            let jitter: f64 = self.rng.gen_range(0.4..1.6);
            let mut noise = window.scale(f * jitter * 0.8);
            if self.rng.gen_bool(0.08) {
                let spike_us = self.rng.gen_range(40_000.0..160_000.0) * (f / 0.04);
                noise = noise.saturating_add(Usecs(spike_us as u64));
            }
            let user = noise.scale(0.55);
            let system = noise.saturating_sub(user);
            let max = round.remaining(core);
            let user = user.min(max);
            round.per_core[core].charge(CpuCategory::User, user);
            let max = round.remaining(core);
            round.per_core[core].charge(CpuCategory::System, system.min(max));
            // Sporadic hard-IRQ slivers and stray disk waits.
            if self.rng.gen_bool(0.5) {
                let irq = window.scale(0.001).min(round.remaining(core));
                round.per_core[core].charge(CpuCategory::Irq, irq);
            }
            if self.rng.gen_bool(0.4) {
                let wait = window.scale(0.005).min(round.remaining(core));
                round.per_core[core].charge(CpuCategory::IoWait, wait);
            }
        }

        // Framework softirq side-effect on the core after the last fuzz core.
        if let Some(&max_fuzz) = fuzz_cores.iter().max() {
            let sidecar = (max_fuzz + 1) % cores;
            let amount = window
                .scale(0.035 * fuzz_cores.len() as f64)
                .min(round.remaining(sidecar));
            // Softirq time is not attributable to any process: `top` never
            // sees it (only /proc/stat does), exactly as on real hardware.
            round.per_core[sidecar].charge(CpuCategory::SoftIrq, amount);
        }

        // Idle = whatever capacity remains.
        for core in 0..cores {
            let idle = round.remaining(core);
            round.per_core[core].charge(CpuCategory::Idle, idle);
        }

        // Fold into cumulative /proc/stat counters.
        for core in 0..cores {
            self.cumulative[core] = self.cumulative[core].merged(&round.per_core[core]);
        }
        self.rounds_completed += 1;

        // Hand the caller its own copy of the per-core deltas and recycle
        // the round's buffer for the next begin_round.
        let per_core = round.per_core.clone();
        round.per_core.clear();
        self.round_scratch = round.per_core;

        RoundOutput {
            window,
            per_core,
            deferrals: self.ledger.drain(),
        }
    }

    /// Close the round on a secondary kernel partition and hand back its
    /// raw, pre-noise charge records: the per-core busy time accumulated by
    /// executors plus the drained deferral ledger, with no background noise,
    /// no idle fill, and no fold into the cumulative counters.
    ///
    /// This is one half of the partitioned-kernel merge protocol: every
    /// partition except the primary is drained with `take_round_raw` and its
    /// output replayed into the primary via [`Kernel::absorb_round_raw`]
    /// *before* the primary runs [`Kernel::finish_round`]. The noise RNG,
    /// `rounds_completed`, and the cumulative `/proc/stat` counters are
    /// untouched here, so only the primary ever consumes noise entropy and
    /// the merged output is byte-identical to a single shared kernel.
    pub fn take_round_raw(&mut self) -> RoundOutput {
        let Some(mut round) = self.take_round() else {
            return RoundOutput {
                window: Usecs::ZERO,
                per_core: vec![CpuTimes::default(); self.config.cores],
                deferrals: self.ledger.drain(),
            };
        };
        let window = round.window;
        let per_core = round.per_core.clone();
        round.per_core.clear();
        self.round_scratch = round.per_core;
        RoundOutput {
            window,
            per_core,
            deferrals: self.ledger.drain(),
        }
    }

    /// Replay another partition's raw round output (from
    /// [`Kernel::take_round_raw`]) into this kernel's open round.
    ///
    /// Per-core charges are applied category by category, clamped to this
    /// round's remaining capacity exactly like a live [`Kernel::charge`]
    /// call; `Idle` is skipped because raw rounds carry no idle fill and
    /// idle does not count against busy capacity. Deferral events are
    /// appended to the ledger in their recorded order, so merging partitions
    /// in stable shard-index order yields a canonical ledger. Process and
    /// cgroup accounting stay in the donor partition (its `top` sample and
    /// container info are read there); the RNG, `rounds_completed`, and the
    /// cumulative counters are untouched.
    pub fn absorb_round_raw(&mut self, raw: RoundOutput) {
        if self.round.is_none() {
            self.open_round(raw.window);
        }
        let Some(round) = self.round.as_mut() else {
            return;
        };
        let cores = self.config.cores.min(raw.per_core.len());
        for (core, times) in raw.per_core.iter().enumerate().take(cores) {
            for cat in CpuCategory::ALL {
                if cat == CpuCategory::Idle {
                    continue;
                }
                let amount = times.get(cat);
                if amount == Usecs::ZERO {
                    continue;
                }
                let applied = amount.min(round.remaining(core));
                round.per_core[core].charge(cat, applied);
            }
        }
        for event in raw.deferrals {
            self.ledger.record(event);
        }
    }

    /// Cumulative `/proc/stat`-style counters since boot.
    pub fn proc_stat(&self) -> &[CpuTimes] {
        &self.cumulative
    }

    // ------------------------------------------------------------------
    // Charging
    // ------------------------------------------------------------------

    /// Charge on-CPU time on `core` in `cat`, attributing it to `pid` and
    /// `cgroup`. The charge is clamped to the core's remaining capacity;
    /// the actually-applied amount is returned.
    pub fn charge(
        &mut self,
        core: usize,
        cat: CpuCategory,
        amount: Usecs,
        pid: Pid,
        cgroup: CgroupId,
    ) -> Usecs {
        let applied = self.charge_core(core, cat, amount);
        self.procs.charge_cpu(pid, applied);
        self.cgroups.charge_cpu(cgroup, applied);
        applied
    }

    /// Charge `user` then `system` time on `core` to `pid` and `cgroup`:
    /// the same as two [`Kernel::charge`] calls, each clamped to the
    /// core's remaining capacity, but the process and the cgroup are each
    /// looked up once. Returns the applied `(user, system)`.
    pub fn charge_user_system(
        &mut self,
        core: usize,
        user: Usecs,
        system: Usecs,
        pid: Pid,
        cgroup: CgroupId,
    ) -> (Usecs, Usecs) {
        let user = self.charge_core(core, CpuCategory::User, user);
        let system = self.charge_core(core, CpuCategory::System, system);
        self.procs.charge_cpu(pid, user + system);
        self.cgroups.charge_cpu(cgroup, user + system);
        (user, system)
    }

    /// Charge `amount` of `cat` on `core` alone, clamped to its remaining
    /// capacity; with no round open, a round of the window used outside a
    /// round is opened. Returns the applied amount.
    fn charge_core(&mut self, core: usize, cat: CpuCategory, amount: Usecs) -> Usecs {
        if self.round.is_none() {
            self.open_round(NO_ROUND_WINDOW);
        }
        let Some(round) = self.round.as_mut() else {
            return Usecs::ZERO;
        };
        let applied = amount.min(round.remaining(core));
        round.per_core[core].charge(cat, applied);
        applied
    }

    /// Charge I/O-wait on `core` (not attributed to any process: iowait is a
    /// core-level phenomenon). Clamped to remaining capacity.
    pub fn charge_iowait(&mut self, core: usize, amount: Usecs) -> Usecs {
        self.charge_core(core, CpuCategory::IoWait, amount)
    }

    /// Remaining CPU-quota budget for `cgroup` in the current round window.
    pub fn remaining_quota(&self, cgroup: CgroupId) -> Option<Usecs> {
        self.cgroups.remaining_cpu_budget(cgroup)
    }

    /// A deterministic per-key core outside `exclude`: where repeated
    /// usermodehelper children for one origin keep landing (key = pid), and
    /// where a flow's NAPI completions keep firing (key = cgroup — the IRQ
    /// affinity outlives any one sender process).
    pub fn stable_victim_core(&self, key: u32, exclude: &[usize]) -> usize {
        let mut candidates = (0..self.config.cores)
            .filter(|c| !exclude.contains(c) && !self.reserved_cores.contains(c));
        let spread = (key as usize).wrapping_mul(2654435761);
        match candidates.clone().count() {
            0 => spread % self.config.cores,
            n => candidates
                .nth(spread % n)
                .expect("the index is below the count"),
        }
    }

    /// Pick the most-idle core **outside** `exclude` (the cpuset of the
    /// origin container): where kworkers, usermodehelper children and audit
    /// daemons land. Falls back to the globally most-idle core when the
    /// exclusion covers every core.
    pub fn pick_victim_core(&self, exclude: &[usize]) -> usize {
        let round = self.round.as_ref();
        let remaining = |core: usize| round.map_or(NO_ROUND_WINDOW, |r| r.remaining(core));
        let outside = |c: &usize| !exclude.contains(c);
        let unreserved = |c: &usize| outside(c) && !self.reserved_cores.contains(c);
        // The pool: unreserved cores outside the cpuset, else any core
        // outside it, else every core.
        let cores = 0..self.config.cores;
        let in_pool: &dyn Fn(&usize) -> bool = if cores.clone().any(|c| unreserved(&c)) {
            &unreserved
        } else if cores.clone().any(|c| outside(&c)) {
            &outside
        } else {
            &|_| true
        };
        cores
            .filter(|c| in_pool(c))
            .max_by_key(|&c| (remaining(c), std::cmp::Reverse(c)))
            .unwrap_or(0) // a zero-core config has no victim to pick
    }

    // ------------------------------------------------------------------
    // Deferral channels
    // ------------------------------------------------------------------

    /// Execute deferred work through `channel`: charge `cost` of system time
    /// on a core outside `origin_cpuset`, attributed to `worker_pid` in the
    /// root cgroup (or, with the usermodehelper patch, back to the origin),
    /// and record the event in the ledger.
    ///
    /// Returns the core the work landed on.
    pub fn defer_work(
        &mut self,
        channel: DeferralChannel,
        origin_pid: Pid,
        origin_cgroup: CgroupId,
        origin_cpuset: &[usize],
        cost: Usecs,
        syscall: &'static str,
    ) -> usize {
        // usermodehelper children inherit the workqueue's CPU affinity and
        // keep landing on the same core for a given origin — the paper's
        // Table A.3 shows the OOB workload concentrated on one core.
        // NAPI completion processing is likewise pinned — but to the NIC
        // queue's IRQ-affinity core, which outlives any single sender
        // process, so the key is the origin container, not its pid.
        let core = match channel {
            DeferralChannel::UserModeHelper(_) => {
                self.stable_victim_core(origin_pid.0, origin_cpuset)
            }
            DeferralChannel::NetSoftirq => self.stable_victim_core(origin_cgroup.0, origin_cpuset),
            _ => self.pick_victim_core(origin_cpuset),
        };
        let patched = (self.config.usermodehelper_patched
            && matches!(channel, DeferralChannel::UserModeHelper(_)))
            || (self.config.iron_accounting
                && matches!(
                    channel,
                    DeferralChannel::SoftIrq | DeferralChannel::NetSoftirq
                ));
        let charged_cgroup = if patched {
            origin_cgroup
        } else {
            CgroupTree::ROOT
        };
        let worker_pid = match channel {
            DeferralChannel::IoFlush | DeferralChannel::TtyFlush | DeferralChannel::Writeback => {
                self.boot.kworkers[0]
            }
            DeferralChannel::Audit => self.boot.kauditd,
            DeferralChannel::SoftIrq | DeferralChannel::NetSoftirq => self.boot.ksoftirqd[core],
            DeferralChannel::UserModeHelper(kind) => {
                // usermodehelper forks a fresh short-lived child each time.
                let name = match kind {
                    HelperKind::Modprobe => "modprobe",
                    HelperKind::CoreDumpHelper => "core-dump-helper",
                };
                let pid = self
                    .procs
                    .spawn(name, ProcessKind::Helper(kind), charged_cgroup);
                self.procs.exit(pid);
                pid
            }
        };
        let cat = match channel {
            DeferralChannel::SoftIrq | DeferralChannel::NetSoftirq => CpuCategory::SoftIrq,
            _ => CpuCategory::System,
        };
        let applied = self.charge(core, cat, cost, worker_pid, charged_cgroup);
        // Work that no core could absorb within the window spills past the
        // measurement boundary; it is not part of this round's ledger.
        if applied > Usecs::ZERO {
            self.ledger.record(DeferralEvent {
                channel,
                origin_cgroup,
                origin_pid,
                charged_cgroup,
                cost: applied,
                core,
                syscall,
            });
        }
        core
    }

    /// The audit path (§2.4.3): kauditd collects the event and journald
    /// writes it out, both outside the origin cgroup.
    pub fn audit_event(
        &mut self,
        origin_pid: Pid,
        origin_cgroup: CgroupId,
        origin_cpuset: &[usize],
        syscall: &'static str,
    ) {
        let core = self.pick_victim_core(origin_cpuset);
        let kaudit_cost = Usecs(80);
        let journal_cost = Usecs(170);
        let kauditd = self.boot.kauditd;
        let journald = self.boot.journald;
        let journald_cgroup = self
            .procs
            .get(journald)
            .map_or(CgroupTree::ROOT, |p| p.cgroup());
        let a = self.charge(
            core,
            CpuCategory::System,
            kaudit_cost,
            kauditd,
            CgroupTree::ROOT,
        );
        let b = self.charge(
            core,
            CpuCategory::User,
            journal_cost,
            journald,
            journald_cgroup,
        );
        self.ledger.record(DeferralEvent {
            channel: DeferralChannel::Audit,
            origin_cgroup,
            origin_pid,
            charged_cgroup: CgroupTree::ROOT,
            cost: a + b,
            core,
            syscall,
        });
    }

    /// The `sync(2)` path: flush `fraction` of the dirty data on a kworker,
    /// inflict I/O-wait on every process that touched the disk this round
    /// and on a host "disk" core, and return how long the *caller* must
    /// block.
    ///
    /// With `host_visible = false` (sandboxed runtimes), the sentry performs
    /// the flush itself: the cost is charged **inside** the caller's cgroup
    /// and no host victim is touched — which is why none of the runC I/O
    /// findings reproduce on gVisor (§4.4.2).
    pub fn sync_flush(
        &mut self,
        origin_pid: Pid,
        origin_cgroup: CgroupId,
        origin_cpuset: &[usize],
        fraction: f64,
        host_visible: bool,
    ) -> Usecs {
        let dirty = self.vfs.dirty_bytes();
        let flushed = if fraction >= 1.0 {
            self.vfs.flush_all()
        } else {
            let part = (dirty as f64 * fraction) as u64;
            self.vfs.flush_all();
            self.vfs.dirty(dirty - part);
            part
        };
        if flushed < 4096 {
            if !host_visible {
                return Usecs(50);
            }
            // Host daemons dribble dirty data continuously: even a
            // back-to-back sync finds a residual flush, so every call keeps
            // a kworker busy and the disk queue occupied (§4.3.1).
            self.defer_work(
                DeferralChannel::IoFlush,
                origin_pid,
                origin_cgroup,
                origin_cpuset,
                Usecs(150),
                "sync",
            );
            let disk_core = self.pick_victim_core(origin_cpuset);
            self.charge_iowait(disk_core, Usecs(400));
            if let Some(&caller_core) = origin_cpuset.first() {
                self.charge_iowait(caller_core, Usecs(240));
            }
            return Usecs(800);
        }
        // ~20 ms per flushed MiB of flush CPU, capped well below a window.
        let mib = (flushed >> 20).max(1);
        let flush_cost = Usecs(mib * 20_000).min(Usecs::from_millis(1500));
        if !host_visible {
            // Sandboxed: sentry flushes within the container's own budget.
            let core = origin_cpuset.first().copied().unwrap_or(0);
            self.charge(
                core,
                CpuCategory::System,
                flush_cost.scale(0.5),
                origin_pid,
                origin_cgroup,
            );
            return flush_cost.scale(0.5);
        }
        let flush_core = self.defer_work(
            DeferralChannel::IoFlush,
            origin_pid,
            origin_cgroup,
            origin_cpuset,
            flush_cost,
            "sync",
        );
        // Everyone doing I/O waits for the disk; so does the host's own I/O.
        let wait = flush_cost.scale(6.0);
        let victims: Vec<(Pid, usize)> = self.io_active.iter().copied().collect();
        for (_pid, core) in victims {
            self.charge_iowait(core, wait.scale(0.5));
        }
        let disk_core = self.pick_victim_core(origin_cpuset);
        self.charge_iowait(disk_core, wait);
        if disk_core != flush_core {
            self.charge_iowait(flush_core, wait.scale(0.3));
        }
        // While blocked on the flush, the caller's own core sits in iowait.
        if let Some(&caller_core) = origin_cpuset.first() {
            self.charge_iowait(caller_core, wait.scale(0.3));
        }
        // The caller blocks until the flush completes (but is charged ~nothing).
        wait
    }

    /// The memory-pressure path: when a cgroup's allocation pushes against
    /// its memory limit, the kernel flushes dirty pages and runs a kswapd
    /// reclaim scan — both on kworkers in the root cgroup — while the
    /// allocating task eats direct-reclaim I/O-wait. Returns how long the
    /// *caller* must block.
    ///
    /// With `host_visible = false` (sandboxed runtimes), the sentry manages
    /// its own page cache: reclaim is charged inside the caller's cgroup and
    /// no host kworker is touched, so the channel does not exist on gVisor.
    pub fn memory_reclaim(
        &mut self,
        origin_pid: Pid,
        origin_cgroup: CgroupId,
        origin_cpuset: &[usize],
        requested_bytes: u64,
        host_visible: bool,
        syscall: &'static str,
    ) -> Usecs {
        // ~40 µs of reclaim scan per 64 KiB requested, capped well below a
        // window; the flush half also drains whatever the host has dirtied.
        let chunks = (requested_bytes >> 16).max(1);
        let reclaim_cost = Usecs(chunks * 40).min(Usecs::from_millis(800));
        if !host_visible {
            let core = origin_cpuset.first().copied().unwrap_or(0);
            let cost = reclaim_cost.scale(0.5);
            self.charge(core, CpuCategory::System, cost, origin_pid, origin_cgroup);
            return cost;
        }
        self.vfs.flush_all();
        let reclaim_core = self.defer_work(
            DeferralChannel::Writeback,
            origin_pid,
            origin_cgroup,
            origin_cpuset,
            reclaim_cost,
            syscall,
        );
        // Direct reclaim stalls the allocator and the disk while pages drain.
        let wait = reclaim_cost.scale(4.0);
        self.charge_iowait(reclaim_core, wait.scale(0.5));
        if let Some(&caller_core) = origin_cpuset.first() {
            self.charge_iowait(caller_core, wait.scale(0.4));
        }
        wait
    }
}

/// Output of one completed round.
#[derive(Debug, Clone)]
pub struct RoundOutput {
    /// Round window length.
    pub window: Usecs,
    /// Per-core category totals for this round (deltas, not cumulative).
    pub per_core: Vec<CpuTimes>,
    /// Ground-truth work-deferral events (for the confirmation stage only).
    pub deferrals: Vec<DeferralEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted() -> Kernel {
        Kernel::with_defaults()
    }

    #[test]
    fn boot_spawns_daemons_and_kthreads() {
        let k = booted();
        assert_eq!(k.cores(), 12);
        assert!(k.procs.get(k.boot.dockerd).is_some());
        assert!(k.procs.get(k.boot.kauditd).is_some());
        assert_eq!(k.boot.ksoftirqd.len(), 12);
        assert!(k.boot.kworkers.len() >= 2);
    }

    #[test]
    fn round_charges_and_idle_fill() {
        let mut k = booted();
        k.begin_round(Usecs::from_secs(1));
        let pid = k.boot.dockerd;
        let cg = k.procs.get(pid).unwrap().cgroup();
        let applied = k.charge(0, CpuCategory::User, Usecs(400_000), pid, cg);
        assert_eq!(applied, Usecs(400_000));
        let out = k.finish_round(&[0]);
        let core0 = &out.per_core[0];
        assert!(core0.user >= Usecs(400_000));
        assert_eq!(core0.total(), Usecs::from_secs(1), "idle fills to window");
    }

    #[test]
    fn charge_clamps_to_capacity() {
        let mut k = booted();
        k.begin_round(Usecs::from_millis(10));
        let pid = k.boot.dockerd;
        let cg = k.procs.get(pid).unwrap().cgroup();
        let applied = k.charge(3, CpuCategory::System, Usecs::from_secs(9), pid, cg);
        assert_eq!(applied, Usecs::from_millis(10));
        let applied2 = k.charge(3, CpuCategory::System, Usecs(1), pid, cg);
        assert_eq!(applied2, Usecs::ZERO, "core saturated");
    }

    #[test]
    fn charge_user_system_matches_two_charges() {
        // Within capacity, filling the core midway through the system
        // half, filling it with user time alone, and outside a round.
        let cases = [
            (Usecs(300), Usecs(500), true),
            (Usecs(600_000), Usecs(700_000), true),
            (Usecs(2_000_000), Usecs(10), true),
            (Usecs(300), Usecs(500), false),
        ];
        for (user, system, in_round) in cases {
            let mut one = booted();
            let mut two = booted();
            if in_round {
                one.begin_round(Usecs::from_secs(1));
                two.begin_round(Usecs::from_secs(1));
            }
            let pid = one.boot.dockerd;
            let cg = one.procs.get(pid).unwrap().cgroup();
            let applied = one.charge_user_system(2, user, system, pid, cg);
            let u = two.charge(2, CpuCategory::User, user, pid, cg);
            let s = two.charge(2, CpuCategory::System, system, pid, cg);
            assert_eq!(applied, (u, s));
            assert_eq!(
                one.procs.get(pid).unwrap().round_cpu(),
                two.procs.get(pid).unwrap().round_cpu()
            );
            assert_eq!(
                one.cgroups.get(cg).unwrap().charged_cpu(),
                two.cgroups.get(cg).unwrap().charged_cpu()
            );
            assert_eq!(
                one.finish_round(&[2]).per_core,
                two.finish_round(&[2]).per_core
            );
        }
    }

    #[test]
    fn absorbed_partition_round_matches_single_kernel() {
        let window = Usecs::from_secs(1);
        let mut single = booted();
        let mut primary = booted();
        let mut secondary = booted();
        for k in [&mut single, &mut primary, &mut secondary] {
            k.begin_round(window);
        }
        // Identically-booted kernels spawn identical daemon pids, so the
        // same (pid, cgroup) attribution works in all three.
        let pid = single.boot.dockerd;
        let cg = single.procs.get(pid).unwrap().cgroup();
        // Same charges, split across two partitions vs one shared kernel.
        single.charge(0, CpuCategory::User, Usecs(300_000), pid, cg);
        single.charge(1, CpuCategory::System, Usecs(200_000), pid, cg);
        primary.charge(0, CpuCategory::User, Usecs(300_000), pid, cg);
        secondary.charge(1, CpuCategory::System, Usecs(200_000), pid, cg);
        let raw = secondary.take_round_raw();
        assert_eq!(secondary.rounds_completed(), 0, "raw take is not a round");
        assert!(
            raw.per_core.iter().all(|c| c.idle == Usecs::ZERO),
            "raw rounds carry no idle fill"
        );
        primary.absorb_round_raw(raw);
        let merged = primary.finish_round(&[0, 1]);
        let reference = single.finish_round(&[0, 1]);
        assert_eq!(merged.per_core, reference.per_core);
        assert_eq!(merged.deferrals, reference.deferrals);
        assert_eq!(primary.proc_stat(), single.proc_stat());
        assert_eq!(secondary.proc_stat(), vec![CpuTimes::default(); 12]);
    }

    #[test]
    fn absorb_appends_deferrals_in_partition_order() {
        let window = Usecs::from_secs(5);
        let mut primary = booted();
        let mut secondary = booted();
        for (k, syscall) in [(&mut primary, "socket"), (&mut secondary, "open")] {
            let cg = k
                .cgroups
                .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
                .unwrap();
            let pid = k.procs.spawn(
                "syz-executor-0",
                ProcessKind::Executor {
                    container: "fuzz-0".into(),
                },
                cg,
            );
            k.begin_round(window);
            k.defer_work(
                DeferralChannel::UserModeHelper(HelperKind::Modprobe),
                pid,
                cg,
                &[0],
                Usecs(700),
                syscall,
            );
        }
        primary.absorb_round_raw(secondary.take_round_raw());
        let out = primary.finish_round(&[0]);
        let order: Vec<&str> = out.deferrals.iter().map(|e| e.syscall).collect();
        assert_eq!(order, ["socket", "open"], "primary first, then donors");
    }

    #[test]
    fn sidecar_softirq_lands_after_last_fuzz_core() {
        let mut k = booted();
        k.begin_round(Usecs::from_secs(5));
        let out = k.finish_round(&[0, 1, 2]);
        let sidecar = out.per_core[3].softirq;
        assert!(
            sidecar > Usecs::from_millis(200),
            "sidecar softirq {sidecar} too small"
        );
        // Other non-fuzz cores have at most noise-level softirq.
        assert!(out.per_core[5].softirq < sidecar);
    }

    #[test]
    fn defer_work_escapes_cpuset_and_cgroup() {
        let mut k = booted();
        let cg = k
            .cgroups
            .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        let core = k.defer_work(
            DeferralChannel::UserModeHelper(HelperKind::Modprobe),
            pid,
            cg,
            &[0],
            Usecs(700),
            "socket",
        );
        assert_ne!(core, 0, "work must land outside the cpuset");
        assert_eq!(
            k.cgroups.get(cg).unwrap().charged_cpu(),
            Usecs::ZERO,
            "origin cgroup is never charged"
        );
        assert_eq!(
            k.cgroups.get(CgroupTree::ROOT).unwrap().charged_cpu(),
            Usecs(700)
        );
        let out = k.finish_round(&[0]);
        assert_eq!(out.deferrals.len(), 1);
        assert_eq!(out.deferrals[0].origin_cgroup, cg);
    }

    #[test]
    fn usermodehelper_patch_charges_origin() {
        let mut k = Kernel::new(KernelConfig {
            usermodehelper_patched: true,
            ..KernelConfig::default()
        });
        let cg = k
            .cgroups
            .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        k.defer_work(
            DeferralChannel::UserModeHelper(HelperKind::CoreDumpHelper),
            pid,
            cg,
            &[0],
            Usecs(8000),
            "rt_sigreturn",
        );
        assert_eq!(k.cgroups.get(cg).unwrap().charged_cpu(), Usecs(8000));
    }

    #[test]
    fn iron_accounting_charges_softirq_to_origin() {
        let mut k = Kernel::new(KernelConfig {
            iron_accounting: true,
            ..KernelConfig::default()
        });
        let cg = k
            .cgroups
            .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        k.defer_work(
            DeferralChannel::SoftIrq,
            pid,
            cg,
            &[0],
            Usecs(500),
            "sendto",
        );
        assert_eq!(
            k.cgroups.get(cg).unwrap().charged_cpu(),
            Usecs(500),
            "IRON debits the originator"
        );
        assert_eq!(
            k.cgroups.get(CgroupTree::ROOT).unwrap().charged_cpu(),
            Usecs::ZERO
        );
        // usermodehelper channels are untouched by IRON alone.
        k.defer_work(
            DeferralChannel::UserModeHelper(HelperKind::Modprobe),
            pid,
            cg,
            &[0],
            Usecs(700),
            "socket",
        );
        assert_eq!(
            k.cgroups.get(CgroupTree::ROOT).unwrap().charged_cpu(),
            Usecs(700)
        );
    }

    #[test]
    fn audit_event_charges_daemons_not_origin() {
        let mut k = booted();
        let cg = k
            .cgroups
            .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        k.audit_event(pid, cg, &[0], "sendto");
        assert_eq!(k.cgroups.get(cg).unwrap().charged_cpu(), Usecs::ZERO);
        let kauditd = k.boot.kauditd;
        let journald = k.boot.journald;
        assert!(k.procs.get(kauditd).unwrap().round_cpu() > Usecs::ZERO);
        assert!(k.procs.get(journald).unwrap().round_cpu() > Usecs::ZERO);
    }

    #[test]
    fn sync_flush_blocks_caller_and_inflicts_iowait() {
        let mut k = booted();
        let cg = k
            .cgroups
            .create(CgroupTree::ROOT, "docker/fuzz-0", Default::default())
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        let blocked = k.sync_flush(pid, cg, &[0], 1.0, true);
        assert!(
            blocked > Usecs::from_millis(50),
            "caller must wait: {blocked}"
        );
        let out = k.finish_round(&[0]);
        let total_iowait: u64 = out.per_core.iter().map(|c| c.iowait.as_micros()).sum();
        assert!(total_iowait > 100_000, "iowait {total_iowait} too small");
        assert!(out
            .deferrals
            .iter()
            .any(|e| e.channel == DeferralChannel::IoFlush));
        // A second sync in the same round only finds the residual dribble
        // host daemons wrote meanwhile: it still blocks, but briefly.
        k.begin_round(Usecs::from_secs(5));
        let _ = k.sync_flush(pid, cg, &[0], 1.0, true);
        let blocked2 = k.sync_flush(pid, cg, &[0], 1.0, true);
        assert!(blocked2 < blocked, "residual flush must be cheaper");
        assert!(blocked2 > Usecs::ZERO, "but the disk is never free");
    }

    #[test]
    fn proc_stat_accumulates_across_rounds() {
        let mut k = booted();
        k.begin_round(Usecs::from_secs(1));
        k.finish_round(&[0]);
        let snap1: Usecs = Usecs(k.proc_stat().iter().map(|c| c.total().as_micros()).sum());
        k.begin_round(Usecs::from_secs(1));
        k.finish_round(&[0]);
        let snap2: Usecs = Usecs(k.proc_stat().iter().map(|c| c.total().as_micros()).sum());
        assert_eq!(snap2.0 - snap1.0, 12 * 1_000_000);
        assert_eq!(k.rounds_completed(), 2);
    }

    #[test]
    fn pick_victim_core_prefers_idle_non_cpuset() {
        let mut k = booted();
        k.begin_round(Usecs::from_secs(1));
        let pid = k.boot.dockerd;
        let cg = k.procs.get(pid).unwrap().cgroup();
        // Load core 4 heavily.
        k.charge(4, CpuCategory::User, Usecs(900_000), pid, cg);
        let core = k.pick_victim_core(&[0, 1, 2]);
        assert!(![0, 1, 2, 4].contains(&core));
    }

    #[test]
    fn pick_victim_core_with_full_exclusion_falls_back() {
        let k = booted();
        let all: Vec<usize> = (0..12).collect();
        let core = k.pick_victim_core(&all);
        assert!(core < 12);
    }
}
