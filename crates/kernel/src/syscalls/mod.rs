//! The simulated syscall interface.
//!
//! [`dispatch`] executes one syscall for a process: it runs the semantic
//! handler (grouped by subsystem in the submodules), charges the on-CPU cost
//! against the caller's core/cgroup (honouring the CPU quota), performs any
//! work deferral the call provokes, delivers fatal signals (and their
//! coredumps), and produces the coverage signal.

mod fs;
mod mm;
mod netsys;
mod procsys;

use std::sync::OnceLock;

use torpedo_telemetry::wire::{fnv64, Fnv64};

use crate::cgroup::CgroupId;
use crate::cpu::CpuCategory;
use crate::deferral::DeferralChannel;
use crate::errno::Errno;
use crate::kernel::{CoverageMode, Kernel};
use crate::process::{HelperKind, Pid};
use crate::signal::Signal;
use crate::time::Usecs;

/// Execution policy set by the container runtime mediating the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Whether host-level work-deferral channels are reachable. `true` under
    /// native runtimes (runC); `false` under sandboxed/virtualized runtimes,
    /// which absorb the work inside the sandbox (charged to the container).
    pub host_deferrals: bool,
    /// Multiplier on on-CPU syscall cost (gVisor's interception overhead).
    pub overhead: f64,
    /// Whether kcov coverage is available through this runtime.
    pub kcov_available: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            host_deferrals: true,
            overhead: 1.0,
            kcov_available: true,
        }
    }
}

/// Identity and placement of the calling process.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecContext {
    /// Calling process.
    pub pid: Pid,
    /// Its cgroup.
    pub cgroup: CgroupId,
    /// The core it is pinned to.
    pub core: usize,
    /// Its effective cpuset (for deferral-escape decisions).
    pub cpuset: Vec<usize>,
    /// Runtime-imposed policy.
    pub policy: ExecPolicy,
}

/// Sentinel syscall number carried by requests whose name is not in
/// [`SYSCALL_TABLE`]; such requests dispatch to the `ENOSYS` path.
pub const NR_UNKNOWN: u32 = u32::MAX;

/// A syscall request: name plus six raw arguments, as on x86-64.
///
/// Pointer arguments that reference user-memory strings (paths, xattr keys)
/// are carried out-of-band in `paths`, indexed by argument position — the
/// simulator has no user address space to dereference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallRequest<'a> {
    /// Syscall name (e.g. `"open"`).
    pub name: &'a str,
    /// Kernel syscall number, resolved once at construction time
    /// ([`NR_UNKNOWN`] when the name is not modelled). [`dispatch`] routes on
    /// this instead of re-matching the name string.
    pub nr: u32,
    /// Raw register arguments.
    pub args: [u64; 6],
    /// String payloads for pointer arguments, by argument index.
    pub paths: [Option<&'a str>; 6],
}

impl<'a> SyscallRequest<'a> {
    /// A request with no string payloads. Resolves the syscall number via a
    /// hashed lookup; callers that already hold the number (e.g. from a
    /// `SyscallDesc`) should prefer [`SyscallRequest::with_nr`].
    pub fn new(name: &'a str, args: [u64; 6]) -> SyscallRequest<'a> {
        SyscallRequest {
            name,
            nr: nr_of(name).unwrap_or(NR_UNKNOWN),
            args,
            paths: [None; 6],
        }
    }

    /// A request carrying a pre-resolved syscall number — the zero-lookup
    /// fast path for executors that resolved `name` to `nr` at table-build
    /// time.
    pub fn with_nr(name: &'a str, nr: u32, args: [u64; 6]) -> SyscallRequest<'a> {
        SyscallRequest {
            name,
            nr,
            args,
            paths: [None; 6],
        }
    }

    /// Attach a string payload at argument position `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= 6`.
    #[must_use]
    pub fn with_path(mut self, idx: usize, path: &'a str) -> SyscallRequest<'a> {
        self.paths[idx] = Some(path);
        self
    }
}

/// The coverage signals of one call, stored inline: in kcov mode the
/// handler's branch-label signal, then the fallback signal; otherwise the
/// fallback signal alone. Dereferences to `&[u64]`, and producing it
/// allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Signals {
    len: u8,
    /// Slots past `len` stay zero, so the derived equality is the
    /// equality of the signal slices.
    sigs: [u64; 2],
}

impl Signals {
    /// The set holding only `sig`.
    pub fn one(sig: u64) -> Signals {
        Signals {
            len: 1,
            sigs: [sig, 0],
        }
    }

    fn push(&mut self, sig: u64) {
        self.sigs[usize::from(self.len)] = sig;
        self.len += 1;
    }
}

impl std::ops::Deref for Signals {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.sigs[..usize::from(self.len)]
    }
}

/// The observable outcome of one syscall execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallOutcome {
    /// Return value (negative errno on failure, as raw Linux).
    pub retval: i64,
    /// Decoded errno on failure.
    pub errno: Option<Errno>,
    /// Fatal signal delivered to the caller as a side-effect.
    pub fatal_signal: Option<Signal>,
    /// User-mode CPU charged to the caller.
    pub user: Usecs,
    /// Kernel-mode CPU charged to the caller.
    pub system: Usecs,
    /// Off-CPU time the caller spent blocked.
    pub blocked: Usecs,
    /// Coverage signal(s) produced by this call.
    pub coverage: Signals,
    /// True when the caller's cgroup quota is exhausted: the call did not
    /// run and the executor should stop consuming this round.
    pub throttled: bool,
}

/// Semantic result built by a handler, before accounting.
#[derive(Debug, Default)]
pub(crate) struct Sem {
    retval: i64,
    errno: Option<Errno>,
    fatal: Option<Signal>,
    user: Usecs,
    system: Usecs,
    blocked: Usecs,
    /// The kcov-style branch label the handler took: every handler sets at
    /// most one.
    trace: Option<&'static str>,
}

impl Sem {
    pub(crate) fn ok(retval: i64) -> Sem {
        Sem {
            retval,
            ..Sem::default()
        }
    }

    pub(crate) fn err(errno: Errno) -> Sem {
        Sem {
            retval: errno.as_retval(),
            errno: Some(errno),
            ..Sem::default()
        }
    }

    pub(crate) fn cost(mut self, user: u64, system: u64) -> Sem {
        self.user = Usecs(user);
        self.system = Usecs(system);
        self
    }

    pub(crate) fn block(mut self, blocked: Usecs) -> Sem {
        self.blocked = blocked;
        self
    }

    pub(crate) fn fatal(mut self, sig: Signal) -> Sem {
        self.fatal = Some(sig);
        self
    }

    pub(crate) fn branch(mut self, label: &'static str) -> Sem {
        debug_assert!(
            self.trace.is_none(),
            "branch {label} after {:?}: a call takes one label",
            self.trace
        );
        self.trace = Some(label);
        self
    }
}

/// FNV-1a over a sequence of 64-bit words; used for coverage hashing.
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The SYZKALLER fallback signal: a unique combination of syscall number and
/// error code (§3.1.2 of the paper).
pub fn fallback_signal(nr: u32, errno: Option<Errno>) -> u64 {
    let code = errno.map_or(0u64, |e| e.as_raw() as u64);
    (nr as u64) ^ (code << 20)
}

/// Execute one syscall for the process described by `ctx`.
///
/// Routes on the request's pre-resolved `nr` through a jump table; the
/// name-string cascade survives only as a fallback for unknown names.
/// Unknown syscall names fail with `ENOSYS` (and still produce a fallback
/// coverage signal, as on real SYZKALLER).
pub fn dispatch(kernel: &mut Kernel, ctx: &ExecContext, req: SyscallRequest<'_>) -> SyscallOutcome {
    let nr = req.nr;

    // CPU-quota gate (the CPU controller's limitation function, which the
    // paper notes is sound — only *tracking* has holes).
    if let Some(rem) = kernel.remaining_quota(ctx.cgroup) {
        if rem == Usecs::ZERO {
            return SyscallOutcome {
                retval: 0,
                errno: None,
                fatal_signal: None,
                user: Usecs::ZERO,
                system: Usecs::ZERO,
                blocked: Usecs::ZERO,
                coverage: Signals::default(),
                throttled: true,
            };
        }
    }

    let mut sem = run_handler(kernel, ctx, &req);

    // Apply the runtime's interception overhead, then clamp to quota.
    let mut user = sem.user.scale(ctx.policy.overhead);
    let mut system = sem.system.scale(ctx.policy.overhead);
    if let Some(rem) = kernel.remaining_quota(ctx.cgroup) {
        let want = user + system;
        if want > rem && want > Usecs::ZERO {
            let ratio = rem.as_micros() as f64 / want.as_micros() as f64;
            user = user.scale(ratio);
            system = system.scale(ratio);
        }
    }
    let (user, system) = kernel.charge_user_system(ctx.core, user, system, ctx.pid, ctx.cgroup);

    // Fatal-signal delivery: kill the process; if the signal dumps core, the
    // kernel execs the registered coredump helper through usermodehelper —
    // an out-of-band workload on a default host (§4.3.2). The dying task
    // stays in zombie state until the dump pipe closes, so the entrypoint's
    // wait() — and therefore the restart — blocks for the dump duration
    // while being charged almost nothing.
    let mut dump_wait = Usecs::ZERO;
    if let Some(sig) = sem.fatal {
        kernel.procs.exit(ctx.pid);
        if sig.dumps_core() {
            let dump_cost = Usecs(8_000);
            if ctx.policy.host_deferrals {
                kernel.defer_work(
                    DeferralChannel::UserModeHelper(HelperKind::CoreDumpHelper),
                    ctx.pid,
                    ctx.cgroup,
                    &ctx.cpuset,
                    dump_cost,
                    leak_name(req.name),
                );
                kernel.vfs.dirty(2 << 20);
                dump_wait = Usecs(12_000);
            } else {
                // Sandboxed runtimes handle the dump inside the sandbox: the
                // cost stays in the container's own cgroup.
                kernel.charge(
                    ctx.core,
                    CpuCategory::System,
                    dump_cost.scale(0.2),
                    ctx.pid,
                    ctx.cgroup,
                );
                dump_wait = Usecs(2_000);
            }
        }
    }

    // Coverage signal.
    let mut coverage = Signals::default();
    if kernel.config.coverage == CoverageMode::Kcov && ctx.policy.kcov_available {
        if let Some(label) = sem.trace {
            coverage.push(fnv1a(&[
                nr as u64,
                fnv1a(&[
                    label.len() as u64,
                    label.as_bytes()[0] as u64,
                    *label.as_bytes().last().unwrap_or(&0) as u64,
                ]),
            ]));
        }
    }
    coverage.push(fallback_signal(nr, sem.errno));

    SyscallOutcome {
        retval: sem.retval,
        errno: sem.errno,
        fatal_signal: sem.fatal.take(),
        user,
        system,
        blocked: sem.blocked + dump_wait,
        coverage,
        throttled: false,
    }
}

/// Which handler submodule owns a syscall number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandlerModule {
    Fs,
    Mm,
    ProcSys,
    NetSys,
}

/// One past the highest modelled syscall number (`rseq` = 334).
const NR_LIMIT: usize = 335;

/// O(1) routing tables, built once from [`SYSCALL_TABLE`] and the handler
/// modules' ownership lists on first use.
/// Slot count of the open-addressed name table: a power of two at ~0.4
/// load factor for the 110-entry syscall table, so lookups are one FNV-1a
/// hash plus (almost always) a single key compare.
const NAME_SLOTS: usize = 256;

/// The name table's slot for `name`: FNV-1a of its bytes. The keys are a
/// fixed compile-time set, so the DoS-resistant (and much slower on short
/// strings) SipHash default of `HashMap` buys nothing here.
#[inline]
fn name_slot(name: &str) -> usize {
    fnv64(name.as_bytes()) as usize & (NAME_SLOTS - 1)
}

struct FastTables {
    /// Open-addressed (linear probing) name → nr table with canonical
    /// `&'static str` keys; serves [`nr_of`] and `leak_name`.
    name_slots: [Option<(&'static str, u32)>; NAME_SLOTS],
    /// nr → owning handler module: the jump table [`run_handler`] routes on.
    module_by_nr: [Option<HandlerModule>; NR_LIMIT],
}

impl FastTables {
    #[inline]
    fn entry(&self, name: &str) -> Option<(&'static str, u32)> {
        let mut idx = name_slot(name);
        loop {
            match self.name_slots[idx] {
                // Pointer equality first: callers overwhelmingly pass the
                // interned `&'static str` out of a syscall table, making the
                // common hit a two-word compare instead of a memcmp.
                Some((known, nr))
                    if std::ptr::eq(known.as_ptr(), name.as_ptr()) && known.len() == name.len()
                        || known == name =>
                {
                    return Some((known, nr))
                }
                Some(_) => idx = (idx + 1) & (NAME_SLOTS - 1),
                None => return None,
            }
        }
    }
}

fn fast_tables() -> &'static FastTables {
    static TABLES: OnceLock<FastTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut name_slots = [None; NAME_SLOTS];
        for (name, nr) in SYSCALL_TABLE {
            let mut idx = name_slot(name);
            while name_slots[idx].is_some() {
                idx = (idx + 1) & (NAME_SLOTS - 1);
            }
            name_slots[idx] = Some((*name, *nr));
        }
        let mut tables = FastTables {
            name_slots,
            module_by_nr: [None; NR_LIMIT],
        };
        let ownership: [(&[&str], HandlerModule); 4] = [
            (fs::NAMES, HandlerModule::Fs),
            (mm::NAMES, HandlerModule::Mm),
            (procsys::NAMES, HandlerModule::ProcSys),
            (netsys::NAMES, HandlerModule::NetSys),
        ];
        for (names, module) in ownership {
            for name in names {
                let (_, nr) = tables.entry(name).expect("module NAMES ⊆ SYSCALL_TABLE");
                tables.module_by_nr[nr as usize] = Some(module);
            }
        }
        tables
    })
}

fn run_handler(kernel: &mut Kernel, ctx: &ExecContext, req: &SyscallRequest<'_>) -> Sem {
    if let Some(Some(module)) = fast_tables().module_by_nr.get(req.nr as usize) {
        let sem = match module {
            HandlerModule::Fs => fs::handle(kernel, ctx, req.name, req),
            HandlerModule::Mm => mm::handle(kernel, ctx, req.name, req),
            HandlerModule::ProcSys => procsys::handle(kernel, ctx, req.name, req),
            HandlerModule::NetSys => netsys::handle(kernel, ctx, req.name, req),
        };
        if let Some(sem) = sem {
            return sem;
        }
    }
    run_handler_cascade(kernel, ctx, req)
}

/// Slow fallback for requests whose name did not resolve to a modelled nr.
fn run_handler_cascade(kernel: &mut Kernel, ctx: &ExecContext, req: &SyscallRequest<'_>) -> Sem {
    if let Some(sem) = fs::handle(kernel, ctx, req.name, req) {
        return sem;
    }
    if let Some(sem) = mm::handle(kernel, ctx, req.name, req) {
        return sem;
    }
    if let Some(sem) = procsys::handle(kernel, ctx, req.name, req) {
        return sem;
    }
    if let Some(sem) = netsys::handle(kernel, ctx, req.name, req) {
        return sem;
    }
    Sem::err(Errno::ENOSYS).cost(1, 2).branch("enosys")
}

/// Static `"sync"`-style names for deferral events (events store a
/// `&'static str`; syscall names arrive borrowed).
fn leak_name(name: &str) -> &'static str {
    fast_tables()
        .entry(name)
        .map_or("unknown", |(known, _)| known)
}

/// The x86-64 syscall-number table for every modelled syscall.
pub const SYSCALL_TABLE: &[(&str, u32)] = &[
    ("read", 0),
    ("write", 1),
    ("open", 2),
    ("close", 3),
    ("stat", 4),
    ("fstat", 5),
    ("poll", 7),
    ("lseek", 8),
    ("mmap", 9),
    ("mprotect", 10),
    ("munmap", 11),
    ("brk", 12),
    ("rt_sigaction", 13),
    ("rt_sigprocmask", 14),
    ("rt_sigreturn", 15),
    ("ioctl", 16),
    ("pread64", 17),
    ("pwrite64", 18),
    ("access", 21),
    ("pipe", 22),
    ("select", 23),
    ("sched_yield", 24),
    ("mremap", 25),
    ("msync", 26),
    ("madvise", 28),
    ("dup", 32),
    ("dup2", 33),
    ("pause", 34),
    ("nanosleep", 35),
    ("getitimer", 36),
    ("alarm", 37),
    ("getpid", 39),
    ("socket", 41),
    ("connect", 42),
    ("accept", 43),
    ("sendto", 44),
    ("recvfrom", 45),
    ("sendmsg", 46),
    ("recvmsg", 47),
    ("shutdown", 48),
    ("bind", 49),
    ("listen", 50),
    ("socketpair", 53),
    ("setsockopt", 54),
    ("getsockopt", 55),
    ("fork", 57),
    ("exit", 60),
    ("kill", 62),
    ("uname", 63),
    ("fcntl", 72),
    ("flock", 73),
    ("fsync", 74),
    ("fdatasync", 75),
    ("truncate", 76),
    ("ftruncate", 77),
    ("getdents", 78),
    ("rename", 82),
    ("mkdir", 83),
    ("rmdir", 84),
    ("creat", 85),
    ("unlink", 87),
    ("readlink", 89),
    ("chmod", 90),
    ("fchmod", 91),
    ("gettimeofday", 96),
    ("getrlimit", 97),
    ("sysinfo", 99),
    ("times", 100),
    ("ptrace", 101),
    ("getuid", 102),
    ("setuid", 105),
    ("setgid", 106),
    ("geteuid", 107),
    ("getppid", 110),
    ("capget", 125),
    ("capset", 126),
    ("personality", 135),
    ("mlock", 149),
    ("munlock", 150),
    ("prctl", 157),
    ("setrlimit", 160),
    ("sync", 162),
    ("gettid", 186),
    ("setxattr", 188),
    ("getxattr", 191),
    ("listxattr", 194),
    ("removexattr", 197),
    ("futex", 202),
    ("epoll_wait", 232),
    ("epoll_ctl", 233),
    ("clock_gettime", 228),
    ("clock_nanosleep", 230),
    ("exit_group", 231),
    ("tgkill", 234),
    ("inotify_init", 253),
    ("inotify_add_watch", 254),
    ("openat", 257),
    ("fallocate", 285),
    ("accept4", 288),
    ("eventfd2", 290),
    ("epoll_create1", 291),
    ("dup3", 292),
    ("pipe2", 293),
    ("prlimit64", 302),
    ("syncfs", 306),
    ("getcpu", 309),
    ("kcmp", 312),
    ("getrandom", 318),
    ("memfd_create", 319),
    ("rseq", 334),
];

/// The syscall number of `name`, if modelled. O(1) hashed lookup.
#[inline]
pub fn nr_of(name: &str) -> Option<u32> {
    fast_tables().entry(name).map(|(_, nr)| nr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::{CgroupLimits, CgroupTree};
    use crate::process::ProcessKind;

    pub(crate) fn setup() -> (Kernel, ExecContext) {
        let mut k = Kernel::with_defaults();
        let cg = k
            .cgroups
            .create(
                CgroupTree::ROOT,
                "docker/fuzz-0",
                CgroupLimits {
                    cpu_quota_cores: Some(1.0),
                    cpuset: Some(vec![0]),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        let pid = k.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "fuzz-0".into(),
            },
            cg,
        );
        k.begin_round(Usecs::from_secs(5));
        let ctx = ExecContext {
            pid,
            cgroup: cg,
            core: 0,
            cpuset: vec![0],
            policy: ExecPolicy::default(),
        };
        (k, ctx)
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let (mut k, ctx) = setup();
        let out = dispatch(&mut k, &ctx, SyscallRequest::new("not_a_syscall", [0; 6]));
        assert_eq!(out.errno, Some(Errno::ENOSYS));
        assert_eq!(out.coverage.len(), 1);
    }

    #[test]
    fn fallback_signal_distinguishes_errno() {
        let a = fallback_signal(41, None);
        let b = fallback_signal(41, Some(Errno::EAFNOSUPPORT));
        let c = fallback_signal(41, Some(Errno::EPROTONOSUPPORT));
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn table_has_unique_names_and_numbers() {
        let mut names = std::collections::HashSet::new();
        let mut nrs = std::collections::HashSet::new();
        for (name, nr) in SYSCALL_TABLE {
            assert!(names.insert(*name), "duplicate name {name}");
            assert!(nrs.insert(*nr), "duplicate nr {nr} ({name})");
        }
        assert!(SYSCALL_TABLE.len() >= 100);
    }

    #[test]
    fn quota_throttles_when_exhausted() {
        let (mut k, ctx) = setup();
        // Exhaust the 1-core quota of the 5s window.
        k.cgroups.charge_cpu(ctx.cgroup, Usecs::from_secs(5));
        let out = dispatch(&mut k, &ctx, SyscallRequest::new("getpid", [0; 6]));
        assert!(out.throttled);
        assert_eq!(out.user + out.system, Usecs::ZERO);
    }

    #[test]
    fn overhead_scales_cost() {
        let (mut k, mut ctx) = setup();
        let base = dispatch(&mut k, &ctx, SyscallRequest::new("getpid", [0; 6]));
        ctx.policy.overhead = 3.0;
        let scaled = dispatch(&mut k, &ctx, SyscallRequest::new("getpid", [0; 6]));
        assert!(scaled.user + scaled.system > base.user + base.system);
    }

    #[test]
    fn kcov_mode_yields_richer_signal() {
        let (mut k, ctx) = setup();
        k.config.coverage = CoverageMode::Kcov;
        let out = dispatch(
            &mut k,
            &ctx,
            SyscallRequest::new("open", [0, 0, 0, 0, 0, 0]),
        );
        assert!(out.coverage.len() > 1, "kcov adds branch signals");
    }

    /// The kcov signal of branch `label` on syscall `nr`: FNV-1a over the
    /// number and a digest of the label's length, first and last byte.
    fn label_signal(nr: u32, label: &str) -> u64 {
        let bytes = label.as_bytes();
        let digest = fnv1a(&[
            bytes.len() as u64,
            u64::from(bytes[0]),
            u64::from(*bytes.last().unwrap_or(&0)),
        ]);
        fnv1a(&[u64::from(nr), digest])
    }

    #[test]
    fn kcov_yields_the_label_signal_then_the_fallback_for_every_syscall() {
        let mut digest = Fnv64::new();
        let mut signals = 0;
        for (name, nr) in SYSCALL_TABLE {
            for path in [None, Some("/etc/passwd")] {
                let mut req = SyscallRequest::new(name, [0; 6]);
                if let Some(path) = path {
                    req = req.with_path(0, path).with_path(1, path);
                }
                // The handler's label, from a kernel of its own.
                let (mut k, ctx) = setup();
                let label = run_handler(&mut k, &ctx, &req).trace;
                let (mut k, ctx) = setup();
                k.config.coverage = CoverageMode::Kcov;
                let out = dispatch(&mut k, &ctx, req);
                let mut want: Vec<u64> = label.map(|l| label_signal(*nr, l)).into_iter().collect();
                want.push(fallback_signal(*nr, out.errno));
                assert_eq!(*out.coverage, want[..], "{name} with path {path:?}");
                for &sig in out.coverage.iter() {
                    digest.write_u64(sig);
                    signals += 1;
                }
            }
        }
        // Every call takes a label, and the digest pins the values.
        assert_eq!(signals, 4 * SYSCALL_TABLE.len());
        assert_eq!(digest.finish(), 0x98d4_5d91_09c1_3d39);
    }

    #[test]
    fn nr_lookup() {
        assert_eq!(nr_of("socket"), Some(41));
        assert_eq!(nr_of("rseq"), Some(334));
        assert_eq!(nr_of("bogus"), None);
    }

    /// The reference lookup the hashed [`nr_of`] must agree with.
    fn nr_of_scan(name: &str) -> Option<u32> {
        SYSCALL_TABLE
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, nr)| *nr)
    }

    #[test]
    fn hashed_lookup_matches_linear_scan() {
        for (name, nr) in SYSCALL_TABLE {
            assert_eq!(nr_of(name), Some(*nr));
            assert_eq!(nr_of(name), nr_of_scan(name));
        }
        assert_eq!(nr_of_scan("bogus"), None);
    }

    #[test]
    fn request_constructors_resolve_nr() {
        assert_eq!(SyscallRequest::new("socket", [0; 6]).nr, 41);
        assert_eq!(SyscallRequest::new("not_a_syscall", [0; 6]).nr, NR_UNKNOWN);
        assert_eq!(SyscallRequest::with_nr("socket", 41, [0; 6]).nr, 41);
    }

    #[test]
    fn jump_table_covers_every_modelled_syscall() {
        let tables = fast_tables();
        for (name, nr) in SYSCALL_TABLE {
            assert!(
                tables.module_by_nr[*nr as usize].is_some(),
                "nr {nr} ({name}) has no owning handler module"
            );
        }
    }

    #[test]
    fn jump_table_routes_like_the_cascade() {
        // The jump table and the module-by-module string cascade must
        // build the same handler result for every modelled syscall (fresh
        // kernel per side so state mutations on one cannot leak into the
        // other); the rest of `dispatch` is shared by both.
        let routes = |name: &str| {
            let (mut k, ctx) = setup();
            let req = SyscallRequest::new(name, [0; 6]);
            let fast = format!("{:?}", run_handler(&mut k, &ctx, &req));
            let (mut k, ctx) = setup();
            let slow = format!("{:?}", run_handler_cascade(&mut k, &ctx, &req));
            (fast, slow)
        };
        for (name, _) in SYSCALL_TABLE {
            let (fast, slow) = routes(name);
            assert_eq!(fast, slow, "routing mismatch for {name}");
        }
        // Unknown names agree too (both take the ENOSYS path).
        let (fast, slow) = routes("bogus");
        assert_eq!(fast, slow);
    }
}
