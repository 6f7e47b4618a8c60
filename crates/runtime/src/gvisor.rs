//! The sandboxed runtime: a model of gVisor/runsc (§2.3.2).
//!
//! gVisor interposes a userspace kernel ("the Sentry") between the container
//! and the host: syscalls are intercepted, re-implemented with a smaller
//! host syscall surface, and charged to the sandbox itself. The model
//! reproduces the four properties the evaluation observed (§4.4):
//!
//! 1. **Higher syscall overhead** → utilization numbers lower than runC
//!    (compare Tables A.4 and A.1).
//! 2. **No host work deferral** → none of the runC adversarial patterns
//!    reproduce.
//! 3. **No kcov** → fallback coverage only (§3.1.2).
//! 4. **Two `open(2)` bugs** → a flag-pattern crash (§A.2.2: flags
//!    `0x680002` on a libc path kill the container) and a multithreaded
//!    collision crash in collider mode.

use std::collections::HashSet;

use torpedo_kernel::errno::Errno;
use torpedo_kernel::kernel::Kernel;
use torpedo_kernel::syscalls::{
    self, fallback_signal, nr_of, ExecContext, ExecPolicy, Signals, SyscallOutcome, SyscallRequest,
};
use torpedo_kernel::time::Usecs;

use crate::spec::RuntimeKind;
use crate::{completed, ContainerCrash, ExecEnv, Runtime, RuntimeExec};

/// Syscalls the Sentry does not implement at all (subset of the real
/// compatibility gaps; `ENOSYS` to the caller).
const UNSUPPORTED: &[&str] = &[
    "rseq",
    "kcmp",
    "ptrace",
    "personality",
    "getitimer",
    "syncfs",
    "fallocate",
];

/// The `open(2)` flag bits whose combination crashes the Sentry (the paper's
/// recreated crash uses `flags = 0x680002`: `O_RDWR | O_DIRECT-ish
/// high bits`).
const CRASH_FLAG_MASK: u64 = 0x680000;

/// The gVisor runtime model.
#[derive(Debug, Clone)]
pub struct GVisor {
    unsupported: HashSet<&'static str>,
    /// Syscall interception overhead multiplier. The paper reports "gVisor
    /// introduces additional overhead on syscall execution and overall
    /// utilization numbers are lower"; ~2.2x matches published ptrace-mode
    /// microbenchmarks.
    overhead: f64,
    /// Whether the two seeded open(2) bugs are active (disable to model a
    /// fixed Sentry for ablations).
    bugs_enabled: bool,
}

impl GVisor {
    /// A Sentry with the evaluation-era bugs present.
    pub fn new() -> GVisor {
        GVisor {
            unsupported: UNSUPPORTED.iter().copied().collect(),
            overhead: 2.2,
            bugs_enabled: true,
        }
    }

    /// A Sentry with the open(2) bugs fixed (ablation / regression model).
    pub fn patched() -> GVisor {
        GVisor {
            bugs_enabled: false,
            ..GVisor::new()
        }
    }

    /// Whether `name` is implemented by the Sentry.
    pub fn supports(&self, name: &str) -> bool {
        !self.unsupported.contains(name)
    }

    fn enosys(&self, name: &str) -> SyscallOutcome {
        SyscallOutcome {
            retval: Errno::ENOSYS.as_retval(),
            errno: Some(Errno::ENOSYS),
            fatal_signal: None,
            user: Usecs(1),
            system: Usecs(3),
            blocked: Usecs::ZERO,
            coverage: Signals::one(fallback_signal(
                nr_of(name).unwrap_or(u32::MAX),
                Some(Errno::ENOSYS),
            )),
            throttled: false,
        }
    }

    fn crash(&self, reason: &str, req: &SyscallRequest<'_>) -> RuntimeExec {
        RuntimeExec {
            outcome: SyscallOutcome {
                retval: Errno::EIO.as_retval(),
                errno: Some(Errno::EIO),
                fatal_signal: None,
                user: Usecs(2),
                system: Usecs(8),
                blocked: Usecs::ZERO,
                coverage: Signals::one(fallback_signal(
                    nr_of(req.name).unwrap_or(u32::MAX),
                    Some(Errno::EIO),
                )),
                throttled: false,
            },
            crash: Some(Box::new(ContainerCrash {
                reason: reason.to_string(),
                syscall: req.name.to_string(),
                args: req.args,
            })),
        }
    }
}

impl Default for GVisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime for GVisor {
    fn name(&self) -> &'static str {
        "runsc"
    }

    fn kind(&self) -> RuntimeKind {
        RuntimeKind::Sandboxed
    }

    fn policy(&self) -> ExecPolicy {
        ExecPolicy {
            host_deferrals: false,
            overhead: self.overhead,
            kcov_available: false,
        }
    }

    fn execute(
        &self,
        kernel: &mut Kernel,
        ctx: &ExecContext,
        req: SyscallRequest<'_>,
        env: ExecEnv,
    ) -> RuntimeExec {
        if !self.supports(req.name) {
            return completed(self.enosys(req.name));
        }
        if self.bugs_enabled && req.name == "open" {
            // Bug 1 (§A.2.2): a specific flag pattern on a resolvable path
            // panics the Sentry's overlay filesystem and kills the container.
            let flags = req.args[1];
            let path_resolves = req.paths[0].is_some_and(|p| kernel.vfs.lookup(p).is_some());
            if flags & CRASH_FLAG_MASK == CRASH_FLAG_MASK && path_resolves {
                return self.crash("sentry-panic-open-flags", &req);
            }
            // Bug 2 (§4.4.1): open racing other syscalls on sibling threads
            // hits an unsynchronized descriptor-table path in the Sentry.
            if env.collider && flags & 0x8000 != 0 {
                return self.crash("sentry-race-open-collider", &req);
            }
        }
        completed(syscalls::dispatch(kernel, ctx, req))
    }

    fn standing_overhead(&self) -> f64 {
        // The Sentry and its platform threads keep a few percent of a core
        // busy even between syscalls.
        0.03
    }

    fn startup_cost(&self, cold: bool) -> torpedo_kernel::Usecs {
        // Booting the sentry and its platform costs noticeably more than a
        // native runtime's setup-and-exit.
        let warm = torpedo_kernel::Usecs::from_millis(800);
        if cold {
            warm.scale(3.0)
        } else {
            warm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_kernel::cgroup::CgroupTree;
    use torpedo_kernel::process::ProcessKind;

    fn ctx(kernel: &mut Kernel) -> ExecContext {
        let cg = kernel
            .cgroups
            .create(CgroupTree::ROOT, "docker/g", Default::default())
            .unwrap();
        let pid = kernel.procs.spawn(
            "syz-executor-0",
            ProcessKind::Executor {
                container: "g".into(),
            },
            cg,
        );
        ExecContext {
            pid,
            cgroup: cg,
            core: 0,
            cpuset: vec![0],
            policy: GVisor::new().policy(),
        }
    }

    #[test]
    fn unsupported_syscalls_are_enosys() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::new();
        for name in ["rseq", "kcmp", "fallocate"] {
            let exec = g.execute(
                &mut kernel,
                &ctx,
                SyscallRequest::new(name, [0; 6]),
                ExecEnv::default(),
            );
            assert_eq!(exec.outcome.errno, Some(Errno::ENOSYS), "{name}");
            assert!(exec.crash.is_none());
        }
    }

    #[test]
    fn open_flag_pattern_crashes_container() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::new();
        // The paper's exact reproducer: open(libc path, 0x680002, 0x20).
        let req = SyscallRequest::new("open", [0, 0x680002, 0x20, 0, 0, 0])
            .with_path(0, "/lib/x86_64-Linux-gnu/libc.so.6");
        let exec = g.execute(&mut kernel, &ctx, req, ExecEnv::default());
        let crash = exec.crash.expect("container must crash");
        assert_eq!(crash.reason, "sentry-panic-open-flags");
        assert_eq!(crash.syscall, "open");
    }

    #[test]
    fn crash_needs_resolvable_path() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::new();
        let req =
            SyscallRequest::new("open", [0, 0x680002, 0x20, 0, 0, 0]).with_path(0, "/no/such/path");
        let exec = g.execute(&mut kernel, &ctx, req, ExecEnv::default());
        assert!(exec.crash.is_none());
    }

    #[test]
    fn collider_open_race_crashes() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::new();
        let req = SyscallRequest::new("open", [0, 0x8000, 0, 0, 0, 0]).with_path(0, "/etc/passwd");
        let calm = g.execute(&mut kernel, &ctx, req, ExecEnv { collider: false });
        assert!(calm.crash.is_none());
        let racy = g.execute(&mut kernel, &ctx, req, ExecEnv { collider: true });
        assert_eq!(racy.crash.unwrap().reason, "sentry-race-open-collider");
    }

    #[test]
    fn patched_sentry_does_not_crash() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::patched();
        let req = SyscallRequest::new("open", [0, 0x680002, 0x20, 0, 0, 0])
            .with_path(0, "/lib/x86_64-Linux-gnu/libc.so.6");
        let exec = g.execute(&mut kernel, &ctx, req, ExecEnv::default());
        assert!(exec.crash.is_none());
    }

    #[test]
    fn no_host_deferrals_under_gvisor() {
        let mut kernel = Kernel::with_defaults();
        let ctx = ctx(&mut kernel);
        kernel.begin_round(Usecs::from_secs(5));
        let g = GVisor::new();
        // The runC modprobe storm: under the Sentry netstack the family is
        // simply unsupported, no host module loading happens.
        let exec = g.execute(
            &mut kernel,
            &ctx,
            SyscallRequest::new("socket", [9, 3, 0, 0, 0, 0]),
            ExecEnv::default(),
        );
        assert_eq!(exec.outcome.errno, Some(Errno::EAFNOSUPPORT));
        let out = kernel.finish_round(&[0]);
        assert!(out.deferrals.is_empty(), "no OOB work under gVisor");
        assert_eq!(kernel.net.modprobe_exec_count, 0);
    }

    #[test]
    fn overhead_is_higher_than_runc() {
        let g = GVisor::new();
        assert!(g.policy().overhead > 1.5);
        assert!(!g.supports_kcov());
        assert!(g.standing_overhead() > 0.0);
    }
}
