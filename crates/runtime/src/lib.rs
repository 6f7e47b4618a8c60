//! `torpedo-runtime`: container runtimes and the Docker-like engine.
//!
//! Models the three runtime designs the paper discusses (§2.3.2) — native
//! ([`runc::RunC`]), sandboxed ([`gvisor::GVisor`]) and virtualized
//! ([`kata::Kata`]) — plus a Docker-style [`engine::Engine`] that creates
//! containers with the Table 3.1 resource restrictions and mediates syscall
//! execution through the selected runtime.
//!
//! # Examples
//! ```
//! use torpedo_kernel::{Kernel, SyscallRequest, Usecs};
//! use torpedo_runtime::engine::Engine;
//! use torpedo_runtime::spec::ContainerSpec;
//!
//! let mut kernel = Kernel::with_defaults();
//! let mut engine = Engine::new(&mut kernel);
//! let id = engine
//!     .create(&mut kernel, ContainerSpec::new("fuzz-0").cpuset_cpus(&[0]).cpus(1.0))
//!     .unwrap();
//! kernel.begin_round(Usecs::from_secs(5));
//! let exec = engine
//!     .exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6]))
//!     .unwrap();
//! assert!(exec.outcome.retval > 0);
//! ```

pub mod crun;
pub mod engine;
pub mod faults;
pub mod gvisor;
pub mod kata;
pub mod pods;
pub mod runc;
pub mod spec;

use torpedo_kernel::kernel::Kernel;
use torpedo_kernel::syscalls::{ExecContext, ExecPolicy, SyscallOutcome, SyscallRequest};

pub use crun::Crun;
pub use engine::{ContainerId, ContainerState, Engine};
pub use faults::{
    checkpoint_fault_hit, FaultConfig, FaultCounters, FaultInjector, FaultKind, FaultPlan,
};
pub use gvisor::GVisor;
pub use kata::Kata;
pub use pods::{Kubelet, Pod, PodPhase, PodSpec, RestartPolicy};
pub use runc::RunC;
pub use spec::{ContainerSpec, RuntimeKind};

/// Environment flags for one syscall execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecEnv {
    /// True when the executor is running calls concurrently on multiple
    /// threads (SYZKALLER's "collider" mode) — the trigger for one of the
    /// gVisor `open(2)` crashes (§4.4.1).
    pub collider: bool,
}

/// Why a container died under a runtime bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerCrash {
    /// Short machine-readable reason, e.g. `"sentry-panic-open-flags"`.
    pub reason: String,
    /// The syscall that triggered the crash.
    pub syscall: String,
    /// The raw arguments at crash time.
    pub args: [u64; 6],
}

impl std::fmt::Display for ContainerCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "container crash: {} in {}({:#x}, {:#x}, …)",
            self.reason, self.syscall, self.args[0], self.args[1]
        )
    }
}

/// Result of one runtime-mediated syscall execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeExec {
    /// The syscall outcome as observed by the calling program.
    pub outcome: SyscallOutcome,
    /// Set when the *container* (not just the process) died. Boxed: a
    /// crash is rare, and every call returns this struct by value.
    pub crash: Option<Box<ContainerCrash>>,
}

/// A container runtime: translates container syscalls onto the host kernel.
///
/// Implementing a new runtime and registering it with
/// [`engine::Engine::register_runtime`] is exactly the §5.2 extension path
/// (`crun`, Kata, …).
pub trait Runtime: std::fmt::Debug + Send + Sync {
    /// Registered name (`"runc"`, `"runsc"`, `"kata"`).
    fn name(&self) -> &'static str;

    /// The design family.
    fn kind(&self) -> RuntimeKind;

    /// The execution policy containers under this runtime run with.
    fn policy(&self) -> ExecPolicy;

    /// Whether kcov coverage collection works under this runtime (gVisor
    /// lacks the required ioctl, §3.1.2).
    fn supports_kcov(&self) -> bool {
        self.policy().kcov_available
    }

    /// Execute one syscall on behalf of a containerized process.
    fn execute(
        &self,
        kernel: &mut Kernel,
        ctx: &ExecContext,
        req: SyscallRequest<'_>,
        env: ExecEnv,
    ) -> RuntimeExec;

    /// Fixed per-round runtime overhead charged inside the container's
    /// cgroup (a virtualized runtime's VMM tax); fraction of the window.
    fn standing_overhead(&self) -> f64 {
        0.0
    }

    /// Container startup latency (§5.1 names startup time "an extremely
    /// relevant metric"). `cold` models the first start on a node (image
    /// pull, VM boot) — the cold-start phenomenon the startup oracle must
    /// not mistake for degradation.
    fn startup_cost(&self, cold: bool) -> torpedo_kernel::Usecs {
        let warm = torpedo_kernel::Usecs::from_millis(300);
        if cold {
            warm.scale(3.0)
        } else {
            warm
        }
    }
}

/// Convenience: a completed execution with no crash.
pub(crate) fn completed(outcome: SyscallOutcome) -> RuntimeExec {
    RuntimeExec {
        outcome,
        crash: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_exec_carries_the_crash_by_pointer() {
        use std::mem::size_of;
        assert!(size_of::<RuntimeExec>() <= size_of::<SyscallOutcome>() + size_of::<usize>());
    }

    #[test]
    fn crash_display_mentions_syscall() {
        let crash = ContainerCrash {
            reason: "sentry-panic-open-flags".into(),
            syscall: "open".into(),
            args: [0x7f00, 0x680002, 0x20, 0, 0, 0],
        };
        let shown = crash.to_string();
        assert!(shown.contains("open"));
        assert!(shown.contains("sentry-panic-open-flags"));
    }
}
