//! `torpedo-kernel`: the simulated Linux substrate TORPEDO fuzzes.
//!
//! This crate models everything the paper's fuzzing algorithm observes or
//! exploits on a real host: a typed syscall interface with per-call CPU
//! cost, control groups with sound *limitation* but leaky *tracking*,
//! namespaces and seccomp, the work-deferral channels of Gao et al.'s
//! "Houdini's Escape" taxonomy (kworker flushes, usermodehelper coredumps
//! and modprobe storms, audit daemons, soft-IRQs), per-core `/proc/stat`
//! accounting, and a `top(1)`-style per-process sampler with the real tool's
//! blind spots.
//!
//! Determinism: all randomness flows from a seed in [`KernelConfig`], so
//! every observer round is exactly reproducible.
//!
//! # Examples
//! ```
//! use torpedo_kernel::{Kernel, Usecs};
//!
//! let mut kernel = Kernel::with_defaults();
//! kernel.begin_round(Usecs::from_secs(5));
//! let out = kernel.finish_round(&[0, 1, 2]);
//! assert_eq!(out.per_core.len(), 12);
//! ```

pub mod cgroup;
pub mod cpu;
pub mod deferral;
pub mod errno;
pub mod kernel;
pub mod leakcheck;
pub mod lsm;
pub mod namespace;
pub mod net;
pub mod process;
pub mod procfs;
pub mod seccomp;
pub mod signal;
mod slots;
pub mod syscalls;
pub mod time;
pub mod top;
pub mod vfs;

pub use cgroup::{Cgroup, CgroupId, CgroupLimits, CgroupTree};
pub use cpu::{CpuCategory, CpuTimes};
pub use deferral::{DeferralChannel, DeferralEvent, DeferralLedger};
pub use errno::Errno;
pub use kernel::{CoverageMode, Kernel, KernelConfig, RoundOutput};
pub use leakcheck::{
    beacon_correlation, detect_coresidence, pearson, CoresidenceVerdict, ProcView,
};
pub use lsm::{MacDecision, MacProfile, MacRule};
pub use process::{DaemonKind, HelperKind, KthreadKind, Pid, ProcessKind};
pub use signal::Signal;
pub use syscalls::{
    dispatch, fallback_signal, nr_of, ExecContext, ExecPolicy, Signals, SyscallOutcome,
    SyscallRequest, NR_UNKNOWN, SYSCALL_TABLE,
};
pub use time::Usecs;

/// A map keyed by a pid. Pids wrap and leave gaps, so unlike cgroup ids
/// and fds (which index a `slots::Slots` table) they are hashed. The
/// kernel assigns them itself and these maps sit on the per-syscall path,
/// so they hash with FNV-1a rather than std's SipHash; maps keyed by
/// strings that programs choose keep the default hasher (DESIGN.md §5b).
pub(crate) type IdMap<K, V> =
    std::collections::HashMap<K, V, torpedo_telemetry::wire::FnvBuildHasher>;
