//! A Docker-like container engine (§2.3.1).
//!
//! The engine owns the runtime registry, creates containers with the
//! Table 3.1 restrictions (cgroup + cpuset + quota), spawns the packaged
//! executor entrypoint into each, applies the seccomp profile at call time,
//! and mediates syscall execution through the selected runtime.
//!
//! It also models the engine's own cost: §3.3 notes that driving containers
//! through the Docker CLI and streaming their output "results in a
//! non-trivial workload being placed on the docker engine" via TTY/LDISC
//! work-queue flushes — charged each round by [`Engine::round_overhead`].
//!
//! Containers are plain data in a map ordered by name. The syscall path
//! takes `&self` and a `&Container`; the one field it writes, a container's
//! crash, is a [`OnceLock`] that [`Engine::restart`] clears through `&mut`.
//! Parallel executors (§1.2's "multiple fuzzing processes … without
//! compromising measurement accuracy") never share an engine: each worker
//! of the threaded observer owns a whole kernel-and-engine partition for
//! its window, and every other engine has one owner on one thread.
//! Lifecycle operations (create/restart/remove) take `&mut self`.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use torpedo_kernel::cgroup::{CgroupError, CgroupId, CgroupLimits};
use torpedo_kernel::cpu::CpuCategory;
use torpedo_kernel::deferral::DeferralChannel;
use torpedo_kernel::errno::Errno;
use torpedo_kernel::kernel::Kernel;
use torpedo_kernel::process::{DaemonKind, Pid, ProcessKind};
use torpedo_kernel::syscalls::{
    fallback_signal, nr_of, ExecContext, Signals, SyscallOutcome, SyscallRequest,
};
use torpedo_kernel::time::Usecs;
use torpedo_telemetry::{SpanKind, Telemetry};

use std::sync::Arc;

use crate::crun::Crun;
use crate::faults::{FaultCounters, FaultInjector, FaultKind};
use crate::gvisor::GVisor;
use crate::kata::Kata;
use crate::runc::RunC;
use crate::spec::ContainerSpec;
use crate::{ContainerCrash, ExecEnv, Runtime, RuntimeExec};

/// containerd-style metrics for one container (Table 2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMetrics {
    /// CPU charged to the container's cgroup in the current window.
    pub cpu_charged: Usecs,
    /// Memory currently charged.
    pub memory_used: u64,
    /// Block-I/O bytes charged in the current window.
    pub io_bytes: u64,
    /// Lifetime memory-controller rejections (OOM events).
    pub oom_events: u64,
    /// Times the workload process died and was restarted this round.
    pub workload_restarts: u32,
    /// Lifecycle state.
    pub state: ContainerState,
}

/// Opaque handle to a created container.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContainerId(String);

impl ContainerId {
    /// The container name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, PartialEq)]
pub enum ContainerState {
    /// Accepting work.
    Running,
    /// Died under a runtime bug.
    Crashed(ContainerCrash),
}

/// A created container.
#[derive(Debug)]
pub struct Container {
    spec: ContainerSpec,
    cgroup: CgroupId,
    executor_pid: Pid,
    sentry_pid: Option<Pid>,
    core: usize,
    /// Set by the exec path when a runtime bug kills the container, and
    /// cleared by [`Engine::restart`]; unset means running.
    crash: OnceLock<ContainerCrash>,
    namespaces: torpedo_kernel::namespace::NamespaceSet,
    uid_mapping: torpedo_kernel::namespace::UidMapping,
    /// Pre-built execution context — constant between restarts, so the
    /// per-syscall path borrows it instead of rebuilding (the cpuset `Vec`
    /// allocation and runtime-policy lookup used to run once per call).
    ctx: ExecContext,
    /// The runtime `spec.runtime` named when the container was created,
    /// so no syscall looks it up by name.
    runtime: Arc<dyn Runtime>,
}

impl Container {
    /// The container's spec.
    pub fn spec(&self) -> &ContainerSpec {
        &self.spec
    }

    /// The container's cgroup.
    pub fn cgroup(&self) -> CgroupId {
        self.cgroup
    }

    /// The executor process inside the container.
    pub fn executor_pid(&self) -> Pid {
        self.executor_pid
    }

    /// The core the executor is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Current state.
    pub fn state(&self) -> ContainerState {
        match self.crash.get() {
            Some(crash) => ContainerState::Crashed(crash.clone()),
            None => ContainerState::Running,
        }
    }

    fn running(&self) -> bool {
        self.crash.get().is_none()
    }

    /// The container's namespace set (§2.2.2): fresh PID/NET/MNT/UTS/IPC
    /// instances, host cgroup namespace (Docker default), and a USER
    /// namespace instance only under `userns-remap`.
    pub fn namespaces(&self) -> &torpedo_kernel::namespace::NamespaceSet {
        &self.namespaces
    }

    /// The UID translation in force (§2.4.2).
    pub fn uid_mapping(&self) -> torpedo_kernel::namespace::UidMapping {
        self.uid_mapping
    }

    /// The runtime-imposed execution policy this container runs under —
    /// readable from the container alone, so the executor prices its glue
    /// without a second engine lookup.
    pub fn policy(&self) -> torpedo_kernel::syscalls::ExecPolicy {
        self.ctx.policy
    }
}

/// Errors from engine operations.
#[derive(Debug)]
pub enum EngineError {
    /// The requested `--runtime` is not registered.
    UnknownRuntime(String),
    /// A container with that name already exists.
    DuplicateName(String),
    /// No container with that id.
    NoSuchContainer(String),
    /// The container crashed and has not been restarted.
    NotRunning(String),
    /// cgroup setup failed.
    Cgroup(CgroupError),
    /// Container start failed before the executor spawned (fault-injected
    /// or a runtime setup error).
    StartFailed(String),
    /// Writing the container's cgroup limits failed.
    CgroupWriteFailed(String),
    /// The runtime hit a transient error executing a syscall.
    ExecFault(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownRuntime(name) => write!(f, "unknown runtime: {name}"),
            EngineError::DuplicateName(name) => write!(f, "container name in use: {name}"),
            EngineError::NoSuchContainer(name) => write!(f, "no such container: {name}"),
            EngineError::NotRunning(name) => write!(f, "container not running: {name}"),
            EngineError::Cgroup(err) => write!(f, "cgroup setup failed: {err}"),
            EngineError::StartFailed(name) => write!(f, "container start failed: {name}"),
            EngineError::CgroupWriteFailed(name) => {
                write!(f, "cgroup write failed for container: {name}")
            }
            EngineError::ExecFault(name) => {
                write!(f, "transient runtime exec error in container: {name}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CgroupError> for EngineError {
    fn from(err: CgroupError) -> Self {
        EngineError::Cgroup(err)
    }
}

/// The container engine.
pub struct Engine {
    runtimes: HashMap<&'static str, Arc<dyn Runtime>>,
    /// Containers by name. Iteration runs in name order, so charge order
    /// and the deferral ledger never depend on hashing.
    containers: BTreeMap<String, Container>,
    docker_cgroup: CgroupId,
    /// Runtimes that have started at least one container (cold-start state).
    warmed_runtimes: std::collections::HashSet<&'static str>,
    /// Startup latencies measured since the last drain (startup oracle feed).
    startup_log: Vec<Usecs>,
    /// Fault injector for robustness testing; `None` (the default) means
    /// every fault check is a single branch on an empty `Option`.
    faults: Option<Arc<dyn FaultInjector>>,
    /// Span sink for the engine's share of the snapshot stage
    /// ([`Engine::round_overhead`]); disabled (free) by default.
    telemetry: Telemetry,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("runtimes", &self.runtimes.keys().collect::<Vec<_>>())
            .field("containers", &self.containers.len())
            .finish()
    }
}

impl Engine {
    /// Start an engine on `kernel` with runC, crun, gVisor and Kata registered.
    pub fn new(kernel: &mut Kernel) -> Engine {
        let docker_cgroup = kernel
            .cgroups
            .create(
                torpedo_kernel::cgroup::CgroupTree::ROOT,
                "docker",
                CgroupLimits::default(),
            )
            .expect("root cgroup exists");
        let mut engine = Engine {
            runtimes: HashMap::new(),
            containers: BTreeMap::new(),
            docker_cgroup,
            warmed_runtimes: std::collections::HashSet::new(),
            startup_log: Vec::new(),
            faults: None,
            telemetry: Telemetry::disabled(),
        };
        engine.register_runtime(Box::new(RunC::new()));
        engine.register_runtime(Box::new(Crun::new()));
        engine.register_runtime(Box::new(GVisor::new()));
        engine.register_runtime(Box::new(Kata::new()));
        engine
    }

    /// Register (or replace) a runtime implementation — the §5.2 extension
    /// point for `crun`, patched Sentries, etc. Containers created before a
    /// replacement keep the runtime they were created with.
    pub fn register_runtime(&mut self, runtime: Box<dyn Runtime>) {
        self.runtimes.insert(runtime.name(), Arc::from(runtime));
    }

    /// Install a fault injector; subsequent engine I/O rolls against it.
    pub fn set_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Install a telemetry handle; the engine's round-overhead charge then
    /// records under the `snapshot` span (nested inside the observer's).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Faults injected so far (all-zero when no injector is installed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters())
            .unwrap_or_default()
    }

    /// Roll the installed injector, if any.
    fn fault(&self, kind: FaultKind, scope: &str) -> bool {
        match &self.faults {
            Some(f) => f.roll(kind, scope),
            None => false,
        }
    }

    /// Registered runtime names.
    pub fn runtime_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.runtimes.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Create and start a container.
    ///
    /// # Errors
    /// [`EngineError::UnknownRuntime`] for an unregistered `--runtime`,
    /// [`EngineError::DuplicateName`] for a name collision.
    pub fn create(
        &mut self,
        kernel: &mut Kernel,
        spec: ContainerSpec,
    ) -> Result<ContainerId, EngineError> {
        let runtime = self
            .runtimes
            .get(spec.runtime.as_str())
            .map(Arc::clone)
            .ok_or_else(|| EngineError::UnknownRuntime(spec.runtime.clone()))?;
        if self.containers.contains_key(&spec.name) {
            return Err(EngineError::DuplicateName(spec.name.clone()));
        }
        if self.fault(FaultKind::StartFail, &spec.name) {
            return Err(EngineError::StartFailed(spec.name.clone()));
        }
        if self.fault(FaultKind::CgroupWriteFail, &spec.name) {
            return Err(EngineError::CgroupWriteFailed(spec.name.clone()));
        }
        let cgroup = kernel.cgroups.create(
            self.docker_cgroup,
            &format!("docker/{}", spec.name),
            CgroupLimits {
                cpu_quota_cores: spec.cpus,
                cpuset: if spec.cpuset.is_empty() {
                    None
                } else {
                    Some(spec.cpuset.clone())
                },
                memory_bytes: spec.memory_bytes,
                blkio_weight: None,
            },
        )?;
        // Startup latency: dockerd + runtime setup; cold the first time a
        // runtime starts anything on this node (§5.1's cold-start caveat).
        let cold = self.warmed_runtimes.insert(runtime.name());
        let startup = runtime.startup_cost(cold);
        self.startup_log.push(startup);
        let core = spec.cpuset.first().copied().unwrap_or(0);
        let executor_pid = kernel.procs.spawn(
            &format!("syz-executor-{}", spec.name),
            ProcessKind::Executor {
                container: spec.name.clone(),
            },
            cgroup,
        );
        let sentry_pid = if matches!(runtime.kind(), crate::RuntimeKind::Sandboxed) {
            Some(kernel.procs.spawn(
                &format!("runsc-sandbox-{}", spec.name),
                ProcessKind::Daemon(DaemonKind::GvisorSentry),
                cgroup,
            ))
        } else {
            None
        };
        // Namespace setup (§2.2.2): every container gets fresh PID, NET,
        // MNT, UTS and IPC instances; the USER namespace only under
        // userns-remap (Docker leaves it 1:1 by default — §2.4.2's hazard).
        use torpedo_kernel::namespace::{NamespaceKind, NamespaceSet, NsId, UidMapping};
        let mut namespaces = NamespaceSet::host();
        let ns_base = (self.containers.len() as u32 + 1) * 16;
        for (i, kind) in [
            NamespaceKind::Pid,
            NamespaceKind::Net,
            NamespaceKind::Mount,
            NamespaceKind::Uts,
            NamespaceKind::Ipc,
        ]
        .into_iter()
        .enumerate()
        {
            namespaces.set(kind, NsId(ns_base + i as u32));
        }
        let uid_mapping = if spec.userns_remap {
            namespaces.set(NamespaceKind::User, NsId(ns_base + 5));
            UidMapping::subuid()
        } else {
            UidMapping::identity()
        };
        let id = ContainerId(spec.name.clone());
        let ctx = ExecContext {
            pid: executor_pid,
            cgroup,
            core,
            cpuset: if spec.cpuset.is_empty() {
                (0..kernel.cores()).collect()
            } else {
                spec.cpuset.clone()
            },
            policy: runtime.policy(),
        };
        self.containers.insert(
            spec.name.clone(),
            Container {
                spec,
                cgroup,
                executor_pid,
                sentry_pid,
                core,
                crash: OnceLock::new(),
                namespaces,
                uid_mapping,
                ctx,
                runtime,
            },
        );
        Ok(id)
    }

    /// Look up a container. The executor looks its container up once per
    /// `run_until` window and issues every call through
    /// [`Engine::exec_in`].
    pub fn container(&self, id: &ContainerId) -> Option<&Container> {
        self.containers.get(&id.0)
    }

    /// Ids of all containers, in name order.
    pub fn container_ids(&self) -> Vec<ContainerId> {
        self.containers
            .keys()
            .map(|n| ContainerId(n.clone()))
            .collect()
    }

    /// Execute one syscall inside a container (no collider).
    ///
    /// # Errors
    /// [`EngineError::NoSuchContainer`], and whatever [`Engine::exec_in`]
    /// returns.
    pub fn exec(
        &self,
        kernel: &mut Kernel,
        id: &ContainerId,
        req: SyscallRequest<'_>,
    ) -> Result<RuntimeExec, EngineError> {
        let container = self
            .container(id)
            .ok_or_else(|| EngineError::NoSuchContainer(id.0.clone()))?;
        self.exec_in(kernel, container, req, ExecEnv::default())
    }

    /// Execute one syscall inside `container` with explicit [`ExecEnv`].
    ///
    /// Applies the container's seccomp profile first: blocked syscalls fail
    /// with `EPERM` without reaching the runtime.
    ///
    /// # Errors
    /// [`EngineError::NotRunning`] when the container crashed, and
    /// [`EngineError::ExecFault`] for an injected transient error.
    pub fn exec_in(
        &self,
        kernel: &mut Kernel,
        container: &Container,
        req: SyscallRequest<'_>,
        env: ExecEnv,
    ) -> Result<RuntimeExec, EngineError> {
        if !container.running() {
            return Err(EngineError::NotRunning(container.spec.name.clone()));
        }
        if self.fault(FaultKind::ExecError, &container.spec.name) {
            return Err(EngineError::ExecFault(container.spec.name.clone()));
        }
        if container.spec.seccomp.blocks(req.name) {
            return Ok(RuntimeExec {
                outcome: seccomp_denied(req.name),
                crash: None,
            });
        }
        // Mandatory access control (§2.2.3): any path payload outside the
        // profile's limits fails with EACCES before reaching the kernel.
        if req
            .paths
            .iter()
            .flatten()
            .any(|p| container.spec.apparmor.denies(p))
        {
            return Ok(RuntimeExec {
                outcome: mac_denied(req.name),
                crash: None,
            });
        }
        let exec = if self.fault(FaultKind::ContainerCrash, &container.spec.name) {
            // Synthesize a runtime-bug crash; the shared crash path below
            // transitions the container and reaps its processes.
            RuntimeExec {
                outcome: fault_crash_outcome(req.name),
                crash: Some(Box::new(ContainerCrash {
                    reason: "fault-injected-crash".into(),
                    syscall: req.name.to_string(),
                    args: req.args,
                })),
            }
        } else {
            container.runtime.execute(kernel, &container.ctx, req, env)
        };
        if let Some(crash) = &exec.crash {
            container.crash.get_or_init(|| ContainerCrash::clone(crash));
            kernel.procs.exit(container.executor_pid);
            if let Some(sentry) = container.sentry_pid {
                kernel.procs.exit(sentry);
            }
        } else if exec.outcome.fatal_signal.is_some() {
            // The workload process died; the entrypoint restarts it (the
            // SYZKALLER executor loop behaviour) at a small in-cgroup cost.
            kernel.procs.restart(container.executor_pid);
            kernel.charge_user_system(
                container.core,
                Usecs(20),
                Usecs(35),
                container.executor_pid,
                container.cgroup,
            );
        }
        Ok(exec)
    }

    /// Restart a crashed container (fresh executor process, same spec).
    ///
    /// # Errors
    /// [`EngineError::NoSuchContainer`] if absent.
    pub fn restart(&mut self, kernel: &mut Kernel, id: &ContainerId) -> Result<(), EngineError> {
        if self.fault(FaultKind::StartFail, &id.0) {
            return Err(EngineError::StartFailed(id.0.clone()));
        }
        let container = self
            .containers
            .get_mut(&id.0)
            .ok_or_else(|| EngineError::NoSuchContainer(id.0.clone()))?;
        let sandboxed = matches!(container.runtime.kind(), crate::RuntimeKind::Sandboxed);
        let startup = container.runtime.startup_cost(false);
        kernel.release_process_state(container.executor_pid);
        container.executor_pid = kernel.procs.spawn(
            &format!("syz-executor-{}", container.spec.name),
            ProcessKind::Executor {
                container: container.spec.name.clone(),
            },
            container.cgroup,
        );
        container.ctx.pid = container.executor_pid;
        if sandboxed {
            container.sentry_pid = Some(kernel.procs.spawn(
                &format!("runsc-sandbox-{}", container.spec.name),
                ProcessKind::Daemon(DaemonKind::GvisorSentry),
                container.cgroup,
            ));
        }
        container.crash.take();
        self.startup_log.push(startup);
        Ok(())
    }

    /// Remove a container and its cgroup.
    ///
    /// # Errors
    /// [`EngineError::NoSuchContainer`] if absent.
    pub fn remove(&mut self, kernel: &mut Kernel, id: &ContainerId) -> Result<(), EngineError> {
        let container = self
            .containers
            .remove(&id.0)
            .ok_or_else(|| EngineError::NoSuchContainer(id.0.clone()))?;
        kernel.procs.exit(container.executor_pid);
        if let Some(sentry) = container.sentry_pid {
            kernel.procs.exit(sentry);
        }
        kernel.release_process_state(container.executor_pid);
        kernel.cgroups.remove(container.cgroup)?;
        Ok(())
    }

    /// containerd-style container metrics (Table 2.2: "container-level
    /// metrics, cgroup stats and OOM events").
    pub fn metrics(&self, kernel: &Kernel, id: &ContainerId) -> Option<ContainerMetrics> {
        let container = self.containers.get(&id.0)?;
        let cg = kernel.cgroups.get(container.cgroup)?;
        let restarts = kernel
            .procs
            .get(container.executor_pid)
            .map_or(0, |p| p.restarts());
        Some(ContainerMetrics {
            cpu_charged: cg.charged_cpu(),
            memory_used: cg.charged_memory(),
            io_bytes: cg.charged_io_bytes(),
            oom_events: cg.oom_events(),
            workload_restarts: restarts,
            state: container.state(),
        })
    }

    /// Drain the startup latencies measured since the last call (the
    /// startup oracle's feed).
    pub fn drain_startup_log(&mut self) -> Vec<Usecs> {
        std::mem::take(&mut self.startup_log)
    }

    /// Charge the engine's per-round overhead: dockerd/containerd CPU for
    /// each streaming container, the TTY/LDISC flush deferral of §3.3, and
    /// any standing runtime overhead (sentry housekeeping, VMM tax).
    pub fn round_overhead(&self, kernel: &mut Kernel, window: Usecs) {
        // The engine's slice of the observer's snapshot stage; nested inside
        // the observer's own snapshot span when telemetry is enabled.
        let _span = self.telemetry.span(SpanKind::Snapshot);
        if !self.containers.values().any(Container::running) {
            return;
        }
        // dockerd + containerd stream executor output: a little user+system
        // per active container, in the system slice.
        let dockerd = kernel.boot.dockerd;
        let containerd = kernel.boot.containerd;
        let dcg = kernel
            .procs
            .get(dockerd)
            .map(|p| p.cgroup())
            .unwrap_or(torpedo_kernel::cgroup::CgroupTree::ROOT);
        let ccg = kernel
            .procs
            .get(containerd)
            .map(|p| p.cgroup())
            .unwrap_or(torpedo_kernel::cgroup::CgroupTree::ROOT);
        let all_cpusets: Vec<usize> = self
            .containers
            .values()
            .flat_map(|c| c.spec.cpuset.iter().copied())
            .collect();
        let engine_core = kernel.pick_victim_core(&all_cpusets);
        let per_container = window.scale(0.004);
        // Name order: charge order and the deferral ledger are part of the
        // replay-deterministic round log.
        for c in self.containers.values().filter(|c| c.running()) {
            let (cgroup, pid, core) = (c.cgroup, c.executor_pid, c.core);
            kernel.charge(engine_core, CpuCategory::User, per_container, dockerd, dcg);
            kernel.charge(
                engine_core,
                CpuCategory::System,
                per_container.scale(0.6),
                containerd,
                ccg,
            );
            // Output streaming flushes through the TTY LDISC work queue —
            // deferred kernel work the container is never charged for.
            kernel.defer_work(
                DeferralChannel::TtyFlush,
                pid,
                cgroup,
                &all_cpusets,
                window.scale(0.002),
                "write",
            );
            // Standing runtime overhead inside the container's own budget.
            let standing = c.runtime.standing_overhead();
            if standing > 0.0 {
                kernel.charge(
                    core,
                    CpuCategory::System,
                    window.scale(standing),
                    pid,
                    cgroup,
                );
            }
        }
    }
}

/// The outcome a program observes when a fault kills its container mid-call.
fn fault_crash_outcome(name: &str) -> SyscallOutcome {
    SyscallOutcome {
        retval: Errno::EIO.as_retval(),
        errno: Some(Errno::EIO),
        fatal_signal: None,
        user: Usecs(1),
        system: Usecs(4),
        blocked: Usecs::ZERO,
        coverage: Signals::one(fallback_signal(
            nr_of(name).unwrap_or(u32::MAX),
            Some(Errno::EIO),
        )),
        throttled: false,
    }
}

fn mac_denied(name: &str) -> SyscallOutcome {
    SyscallOutcome {
        retval: Errno::EACCES.as_retval(),
        errno: Some(Errno::EACCES),
        fatal_signal: None,
        user: Usecs(1),
        system: Usecs(3),
        blocked: Usecs::ZERO,
        coverage: Signals::one(fallback_signal(
            nr_of(name).unwrap_or(u32::MAX),
            Some(Errno::EACCES),
        )),
        throttled: false,
    }
}

fn seccomp_denied(name: &str) -> SyscallOutcome {
    SyscallOutcome {
        retval: Errno::EPERM.as_retval(),
        errno: Some(Errno::EPERM),
        fatal_signal: None,
        user: Usecs(1),
        system: Usecs(2),
        blocked: Usecs::ZERO,
        coverage: Signals::one(fallback_signal(
            nr_of(name).unwrap_or(u32::MAX),
            Some(Errno::EPERM),
        )),
        throttled: false,
    }
}

/// Build the one-container replay environment shared by crash reproduction
/// and forensics bundle replay: a fresh engine on `kernel` running a single
/// container of `runtime` named `name`, pinned to core 0 with a full-core
/// quota — the solo confirmation shape of §4.1.3.
///
/// # Errors
/// Propagates [`Engine::create`] failures (unknown runtime, injected start
/// faults, …).
pub fn replay_environment(
    kernel: &mut Kernel,
    runtime: &str,
    name: &str,
) -> Result<(Engine, ContainerId), EngineError> {
    let mut engine = Engine::new(kernel);
    let id = engine.create(
        kernel,
        ContainerSpec::new(name)
            .runtime_name(runtime)
            .cpuset_cpus(&[0])
            .cpus(1.0),
    )?;
    Ok((engine, id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_kernel::seccomp::SeccompProfile;

    fn setup() -> (Kernel, Engine) {
        let mut kernel = Kernel::with_defaults();
        let engine = Engine::new(&mut kernel);
        (kernel, engine)
    }

    #[test]
    fn registry_has_all_runtimes() {
        let (_, engine) = setup();
        assert_eq!(
            engine.runtime_names(),
            vec!["crun", "kata", "runc", "runsc"]
        );
    }

    #[test]
    fn create_applies_table_3_1_restrictions() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("fuzz-0").cpuset_cpus(&[2]).cpus(1.5),
            )
            .unwrap();
        let c = engine.container(&id).unwrap();
        assert_eq!(c.core(), 2);
        let cg = kernel.cgroups.get(c.cgroup()).unwrap();
        assert_eq!(cg.limits().cpu_quota_cores, Some(1.5));
        assert_eq!(cg.limits().cpuset, Some(vec![2]));
        assert!(kernel.procs.get(c.executor_pid()).unwrap().alive());
    }

    #[test]
    fn duplicate_and_unknown_runtime_rejected() {
        let (mut kernel, mut engine) = setup();
        engine
            .create(&mut kernel, ContainerSpec::new("dup"))
            .unwrap();
        assert!(matches!(
            engine.create(&mut kernel, ContainerSpec::new("dup")),
            Err(EngineError::DuplicateName(_))
        ));
        assert!(matches!(
            engine.create(&mut kernel, ContainerSpec::new("x").runtime_name("youki")),
            Err(EngineError::UnknownRuntime(_))
        ));
    }

    #[test]
    fn exec_routes_through_runtime() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(&mut kernel, ContainerSpec::new("f").cpuset_cpus(&[0]))
            .unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let exec = engine
            .exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6]))
            .unwrap();
        assert!(exec.outcome.retval > 0);
        assert!(exec.crash.is_none());
    }

    #[test]
    fn seccomp_blocks_before_kernel() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("locked").seccomp(SeccompProfile::docker_default()),
            )
            .unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let exec = engine
            .exec(&mut kernel, &id, SyscallRequest::new("ptrace", [0; 6]))
            .unwrap();
        assert_eq!(exec.outcome.errno, Some(Errno::EPERM));
    }

    #[test]
    fn gvisor_crash_transitions_state_and_restart_recovers() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("g")
                    .runtime_name("runsc")
                    .cpuset_cpus(&[1]),
            )
            .unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let req = SyscallRequest::new("open", [0, 0x680002, 0x20, 0, 0, 0])
            .with_path(0, "/lib/x86_64-Linux-gnu/libc.so.6");
        let exec = engine.exec(&mut kernel, &id, req).unwrap();
        assert!(exec.crash.is_some());
        assert!(matches!(
            engine.container(&id).unwrap().state(),
            ContainerState::Crashed(_)
        ));
        // Further execs are rejected until restart.
        assert!(matches!(
            engine.exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6])),
            Err(EngineError::NotRunning(_))
        ));
        engine.restart(&mut kernel, &id).unwrap();
        assert!(matches!(
            engine.container(&id).unwrap().state(),
            ContainerState::Running
        ));
        let ok = engine
            .exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6]))
            .unwrap();
        assert!(ok.crash.is_none());
    }

    #[test]
    fn fatal_signal_restarts_workload_in_place() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(&mut kernel, ContainerSpec::new("f").cpuset_cpus(&[0]))
            .unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let exec = engine
            .exec(
                &mut kernel,
                &id,
                SyscallRequest::new("rt_sigreturn", [0; 6]),
            )
            .unwrap();
        assert!(exec.outcome.fatal_signal.is_some());
        let pid = engine.container(&id).unwrap().executor_pid();
        let proc = kernel.procs.get(pid).unwrap();
        assert!(proc.alive(), "entrypoint restarted the workload");
        assert_eq!(proc.restarts(), 1);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Engine>();
    }

    #[test]
    fn round_overhead_defers_tty_flushes() {
        // Created in name order and against it: cgroup ids follow creation,
        // the listing and the flushes follow names.
        for names in [["a", "b"], ["b", "a"]] {
            let (mut kernel, mut engine) = setup();
            for (core, name) in names.into_iter().enumerate() {
                engine
                    .create(&mut kernel, ContainerSpec::new(name).cpuset_cpus(&[core]))
                    .unwrap();
            }
            let ids = engine.container_ids();
            let listed: Vec<&str> = ids.iter().map(ContainerId::name).collect();
            assert_eq!(listed, ["a", "b"]);
            kernel.begin_round(Usecs::from_secs(5));
            engine.round_overhead(&mut kernel, Usecs::from_secs(5));
            let out = kernel.finish_round(&[0, 1]);
            let tty: Vec<CgroupId> = out
                .deferrals
                .iter()
                .filter(|e| e.channel == DeferralChannel::TtyFlush)
                .map(|e| e.origin_cgroup)
                .collect();
            let by_name: Vec<CgroupId> = ids
                .iter()
                .map(|id| engine.container(id).unwrap().cgroup())
                .collect();
            assert_eq!(tty, by_name, "one flush stream per container, by name");
        }
    }

    #[test]
    fn apparmor_profile_blocks_paths_with_eacces() {
        use torpedo_kernel::lsm::MacProfile;
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("confined").apparmor(MacProfile::docker_default()),
            )
            .unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let denied = SyscallRequest::new("open", [0, 2, 0, 0, 0, 0])
            .with_path(0, "/proc/sys/fs/mqueue/msg_max");
        let exec = engine.exec(&mut kernel, &id, denied).unwrap();
        assert_eq!(exec.outcome.errno, Some(Errno::EACCES));
        let allowed = SyscallRequest::new("open", [0, 0, 0, 0, 0, 0]).with_path(0, "/etc/passwd");
        let exec = engine.exec(&mut kernel, &id, allowed).unwrap();
        assert!(exec.outcome.retval >= 3);
    }

    #[test]
    fn namespaces_isolate_containers_from_host_and_each_other() {
        use torpedo_kernel::namespace::NamespaceKind;
        let (mut kernel, mut engine) = setup();
        let a = engine
            .create(&mut kernel, ContainerSpec::new("nsa"))
            .unwrap();
        let b = engine
            .create(&mut kernel, ContainerSpec::new("nsb"))
            .unwrap();
        let na = engine.container(&a).unwrap().namespaces().clone();
        let nb = engine.container(&b).unwrap().namespaces().clone();
        assert!(!na.is_host());
        for kind in [NamespaceKind::Pid, NamespaceKind::Net, NamespaceKind::Mount] {
            assert!(!na.shares(&nb, kind), "{kind:?} shared between containers");
        }
        // cgroup namespace stays shared with the host (Docker default) —
        // the §2.4.1 leak surface.
        assert!(na.shares(&nb, NamespaceKind::Cgroup));
    }

    #[test]
    fn userns_remap_controls_root_translation() {
        let (mut kernel, mut engine) = setup();
        let plain = engine
            .create(&mut kernel, ContainerSpec::new("plain"))
            .unwrap();
        let remapped = engine
            .create(
                &mut kernel,
                ContainerSpec::new("remapped").userns_remap(true),
            )
            .unwrap();
        assert!(
            engine
                .container(&plain)
                .unwrap()
                .uid_mapping()
                .container_root_is_host_root(),
            "Docker default: container root IS host root (§2.4.2)"
        );
        assert!(
            !engine
                .container(&remapped)
                .unwrap()
                .uid_mapping()
                .container_root_is_host_root(),
            "subuid remapping protects the host"
        );
    }

    #[test]
    fn metrics_surface_cgroup_stats_and_oom_events() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("metered")
                    .cpuset_cpus(&[0])
                    .memory(1 << 20),
            )
            .unwrap();
        kernel.begin_round(Usecs::from_secs(2));
        // A too-large mmap trips the memory controller → OOM event.
        let exec = engine
            .exec(
                &mut kernel,
                &id,
                SyscallRequest::new("mmap", [0, 8 << 20, 3, 0x32, u64::MAX, 0]),
            )
            .unwrap();
        assert_eq!(exec.outcome.errno, Some(Errno::ENOMEM));
        let m = engine.metrics(&kernel, &id).unwrap();
        assert_eq!(m.oom_events, 1);
        assert!(m.cpu_charged > Usecs::ZERO);
        assert_eq!(m.state, ContainerState::Running);
        assert!(engine
            .metrics(&kernel, &ContainerId("ghost".into()))
            .is_none());
    }

    #[test]
    fn remove_tears_down_cgroup() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(&mut kernel, ContainerSpec::new("gone"))
            .unwrap();
        let cg = engine.container(&id).unwrap().cgroup();
        engine.remove(&mut kernel, &id).unwrap();
        assert!(kernel.cgroups.get(cg).is_none());
        assert!(engine.container(&id).is_none());
        assert!(matches!(
            engine.remove(&mut kernel, &id),
            Err(EngineError::NoSuchContainer(_))
        ));
    }

    fn injecting(config: crate::faults::FaultConfig) -> (Kernel, Engine) {
        let (kernel, mut engine) = setup();
        engine.set_fault_injector(Arc::new(crate::faults::FaultPlan::new(config)));
        (kernel, engine)
    }

    #[test]
    fn injected_start_failure_surfaces_as_start_failed() {
        let (mut kernel, mut engine) = injecting(crate::faults::FaultConfig {
            start_fail: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            engine.create(&mut kernel, ContainerSpec::new("fuzz-0")),
            Err(EngineError::StartFailed(_))
        ));
        assert_eq!(engine.fault_counters().start_fail, 1);
        assert!(engine.container_ids().is_empty());
    }

    #[test]
    fn injected_cgroup_write_failure_blocks_creation() {
        let (mut kernel, mut engine) = injecting(crate::faults::FaultConfig {
            cgroup_write_fail: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            engine.create(&mut kernel, ContainerSpec::new("fuzz-0")),
            Err(EngineError::CgroupWriteFailed(_))
        ));
        assert_eq!(engine.fault_counters().cgroup_write_fail, 1);
    }

    #[test]
    fn injected_crash_takes_the_real_crash_path() {
        let (mut kernel, mut engine) = injecting(crate::faults::FaultConfig {
            container_crash: 1.0,
            ..Default::default()
        });
        let id = engine
            .create(&mut kernel, ContainerSpec::new("fuzz-0").cpuset_cpus(&[0]))
            .unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let exec = engine
            .exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6]))
            .unwrap();
        let crash = exec.crash.expect("fault produced a crash");
        assert_eq!(crash.reason, "fault-injected-crash");
        assert!(matches!(
            engine.container(&id).unwrap().state(),
            ContainerState::Crashed(_)
        ));
        // The same recovery that works for runtime-bug crashes works here.
        assert!(matches!(
            engine.exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6])),
            Err(EngineError::NotRunning(_))
        ));
        assert_eq!(engine.fault_counters().container_crash, 1);
    }

    #[test]
    fn injected_exec_error_is_transient() {
        let (mut kernel, mut engine) = injecting(crate::faults::FaultConfig {
            seed: 3,
            exec_error: 0.5,
            ..Default::default()
        });
        let id = engine
            .create(&mut kernel, ContainerSpec::new("fuzz-0").cpuset_cpus(&[0]))
            .unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let mut faulted = 0;
        let mut succeeded = 0;
        for _ in 0..64 {
            match engine.exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6])) {
                Err(EngineError::ExecFault(_)) => faulted += 1,
                Ok(exec) => {
                    assert!(exec.crash.is_none());
                    succeeded += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            // Exec faults are transient: the container stays Running.
            assert!(matches!(
                engine.container(&id).unwrap().state(),
                ContainerState::Running
            ));
        }
        assert!(faulted > 0 && succeeded > 0);
        assert_eq!(engine.fault_counters().exec_error, faulted);
    }

    #[test]
    fn no_injector_means_no_faults_and_zero_counters() {
        let (mut kernel, mut engine) = setup();
        let id = engine
            .create(&mut kernel, ContainerSpec::new("fuzz-0").cpuset_cpus(&[0]))
            .unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        for _ in 0..32 {
            let exec = engine
                .exec(&mut kernel, &id, SyscallRequest::new("getpid", [0; 6]))
                .unwrap();
            assert!(exec.crash.is_none());
        }
        assert_eq!(
            engine.fault_counters(),
            crate::faults::FaultCounters::default()
        );
    }
}
