//! The executor side of TORPEDO: the container entrypoint implementing
//! Algorithm 1 (`LoopUntilTime`) plus program lowering.
//!
//! "Loop an arbitrary sequence of system calls P until timestamp T. Report
//! number of executions and average execution time." The loop stops when
//! the *predicted* end of the next execution would overshoot the round
//! boundary, so all parallel executors stop at or before `T` (§3.3).

use torpedo_kernel::kernel::Kernel;
use torpedo_kernel::time::Usecs;
use torpedo_kernel::SyscallRequest;
use torpedo_prog::{ArgValue, Program, ProgramCoverage, SyscallDesc};
use torpedo_runtime::engine::{Container, ContainerId, Engine, EngineError};
use torpedo_runtime::{ContainerCrash, ExecEnv};

/// Per-iteration entrypoint overhead charged inside the container: IPC,
/// deserialization, result marshalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlueCost {
    /// User-mode glue per program execution.
    pub user: Usecs,
    /// Kernel-mode glue per program execution (pipe copies).
    pub system: Usecs,
    /// Off-CPU wait per execution: the executor blocks on the IPC pipe
    /// while the fuzzer reads results, leaving the core briefly idle (the
    /// ~15% idle visible on fuzzing cores in Table A.1).
    pub ipc_wait: Usecs,
}

impl GlueCost {
    /// The fuzzing entrypoint: serialized programs over IPC pipes (§3.3).
    pub fn fuzzing() -> GlueCost {
        GlueCost {
            user: Usecs(120),
            system: Usecs(380),
            ipc_wait: Usecs(90),
        }
    }

    /// The confirmation harness: a recreated C binary calling `syscall(2)`
    /// directly (§4.1.4) — almost no per-iteration overhead.
    pub fn confirmation() -> GlueCost {
        GlueCost {
            user: Usecs(4),
            system: Usecs(8),
            ipc_wait: Usecs(1),
        }
    }

    /// This glue as paid inside a runtime with interception `overhead`.
    /// The entrypoint itself runs inside the sandbox, so its IPC and
    /// serialization syscalls pay the overhead too. Interception also adds
    /// off-CPU stops (ptrace round-trips, VM exits): the wait grows faster
    /// than the on-CPU cost, which is why gVisor fuzzing cores in Table A.4
    /// are *less* busy than runC's.
    fn under(self, overhead: f64) -> GlueCost {
        GlueCost {
            user: self.user.scale(overhead),
            system: self.system.scale(overhead),
            ipc_wait: self.ipc_wait.scale(overhead * overhead),
        }
    }
}

/// Report from one `LoopUntilTime` window.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Completed program executions.
    pub executions: u64,
    /// Average wall time per execution.
    pub avg_exec_time: Usecs,
    /// Coverage from the first (serial) execution.
    pub coverage: ProgramCoverage,
    /// Container crash, if one occurred (ends the loop).
    pub crash: Option<ContainerCrash>,
    /// Whether the cgroup quota throttled the loop before `T`.
    pub throttled: bool,
    /// Fatal signals delivered during the window (e.g. the SIGXFSZ storm).
    pub fatal_signals: u64,
    /// Total time spent blocked rather than on-CPU.
    pub blocked_time: Usecs,
}

impl ExecReport {
    /// The report recorded for an executor that missed the round entirely
    /// (idle assignment, or salvaged after a hang/death): zero executions,
    /// nothing measured.
    pub fn missed() -> ExecReport {
        ExecReport {
            executions: 0,
            avg_exec_time: Usecs::ZERO,
            coverage: ProgramCoverage::default(),
            crash: None,
            throttled: false,
            fatal_signals: 0,
            blocked_time: Usecs::ZERO,
        }
    }
}

/// One fuzzing executor bound to a container.
#[derive(Debug, Clone)]
pub struct Executor {
    /// The container this executor drives.
    pub container: ContainerId,
    /// Whether to run SYZKALLER's collider pass (threaded re-execution)
    /// after the serial pass — on by default in the real executor (§2.6.4).
    pub collider: bool,
    /// Entry-point overhead model.
    pub glue: GlueCost,
}

impl Executor {
    /// An executor with the fuzzing-mode glue cost.
    pub fn new(container: ContainerId) -> Executor {
        Executor {
            container,
            collider: true,
            glue: GlueCost::fuzzing(),
        }
    }

    /// Run `program` repeatedly until the window of `stop_after` virtual
    /// time is (predictively) exhausted — Algorithm 1.
    ///
    /// # Errors
    /// Propagates engine errors other than mid-loop crashes (which are
    /// reported in the [`ExecReport`]).
    pub fn run_until(
        &self,
        kernel: &mut Kernel,
        engine: &Engine,
        table: &[SyscallDesc],
        program: &Program,
        stop_after: Usecs,
    ) -> Result<ExecReport, EngineError> {
        // Look this executor's container up once for the whole window.
        let container = engine
            .container(&self.container)
            .ok_or_else(|| EngineError::NoSuchContainer(self.container.name().to_string()))?;
        let mut window = Window {
            glue: self.glue.under(container.policy().overhead),
            container,
            table,
            program,
            // One return-value buffer for the whole window: after the
            // first execution the loop allocates nothing.
            retvals: Vec::with_capacity(program.len()),
        };
        let mut elapsed = Usecs::ZERO;
        let mut total_exec_time = Usecs::ZERO;
        let mut executions: u64 = 0;
        let mut coverage = ProgramCoverage::default();
        let mut crash = None;
        let mut throttled = false;
        let mut fatal_signals = 0u64;
        let mut blocked_time = Usecs::ZERO;

        loop {
            let first = executions == 0;
            let once = match self.step(kernel, engine, &mut window, first) {
                Ok(once) => once,
                // A transient runtime exec error ends this executor's window
                // early; what ran so far is still a valid partial report.
                Err(EngineError::ExecFault(_)) => break,
                Err(e) => return Err(e),
            };
            executions += 1;
            total_exec_time += once.duration;
            blocked_time += once.blocked;
            fatal_signals += once.fatal_signals;
            elapsed += once.duration;
            if executions == 1 {
                coverage = once.coverage;
            }
            if let Some(c) = once.crash {
                crash = Some(*c);
                break;
            }
            if once.throttled {
                throttled = true;
                break;
            }
            let avg = Usecs(total_exec_time.as_micros() / executions);
            if elapsed + avg > stop_after || once.duration == Usecs::ZERO {
                break;
            }
        }

        Ok(ExecReport {
            executions,
            avg_exec_time: Usecs(total_exec_time.as_micros() / executions.max(1)),
            coverage,
            crash,
            throttled,
            fatal_signals,
            blocked_time,
        })
    }

    /// Execute the program exactly once (one Algorithm 1 iteration: serial
    /// pass, optional collider pass, fd cleanup) within `window`.
    ///
    /// # Errors
    /// Engine errors other than crashes (which are reported in the step).
    fn step(
        &self,
        kernel: &mut Kernel,
        engine: &Engine,
        window: &mut Window<'_>,
        collect_coverage: bool,
    ) -> Result<StepReport, EngineError> {
        let container = window.container;
        let glue = window.glue;
        // Entry-point glue: charged inside the container.
        let (pid, cgroup, core) = (
            container.executor_pid(),
            container.cgroup(),
            container.core(),
        );
        kernel.charge_user_system(core, glue.user, glue.system, pid, cgroup);
        let mut duration = glue.user + glue.system + glue.ipc_wait;
        let mut blocked = glue.ipc_wait;
        let mut fatal_signals = 0u64;
        let (table, program, retvals) = (window.table, window.program, &mut window.retvals);
        retvals.clear();
        let mut coverage = ProgramCoverage::default();

        for call in &program.calls {
            let req = request(table, call, retvals);
            let exec = engine.exec_in(kernel, container, req, ExecEnv::default())?;
            retvals.push(exec.outcome.retval);
            if collect_coverage {
                coverage.per_call.push(exec.outcome.coverage.to_vec());
            }
            duration += exec.outcome.user + exec.outcome.system + exec.outcome.blocked;
            blocked += exec.outcome.blocked;
            if exec.outcome.throttled {
                return Ok(StepReport {
                    duration,
                    blocked,
                    coverage,
                    crash: None,
                    throttled: true,
                    fatal_signals,
                });
            }
            if let Some(crash) = exec.crash {
                return Ok(StepReport {
                    duration,
                    blocked,
                    coverage,
                    crash: Some(crash),
                    throttled: false,
                    fatal_signals,
                });
            }
            if exec.outcome.fatal_signal.is_some() {
                // The workload died and was restarted by the entrypoint;
                // the rest of this iteration is abandoned.
                fatal_signals += 1;
                duration += Usecs(55);
                break;
            }
        }

        // Collider pass: re-run the calls concurrently on sibling threads.
        if self.collider {
            for call in &program.calls {
                let req = request(table, call, retvals);
                let exec = engine.exec_in(kernel, container, req, ExecEnv { collider: true })?;
                duration += exec.outcome.user + exec.outcome.system + exec.outcome.blocked;
                blocked += exec.outcome.blocked;
                if let Some(crash) = exec.crash {
                    return Ok(StepReport {
                        duration,
                        blocked,
                        coverage,
                        crash: Some(crash),
                        throttled: false,
                        fatal_signals,
                    });
                }
                if exec.outcome.fatal_signal.is_some() {
                    fatal_signals += 1;
                    duration += Usecs(55);
                    break;
                }
            }
        }

        // EnableCloseFDs (Table 2.4): the executor closes every descriptor
        // after each program so iterations cannot exhaust RLIMIT_NOFILE.
        kernel.fd_table(pid).close_all();

        Ok(StepReport {
            duration,
            blocked,
            coverage,
            crash: None,
            throttled: false,
            fatal_signals,
        })
    }
}

/// The state one `LoopUntilTime` window holds across its executions.
struct Window<'a> {
    /// The executor's container, looked up once for the whole window.
    container: &'a Container,
    /// The glue each execution pays, under the container's runtime.
    glue: GlueCost,
    table: &'a [SyscallDesc],
    program: &'a Program,
    /// The serial pass's return values, reused across executions.
    retvals: Vec<i64>,
}

/// Result of one program iteration.
#[derive(Debug, Clone)]
struct StepReport {
    /// Total virtual time the iteration took (on-CPU + blocked).
    pub duration: Usecs,
    /// Off-CPU portion.
    pub blocked: Usecs,
    /// Per-call coverage (populated only when requested).
    pub coverage: ProgramCoverage,
    /// Container crash, if any.
    pub crash: Option<Box<ContainerCrash>>,
    /// Whether the cgroup quota throttled the iteration.
    pub throttled: bool,
    /// Fatal signals delivered.
    pub fatal_signals: u64,
}

/// The request one execution of `call` issues, with `Ref` arguments lowered
/// to the return values of the calls before it.
fn request<'c>(
    table: &'c [SyscallDesc],
    call: &'c torpedo_prog::Call,
    retvals: &[i64],
) -> SyscallRequest<'c> {
    let desc = &table[call.desc];
    let (args, paths) = lower_args(call, retvals);
    SyscallRequest {
        paths,
        ..SyscallRequest::with_nr(desc.name, desc.nr, args)
    }
}

/// Lower typed argument values to raw registers plus path payloads. The
/// payloads are borrowed straight from the call — no per-iteration clones in
/// the executor's hot loop.
fn lower_args<'c>(
    call: &'c torpedo_prog::Call,
    retvals: &[i64],
) -> ([u64; 6], [Option<&'c str>; 6]) {
    let mut args = [0u64; 6];
    let mut paths: [Option<&'c str>; 6] = [None; 6];
    for (i, value) in call.args.iter().take(6).enumerate() {
        match value {
            ArgValue::Int(v) => args[i] = *v,
            ArgValue::Ref(target) => {
                let rv = retvals.get(*target).copied().unwrap_or(-1);
                args[i] = if rv >= 0 { rv as u64 } else { u64::MAX };
            }
            ArgValue::Path(p) => {
                args[i] = 0x7f00_0000_0000;
                paths[i] = Some(p.as_str());
            }
            ArgValue::Name(n) => {
                args[i] = 0x7f00_0000_1000;
                paths[i] = Some(n.as_str());
            }
        }
    }
    (args, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use torpedo_prog::{build_table, deserialize};
    use torpedo_runtime::spec::ContainerSpec;

    fn setup(runtime: &str) -> (Kernel, Engine, Executor, Vec<SyscallDesc>) {
        let mut kernel = Kernel::with_defaults();
        let mut engine = Engine::new(&mut kernel);
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("fuzz-0")
                    .runtime_name(runtime)
                    .cpuset_cpus(&[0])
                    .cpus(1.0),
            )
            .unwrap();
        (kernel, engine, Executor::new(id), build_table())
    }

    #[test]
    fn loop_fills_most_of_the_window() {
        let (mut kernel, engine, exec, table) = setup("runc");
        let program = deserialize("getpid()\nuname(0x0)\n", &table).unwrap();
        kernel.begin_round(Usecs::from_secs(2));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(2))
            .unwrap();
        assert!(
            report.executions > 100,
            "only {} executions",
            report.executions
        );
        assert!(report.crash.is_none());
        let out = kernel.finish_round(&[0]);
        let busy = out.per_core[0].busy_percent();
        assert!(busy > 60.0, "fuzz core busy only {busy:.1}%");
    }

    #[test]
    fn loop_stops_at_or_before_t() {
        let (mut kernel, engine, exec, table) = setup("runc");
        let program = deserialize("getpid()\n", &table).unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(1))
            .unwrap();
        let total = Usecs(report.avg_exec_time.as_micros() * report.executions);
        assert!(
            total <= Usecs::from_secs(1).saturating_add(report.avg_exec_time),
            "overshot: {total}"
        );
    }

    #[test]
    fn blocking_program_barely_executes() {
        let (mut kernel, engine, exec, table) = setup("runc");
        let program = deserialize("pause()\n", &table).unwrap();
        kernel.begin_round(Usecs::from_secs(2));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(2))
            .unwrap();
        assert_eq!(report.executions, 1, "pause blocks the whole window");
        assert!(report.blocked_time > Usecs::from_secs(2));
        let out = kernel.finish_round(&[0]);
        assert!(out.per_core[0].busy_percent() < 10.0);
    }

    #[test]
    fn coredump_program_restarts_every_iteration() {
        let (mut kernel, engine, exec, table) = setup("runc");
        let program = deserialize("rt_sigreturn()\n", &table).unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(1))
            .unwrap();
        assert!(report.fatal_signals >= report.executions);
        let out = kernel.finish_round(&[0]);
        // Out-of-band coredump work must appear in the ledger.
        assert!(!out.deferrals.is_empty());
    }

    #[test]
    fn gvisor_crash_ends_loop() {
        let (mut kernel, engine, exec, table) = setup("runsc");
        let program = deserialize(
            "open(&'/lib/x86_64-Linux-gnu/libc.so.6', 0x680002, 0x20)\n",
            &table,
        )
        .unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(5))
            .unwrap();
        assert_eq!(report.executions, 1);
        assert!(report.crash.is_some());
    }

    #[test]
    fn refs_lower_to_previous_retvals() {
        let (mut kernel, engine, exec, table) = setup("runc");
        let program = deserialize(
            "r0 = creat(&'workfile-0', 0x1a4)\nwrite(r0, 0x7f0000000000, 0x100)\n",
            &table,
        )
        .unwrap();
        kernel.begin_round(Usecs::from_secs(1));
        let report = exec
            .run_until(
                &mut kernel,
                &engine,
                &table,
                &program,
                Usecs::from_millis(100),
            )
            .unwrap();
        // write to the fresh fd must succeed (retval 0x100), which only
        // happens if the ref lowered correctly: check coverage has no EBADF.
        let write_sigs = &report.coverage.per_call[1];
        let ebadf_sig = torpedo_kernel::fallback_signal(1, Some(torpedo_kernel::Errno::EBADF));
        assert!(!write_sigs.contains(&ebadf_sig));
    }

    #[test]
    fn quota_throttling_is_reported() {
        let mut kernel = Kernel::with_defaults();
        let mut engine = Engine::new(&mut kernel);
        let id = engine
            .create(
                &mut kernel,
                ContainerSpec::new("tiny").cpuset_cpus(&[0]).cpus(0.001), // 5 ms of CPU in a 5 s window
            )
            .unwrap();
        let exec = Executor::new(id);
        let table = build_table();
        let program = deserialize("getpid()\n", &table).unwrap();
        kernel.begin_round(Usecs::from_secs(5));
        let report = exec
            .run_until(&mut kernel, &engine, &table, &program, Usecs::from_secs(5))
            .unwrap();
        assert!(report.throttled, "0.001-core quota must throttle");
    }
}
