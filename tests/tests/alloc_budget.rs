//! The exec loop's heap-allocation budget (DESIGN.md §5b). A counting
//! global allocator, scoped to the measuring thread, counts what the
//! executors' `run_until` windows allocate once the rig is warm: benign
//! programs allocate a fixed number of times per window however many
//! executions it holds, and adversarial ones stay under half an
//! allocation per simulated syscall.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use torpedo_core::executor::Executor;
use torpedo_core::observer::ObserverConfig;
use torpedo_kernel::{Kernel, Usecs};
use torpedo_moonshine::appendix::APPENDIX_SEEDS;
use torpedo_moonshine::generate_corpus;
use torpedo_prog::{build_table, deserialize, Program, SyscallDesc};
use torpedo_runtime::engine::Engine;
use torpedo_runtime::spec::ContainerSpec;

/// Counts allocation calls (reallocations included) made by the current
/// thread while its `COUNTING` flag is up, so the test harness's other
/// threads never leak into a figure.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations this thread made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// What one round's windows did.
#[derive(Debug, Default)]
struct Window {
    allocs: u64,
    executions: u64,
    /// Simulated syscalls, counted as perfbench counts them: executions
    /// × passes × calls.
    syscalls: u64,
}

/// The sequential observer's layout: three runC containers on cores 0–2
/// with the default quota, glue and collider pass.
struct Rig {
    kernel: Kernel,
    engine: Engine,
    executors: Vec<Executor>,
    table: Vec<SyscallDesc>,
}

impl Rig {
    fn new() -> Rig {
        let config = ObserverConfig::default();
        let mut kernel = Kernel::with_defaults();
        let mut engine = Engine::new(&mut kernel);
        let executors = (0..3)
            .map(|i| {
                let spec = ContainerSpec::new(&format!("fuzz-{i}"))
                    .cpuset_cpus(&[i])
                    .cpus(config.cpus_per_container);
                let mut executor = Executor::new(engine.create(&mut kernel, spec).unwrap());
                executor.collider = config.collider;
                executor.glue = config.glue;
                executor
            })
            .collect();
        Rig {
            kernel,
            engine,
            executors,
            table: build_table(),
        }
    }

    fn programs(&self, texts: &[&str]) -> Vec<Program> {
        texts
            .iter()
            .map(|text| deserialize(text, &self.table).expect("seed parses"))
            .collect()
    }

    /// One round of `window` with executor `i` running `programs[i]`;
    /// only the `run_until` calls are counted.
    fn round(&mut self, programs: &[Program], window: Usecs) -> Window {
        let cores = [0, 1, 2];
        self.kernel.begin_round(window);
        self.kernel.set_reserved_cores(&cores);
        let mut total = Window::default();
        for (executor, program) in self.executors.iter().zip(programs) {
            let (report, allocs) = counted(|| {
                executor.run_until(&mut self.kernel, &self.engine, &self.table, program, window)
            });
            let report = report.expect("window runs");
            assert!(report.crash.is_none(), "runC never crashes");
            let passes = 1 + u64::from(executor.collider);
            total.allocs += allocs;
            total.executions += report.executions;
            total.syscalls += report.executions * passes * program.calls.len() as u64;
        }
        self.engine.round_overhead(&mut self.kernel, window);
        self.kernel.finish_round(&cores);
        self.engine.drain_startup_log();
        total
    }

    /// A warm-up round, then one round per consecutive triple of
    /// `programs` (wrapping), so every program runs on some executor.
    fn measure(&mut self, programs: &[Program], window: Usecs) -> Window {
        let triple = |r: usize| -> Vec<Program> {
            (0..3)
                .map(|i| programs[(3 * r + i) % programs.len()].clone())
                .collect()
        };
        self.round(&triple(0), window);
        let mut total = Window::default();
        for r in 0..programs.len().div_ceil(3) {
            let w = self.round(&triple(r), window);
            total.allocs += w.allocs;
            total.executions += w.executions;
            total.syscalls += w.syscalls;
        }
        total
    }
}

#[test]
fn benign_windows_allocate_a_fixed_amount_whatever_their_length() {
    let mut rig = Rig::new();
    let benign = "getpid()\nuname(0x0)\nstat(&'/etc/passwd', 0x0)\n";
    let programs = rig.programs(&[benign; 3]);
    rig.round(&programs, Usecs::from_secs(1));
    let short = rig.round(&programs, Usecs::from_millis(250));
    let long = rig.round(&programs, Usecs::from_secs(2));
    assert!(
        long.executions > 4 * short.executions,
        "the long window must hold more executions: {short:?} vs {long:?}"
    );
    assert_eq!(
        short.allocs, long.allocs,
        "allocations must not grow with executions: {short:?} vs {long:?}"
    );
    // Per window: the return-value buffer, and the first execution's
    // coverage list with one signal vector per call.
    assert!(short.allocs <= 3 * (2 + 3), "{short:?}");
}

/// At most half an allocation per simulated syscall.
fn assert_under_budget(label: &str, w: &Window) {
    assert!(w.syscalls > 10_000, "{label}: too few syscalls ran: {w:?}");
    let per_call = w.allocs as f64 / w.syscalls as f64;
    assert!(
        per_call <= 0.5,
        "{label}: {per_call:.3} allocations per syscall: {w:?}"
    );
}

#[test]
fn appendix_programs_stay_under_half_an_allocation_per_syscall() {
    let mut rig = Rig::new();
    let programs = rig.programs(APPENDIX_SEEDS);
    let w = rig.measure(&programs, Usecs::from_secs(1));
    assert_under_budget("appendix A", &w);
}

#[test]
fn generated_corpus_stays_under_half_an_allocation_per_syscall() {
    let mut rig = Rig::new();
    let texts = generate_corpus(24, 7);
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    let programs = rig.programs(&texts);
    let w = rig.measure(&programs, Usecs::from_secs(1));
    assert_under_budget("generate_corpus(24, 7)", &w);
}
