//! Per-syscall semantic tests: every handler family, its success path, its
//! error paths, and its side effects on kernel state.

use torpedo_kernel::cgroup::{CgroupLimits, CgroupTree};
use torpedo_kernel::process::ProcessKind;
use torpedo_kernel::signal::Signal;
use torpedo_kernel::syscalls::{dispatch, ExecContext, ExecPolicy, SyscallOutcome};
use torpedo_kernel::{DeferralChannel, Errno, Kernel, SyscallRequest, Usecs};

struct Host {
    kernel: Kernel,
    ctx: ExecContext,
}

impl Host {
    fn new() -> Host {
        let mut kernel = Kernel::with_defaults();
        let cg = kernel
            .cgroups
            .create(
                CgroupTree::ROOT,
                "docker/test",
                CgroupLimits {
                    cpuset: Some(vec![0]),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        let pid = kernel.procs.spawn(
            "syz-executor-test",
            ProcessKind::Executor {
                container: "test".into(),
            },
            cg,
        );
        kernel.begin_round(Usecs::from_secs(10));
        Host {
            kernel,
            ctx: ExecContext {
                pid,
                cgroup: cg,
                core: 0,
                cpuset: vec![0],
                policy: ExecPolicy::default(),
            },
        }
    }

    fn call(&mut self, name: &str, args: [u64; 6]) -> SyscallOutcome {
        dispatch(&mut self.kernel, &self.ctx, SyscallRequest::new(name, args))
    }

    fn call_path(&mut self, name: &str, args: [u64; 6], path: &str) -> SyscallOutcome {
        dispatch(
            &mut self.kernel,
            &self.ctx,
            SyscallRequest::new(name, args).with_path(0, path),
        )
    }
}

// ---------------------------------------------------------------- fs

#[test]
fn open_close_lifecycle() {
    let mut h = Host::new();
    let fd = h
        .call_path("open", [0, 0, 0, 0, 0, 0], "/etc/passwd")
        .retval;
    assert!(fd >= 3, "got {fd}");
    assert_eq!(h.call("close", [fd as u64, 0, 0, 0, 0, 0]).retval, 0);
    assert_eq!(
        h.call("close", [fd as u64, 0, 0, 0, 0, 0]).errno,
        Some(Errno::EBADF)
    );
}

#[test]
fn open_missing_without_creat_is_enoent() {
    let mut h = Host::new();
    let out = h.call_path("open", [0, 0, 0, 0, 0, 0], "/nope");
    assert_eq!(out.errno, Some(Errno::ENOENT));
    // With O_CREAT (0x40) the file is created.
    let out = h.call_path("open", [0, 0x40, 0o600, 0, 0, 0], "/nope");
    assert!(out.retval >= 3);
    assert!(h.kernel.vfs.lookup("/nope").is_some());
}

#[test]
fn open_without_path_payload_is_efault() {
    let mut h = Host::new();
    assert_eq!(h.call("open", [0; 6]).errno, Some(Errno::EFAULT));
}

#[test]
fn write_dirties_page_cache_and_charges_blkio() {
    let mut h = Host::new();
    let before = h.kernel.vfs.dirty_bytes();
    let fd = h.call_path("creat", [0, 0o644, 0, 0, 0, 0], "wfile").retval as u64;
    let out = h.call("write", [fd, 0x7f00_0000_0000, 0x1000, 0, 0, 0]);
    assert_eq!(out.retval, 0x1000);
    assert!(h.kernel.vfs.dirty_bytes() > before);
    let cg = h.kernel.cgroups.get(h.ctx.cgroup).unwrap();
    assert!(cg.charged_io_bytes() >= 0x1000);
}

#[test]
fn write_past_rlimit_fsize_delivers_sigxfsz() {
    let mut h = Host::new();
    h.kernel
        .procs
        .get_mut(h.ctx.pid)
        .unwrap()
        .rlimits_mut()
        .fsize = 4096;
    let fd = h.call_path("creat", [0, 0o644, 0, 0, 0, 0], "small").retval as u64;
    let out = h.call("write", [fd, 0, 0x10000, 0, 0, 0]);
    assert_eq!(out.fatal_signal, Some(Signal::SIGXFSZ));
    assert!(!h.kernel.procs.get(h.ctx.pid).unwrap().alive());
}

#[test]
fn lseek_whence_validation() {
    let mut h = Host::new();
    let fd = h
        .call_path("creat", [0, 0o644, 0, 0, 0, 0], "seekme")
        .retval as u64;
    assert_eq!(h.call("lseek", [fd, 100, 0, 0, 0, 0]).retval, 100);
    assert_eq!(
        h.call("lseek", [fd, 0, 9, 0, 0, 0]).errno,
        Some(Errno::EINVAL)
    );
    assert_eq!(
        h.call("lseek", [999, 0, 0, 0, 0, 0]).errno,
        Some(Errno::EBADF)
    );
}

#[test]
fn readlink_eloop_chain() {
    let mut h = Host::new();
    let deep = "./".to_string() + &"test_eloop/".repeat(43);
    let out = h.call_path("readlink", [0, 0, 0, 0, 0, 0], &deep);
    assert_eq!(out.errno, Some(Errno::ELOOP));
    // A regular file is EINVAL (not a symlink).
    let out = h.call_path("readlink", [0, 0, 0, 0, 0, 0], "/etc/passwd");
    assert_eq!(out.errno, Some(Errno::EINVAL));
}

#[test]
fn xattr_set_get_roundtrip_and_erange() {
    let mut h = Host::new();
    h.call_path("creat", [0, 0o644, 0, 0, 0, 0], "xfile");
    let set = dispatch(
        &mut h.kernel,
        &h.ctx,
        SyscallRequest::new("setxattr", [0, 0, 0, 0x15, 1, 0])
            .with_path(0, "xfile")
            .with_path(1, "user.test"),
    );
    assert_eq!(set.retval, 0);
    // size 0 → size query.
    let q = dispatch(
        &mut h.kernel,
        &h.ctx,
        SyscallRequest::new("getxattr", [0, 0, 0, 0, 0, 0])
            .with_path(0, "xfile")
            .with_path(1, "user.test"),
    );
    assert_eq!(q.retval, 0x15);
    // too-small buffer → ERANGE.
    let small = dispatch(
        &mut h.kernel,
        &h.ctx,
        SyscallRequest::new("getxattr", [0, 0, 0, 4, 0, 0])
            .with_path(0, "xfile")
            .with_path(1, "user.test"),
    );
    assert_eq!(small.errno, Some(Errno::ERANGE));
    // absent attribute → ENODATA.
    let missing = dispatch(
        &mut h.kernel,
        &h.ctx,
        SyscallRequest::new("getxattr", [0, 0, 0, 0, 0, 0])
            .with_path(0, "xfile")
            .with_path(1, "user.other"),
    );
    assert_eq!(missing.errno, Some(Errno::ENODATA));
}

#[test]
fn inotify_and_ioctl() {
    let mut h = Host::new();
    let ifd = h.call("inotify_init", [0; 6]).retval as u64;
    assert!(ifd >= 3);
    let watch = dispatch(
        &mut h.kernel,
        &h.ctx,
        SyscallRequest::new("inotify_add_watch", [ifd, 0, 0xfff, 0, 0, 0])
            .with_path(1, "/etc/passwd"),
    );
    assert_eq!(watch.retval, 1);
    // FS_IOC_GETVERSION on a file fd succeeds; on inotify it is EINVAL.
    let file = h
        .call_path("open", [0, 0, 0, 0, 0, 0], "/etc/passwd")
        .retval as u64;
    assert_eq!(h.call("ioctl", [file, 0x8008_7601, 0, 0, 0, 0]).retval, 0);
    assert_eq!(
        h.call("ioctl", [ifd, 0x8008_7601, 0, 0, 0, 0]).errno,
        Some(Errno::EINVAL)
    );
}

#[test]
fn mkdir_eexist_and_unlink_enoent() {
    let mut h = Host::new();
    assert_eq!(
        h.call_path("mkdir", [0, 0o755, 0, 0, 0, 0], "newdir")
            .retval,
        0
    );
    assert_eq!(
        h.call_path("mkdir", [0, 0o755, 0, 0, 0, 0], "newdir").errno,
        Some(Errno::EEXIST)
    );
    assert_eq!(h.call_path("unlink", [0; 6], "newdir").retval, 0);
    assert_eq!(
        h.call_path("unlink", [0; 6], "reallynotthere").errno,
        Some(Errno::ENOENT)
    );
}

#[test]
fn dup_clones_the_descriptor() {
    let mut h = Host::new();
    let fd = h.call_path("creat", [0, 0o644, 0, 0, 0, 0], "duped").retval as u64;
    let dup = h.call("dup", [fd, 0, 0, 0, 0, 0]).retval;
    assert!(dup > fd as i64);
    assert_eq!(
        h.call("dup", [4242, 0, 0, 0, 0, 0]).errno,
        Some(Errno::EBADF)
    );
}

// ---------------------------------------------------------------- mm

#[test]
fn mmap_charges_and_munmap_releases_memory() {
    let mut h = Host::new();
    let before = h.kernel.cgroups.get(h.ctx.cgroup).unwrap().charged_memory();
    assert!(h.call("mmap", [0, 1 << 20, 3, 0x32, u64::MAX, 0]).retval > 0);
    let mid = h.kernel.cgroups.get(h.ctx.cgroup).unwrap().charged_memory();
    assert_eq!(mid - before, 1 << 20);
    h.call("munmap", [0, 1 << 20, 0, 0, 0, 0]);
    assert_eq!(
        h.kernel.cgroups.get(h.ctx.cgroup).unwrap().charged_memory(),
        before
    );
}

#[test]
fn mmap_zero_length_is_einval_and_limit_is_enomem() {
    let mut h = Host::new();
    assert_eq!(h.call("mmap", [0; 6]).errno, Some(Errno::EINVAL));
    // Create a memory-limited container.
    let cg = h
        .kernel
        .cgroups
        .create(
            CgroupTree::ROOT,
            "docker/tiny",
            CgroupLimits {
                memory_bytes: Some(1 << 20),
                ..CgroupLimits::default()
            },
        )
        .unwrap();
    let pid = h.kernel.procs.spawn(
        "tiny",
        ProcessKind::Executor {
            container: "tiny".into(),
        },
        cg,
    );
    let ctx = ExecContext {
        pid,
        cgroup: cg,
        core: 1,
        cpuset: vec![1],
        policy: ExecPolicy::default(),
    };
    let out = dispatch(
        &mut h.kernel,
        &ctx,
        SyscallRequest::new("mmap", [0, 4 << 20, 3, 0x32, u64::MAX, 0]),
    );
    assert_eq!(out.errno, Some(Errno::ENOMEM));
}

#[test]
fn mprotect_alignment() {
    let mut h = Host::new();
    assert_eq!(h.call("mprotect", [0x1000, 0x1000, 1, 0, 0, 0]).retval, 0);
    assert_eq!(
        h.call("mprotect", [0x1001, 0x1000, 1, 0, 0, 0]).errno,
        Some(Errno::EINVAL)
    );
}

// ---------------------------------------------------------------- proc

#[test]
fn identity_calls_are_cheap_and_infallible() {
    let mut h = Host::new();
    for name in [
        "getpid", "getuid", "geteuid", "gettid", "getppid", "uname", "sysinfo", "times", "getcpu",
    ] {
        let out = h.call(name, [0; 6]);
        assert!(out.errno.is_none(), "{name}: {:?}", out.errno);
        assert!(out.user + out.system < Usecs(20), "{name} too expensive");
    }
}

#[test]
fn kill_self_with_dumping_signal_spawns_helper() {
    let mut h = Host::new();
    let pid = h.ctx.pid.0 as u64;
    let out = h.call("kill", [pid, 11, 0, 0, 0, 0]); // SIGSEGV
    assert_eq!(out.fatal_signal, Some(Signal::SIGSEGV));
    let round = h.kernel.finish_round(&[0]);
    assert!(round.deferrals.iter().any(|e| matches!(
        e.channel,
        torpedo_kernel::DeferralChannel::UserModeHelper(_)
    )));
}

#[test]
fn kill_ignored_signal_is_harmless() {
    let mut h = Host::new();
    let pid = h.ctx.pid.0 as u64;
    let out = h.call("kill", [pid, 17, 0, 0, 0, 0]); // SIGCHLD
    assert_eq!(out.fatal_signal, None);
    assert!(h.kernel.procs.get(h.ctx.pid).unwrap().alive());
}

#[test]
fn kill_other_processes_is_denied_or_esrch() {
    let mut h = Host::new();
    let dockerd = h.kernel.boot.dockerd.0 as u64;
    assert_eq!(
        h.call("kill", [dockerd, 9, 0, 0, 0, 0]).errno,
        Some(Errno::EPERM)
    );
    assert_eq!(
        h.call("kill", [99999, 9, 0, 0, 0, 0]).errno,
        Some(Errno::ESRCH)
    );
}

#[test]
fn rseq_valid_vs_invalid() {
    let mut h = Host::new();
    // Aligned pointer, flags 0: fine.
    let ok = h.call("rseq", [0x7f00_0000_0000, 0x20, 0, 0, 0, 0]);
    assert_eq!(ok.fatal_signal, None);
    // Misaligned: SIGSEGV.
    let h2 = &mut Host::new();
    let bad = h2.call("rseq", [0x7f00_0000_0001, 0x20, 0, 0, 0, 0]);
    assert_eq!(bad.fatal_signal, Some(Signal::SIGSEGV));
}

#[test]
fn setrlimit_fsize_has_a_floor() {
    let mut h = Host::new();
    h.call("setrlimit", [1, 7, 0, 0, 0, 0]);
    assert_eq!(h.kernel.procs.get(h.ctx.pid).unwrap().rlimits().fsize, 4096);
}

#[test]
fn kcmp_validates_pids_and_type() {
    let mut h = Host::new();
    let me = h.ctx.pid.0 as u64;
    assert_eq!(h.call("kcmp", [me, me, 0, 0, 0, 0]).retval, 0);
    assert_eq!(
        h.call("kcmp", [0x1586, me, 5, 0, 0, 0]).errno,
        Some(Errno::ESRCH)
    );
    assert_eq!(
        h.call("kcmp", [me, me, 99, 0, 0, 0]).errno,
        Some(Errno::EINVAL)
    );
}

#[test]
fn setuid_triggers_audit_work() {
    let mut h = Host::new();
    h.call("setuid", [0xfffe, 0, 0, 0, 0, 0]);
    let kauditd = h.kernel.boot.kauditd;
    assert!(h.kernel.procs.get(kauditd).unwrap().round_cpu() > Usecs::ZERO);
}

// ---------------------------------------------------------------- net

#[test]
fn socketpair_allocates_two_fds() {
    let mut h = Host::new();
    let before = h.kernel.fd_table(h.ctx.pid).len();
    assert!(h.call("socketpair", [1, 1, 0, 0, 0, 0]).retval >= 3);
    assert_eq!(h.kernel.fd_table(h.ctx.pid).len(), before + 2);
}

#[test]
fn a_dup_of_the_audit_socket_keeps_the_audit_path_after_the_original_closes() {
    let mut h = Host::new();
    // NETLINK_AUDIT: family AF_NETLINK (16), protocol 9.
    let audit = h.call("socket", [16, 3, 9, 0, 0, 0]).retval as u64;
    let copy = h.call("dup", [audit, 0, 0, 0, 0, 0]).retval as u64;
    assert_eq!(h.call("close", [audit, 0, 0, 0, 0, 0]).retval, 0);
    let inet = h.call("socket", [2, 1, 0, 0, 0, 0]).retval as u64;
    assert_eq!(h.call("sendto", [copy, 0, 0x24, 0, 0, 0]).retval, 0x24);
    assert_eq!(h.call("sendto", [inet, 0, 0x24, 0, 0, 0]).retval, 0x24);
    let channels: Vec<DeferralChannel> = h
        .kernel
        .finish_round(&[0])
        .deferrals
        .iter()
        .map(|e| e.channel)
        .collect();
    assert_eq!(
        channels,
        [DeferralChannel::Audit, DeferralChannel::SoftIrq],
        "the dup reaches kauditd; the ordinary socket transmits"
    );
}

#[test]
fn sendto_on_non_socket_fd() {
    let mut h = Host::new();
    let file = h
        .call_path("creat", [0, 0o644, 0, 0, 0, 0], "notasock")
        .retval as u64;
    // Linux: write-like behaviour on some fds; our model returns short ok.
    let out = h.call("sendto", [file, 0, 64, 0, 0, 0]);
    assert!(out.retval >= 0);
    assert_eq!(
        h.call("sendto", [777, 0, 64, 0, 0, 0]).errno,
        Some(Errno::EBADF)
    );
}

#[test]
fn connect_is_refused_and_poll_times_out() {
    let mut h = Host::new();
    let sock = h.call("socket", [2, 1, 0, 0, 0, 0]).retval as u64;
    assert_eq!(
        h.call("connect", [sock, 0, 16, 0, 0, 0]).errno,
        Some(Errno::ECONNREFUSED)
    );
    let out = h.call("poll", [0, 1, 100, 0, 0, 0]);
    assert_eq!(out.retval, 0);
    assert_eq!(out.blocked, Usecs::from_millis(100));
}

#[test]
fn pause_blocks_approximately_forever() {
    let mut h = Host::new();
    let out = h.call("pause", [0; 6]);
    assert!(out.blocked >= Usecs::from_secs(3600));
}

#[test]
fn unknown_name_and_throttled_cgroup() {
    let mut h = Host::new();
    assert_eq!(h.call("not_a_syscall", [0; 6]).errno, Some(Errno::ENOSYS));
    // Exhaust quota by direct charge; next call is throttled.
    let quota_cg = h
        .kernel
        .cgroups
        .create(
            CgroupTree::ROOT,
            "docker/capped",
            CgroupLimits {
                cpu_quota_cores: Some(0.5),
                ..CgroupLimits::default()
            },
        )
        .unwrap();
    h.kernel.cgroups.charge_cpu(quota_cg, Usecs::from_secs(100));
    let ctx = ExecContext {
        cgroup: quota_cg,
        ..h.ctx.clone()
    };
    let out = dispatch(&mut h.kernel, &ctx, SyscallRequest::new("getpid", [0; 6]));
    assert!(out.throttled);
}

#[test]
fn coverage_signals_differ_between_success_and_error() {
    let mut h = Host::new();
    let ok = h.call_path("open", [0, 0, 0, 0, 0, 0], "/etc/passwd");
    let err = h.call_path("open", [0, 0, 0, 0, 0, 0], "/missing");
    assert_ne!(ok.coverage, err.coverage);
}

#[test]
fn fork_and_exit_lifecycle() {
    let mut h = Host::new();
    assert!(h.call("fork", [0; 6]).retval > 0);
    let out = h.call("exit_group", [0; 6]);
    assert_eq!(out.fatal_signal, None, "exit is not a signal death");
    assert!(!h.kernel.procs.get(h.ctx.pid).unwrap().alive());
    // No coredump from a graceful exit.
    let round = h.kernel.finish_round(&[0]);
    assert!(round.deferrals.is_empty());
}
