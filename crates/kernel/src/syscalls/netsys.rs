//! Network syscall semantics.
//!
//! Hosts the paper's *new* Table 4.2 finding: `socket(2)` with a valid but
//! unavailable address family execs `modprobe` through usermodehelper on
//! every request (errnos 93/94/97), escaping both the CPU and CPUSET
//! cgroups. Also models the audit netlink channel and soft-IRQ deferral of
//! packet processing.

use crate::deferral::DeferralChannel;
use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::net::SocketOutcome;
use crate::process::HelperKind;
use crate::time::Usecs;
use crate::vfs::{Fd, FdObject};

use super::{ExecContext, Sem, SyscallRequest};

/// Cost of one modprobe exec: fork + exec + module path search + failure.
const MODPROBE_COST: Usecs = Usecs(700);

/// Every syscall name [`handle`] owns — the dispatch jump table routes these
/// numbers here without probing the other modules. Must stay in sync with
/// the `match` arms below (the kernel's routing tests enforce it).
pub(crate) const NAMES: &[&str] = &[
    "socket",
    "socketpair",
    "pipe",
    "pipe2",
    "eventfd2",
    "epoll_create1",
    "bind",
    "listen",
    "setsockopt",
    "getsockopt",
    "shutdown",
    "epoll_ctl",
    "connect",
    "accept",
    "accept4",
    "sendto",
    "sendmsg",
    "recvfrom",
    "recvmsg",
    "poll",
    "select",
    "epoll_wait",
];

pub(crate) fn handle(
    k: &mut Kernel,
    ctx: &ExecContext,
    name: &str,
    req: &SyscallRequest<'_>,
) -> Option<Sem> {
    let args = req.args;
    Some(match name {
        "socket" => {
            if !ctx.policy.host_deferrals {
                // Sandboxed runtimes implement their own netstack: only the
                // families the sentry supports exist, nothing reaches the
                // host module loader.
                return Some(match args[0] {
                    1 | 2 | 10 => match alloc_socket(k, ctx) {
                        Ok(sem) => sem,
                        Err(e) => Sem::err(e).cost(1, 5).branch("socket_sandbox_emfile"),
                    },
                    _ => Sem::err(Errno::EAFNOSUPPORT)
                        .cost(1, 6)
                        .branch("socket_sandbox_unsupported"),
                });
            }
            match k.net.create_socket(args[0], args[1], args[2]) {
                SocketOutcome::Created(sock) => {
                    let limit = nofile(k, ctx);
                    let obj = FdObject::Socket { audit: sock.audit };
                    match k.fd_table(ctx.pid).alloc(obj, limit) {
                        Ok(fd) => Sem::ok(fd.0 as i64).cost(3, 14).branch("socket_ok"),
                        Err(e) => Sem::err(e).cost(1, 5).branch("socket_emfile"),
                    }
                }
                SocketOutcome::Failed {
                    errno,
                    modprobe_execs,
                } => {
                    for _ in 0..modprobe_execs {
                        k.defer_work(
                            DeferralChannel::UserModeHelper(HelperKind::Modprobe),
                            ctx.pid,
                            ctx.cgroup,
                            &ctx.cpuset,
                            MODPROBE_COST,
                            "socket",
                        );
                    }
                    let label = match errno {
                        Errno::EAFNOSUPPORT => "socket_eafnosupport",
                        Errno::ESOCKTNOSUPPORT => "socket_esocktnosupport",
                        Errno::EPROTONOSUPPORT => "socket_eprotonosupport",
                        _ => "socket_err",
                    };
                    // request_module(9) is synchronous: the caller blocks
                    // for the whole modprobe runtime but is charged almost
                    // nothing — that is the vulnerability.
                    Sem::err(errno)
                        .cost(2, 8)
                        .block(Usecs(MODPROBE_COST.as_micros() * modprobe_execs as u64))
                        .branch(label)
                }
            }
        }
        "socketpair" => {
            if args[0] > 45 {
                Sem::err(Errno::EAFNOSUPPORT)
                    .cost(1, 4)
                    .branch("socketpair_eaf")
            } else {
                let limit = nofile(k, ctx);
                let a = k.fd_table(ctx.pid).alloc(FdObject::PipeEnd, limit);
                let b = k.fd_table(ctx.pid).alloc(FdObject::PipeEnd, limit);
                match (a, b) {
                    (Ok(fd), Ok(_)) => Sem::ok(fd.0 as i64).cost(3, 12).branch("socketpair_ok"),
                    _ => Sem::err(Errno::EMFILE)
                        .cost(1, 4)
                        .branch("socketpair_emfile"),
                }
            }
        }
        "pipe" | "pipe2" | "eventfd2" | "epoll_create1" => {
            let limit = nofile(k, ctx);
            match k.fd_table(ctx.pid).alloc(FdObject::PipeEnd, limit) {
                Ok(fd) => Sem::ok(fd.0 as i64).cost(2, 8).branch("pipe_ok"),
                Err(e) => Sem::err(e).cost(1, 3).branch("pipe_emfile"),
            }
        }
        "bind" | "listen" | "setsockopt" | "getsockopt" | "shutdown" | "epoll_ctl" => {
            match socket_of(k, ctx, args[0]) {
                SockRef::Socket { .. } => Sem::ok(0).cost(1, 6).branch("sockopt_ok"),
                SockRef::OtherFd => Sem::err(Errno::EINVAL)
                    .cost(1, 3)
                    .branch("sockopt_enotsock"),
                SockRef::Bad => Sem::err(Errno::EBADF).cost(1, 2).branch("sockopt_ebadf"),
            }
        }
        "connect" => match socket_of(k, ctx, args[0]) {
            SockRef::Socket { .. } => Sem::err(Errno::ECONNREFUSED)
                .cost(2, 9)
                .block(Usecs::from_millis(1))
                .branch("connect_refused"),
            SockRef::OtherFd => Sem::err(Errno::EINVAL)
                .cost(1, 3)
                .branch("connect_enotsock"),
            SockRef::Bad => Sem::err(Errno::EBADF).cost(1, 2).branch("connect_ebadf"),
        },
        "accept" | "accept4" => match socket_of(k, ctx, args[0]) {
            SockRef::Socket { .. } => Sem::err(Errno::EAGAIN)
                .cost(1, 5)
                .block(Usecs::from_millis(100))
                .branch("accept_block"),
            SockRef::OtherFd => Sem::err(Errno::EINVAL).cost(1, 3).branch("accept_enotsock"),
            SockRef::Bad => Sem::err(Errno::EBADF).cost(1, 2).branch("accept_ebadf"),
        },
        "sendto" | "sendmsg" => {
            let len = args[2].min(64 << 10);
            match socket_of(k, ctx, args[0]) {
                SockRef::Socket { audit: is_audit } => {
                    if is_audit && ctx.policy.host_deferrals {
                        // A userspace-crafted audit record: kauditd and
                        // journald do the processing in their own cgroups.
                        k.audit_event(ctx.pid, ctx.cgroup, &ctx.cpuset, "sendto");
                    } else if ctx.policy.host_deferrals {
                        // Ordinary transmit: softirq work lands on whatever
                        // core takes the completion interrupt.
                        k.defer_work(
                            DeferralChannel::SoftIrq,
                            ctx.pid,
                            ctx.cgroup,
                            &ctx.cpuset,
                            Usecs(4 + len / 8192),
                            "sendto",
                        );
                        // Past the NAPI budget, completion processing falls
                        // off the inline path into ksoftirqd and scales with
                        // the payload: rx/tx softirq amplification, charged
                        // to nobody the sender's controllers can see.
                        if k.net.transmit(len) {
                            k.defer_work(
                                DeferralChannel::NetSoftirq,
                                ctx.pid,
                                ctx.cgroup,
                                &ctx.cpuset,
                                Usecs(len / 128),
                                "sendto",
                            );
                        }
                    }
                    Sem::ok(len as i64)
                        .cost(3, 10 + len / 16384)
                        .branch(if is_audit {
                            "sendto_audit"
                        } else {
                            "sendto_ok"
                        })
                }
                SockRef::OtherFd => Sem::ok(len.min(4096) as i64)
                    .cost(2, 6)
                    .branch("sendto_pipe"),
                SockRef::Bad => Sem::err(Errno::EBADF).cost(1, 2).branch("sendto_ebadf"),
            }
        }
        "recvfrom" | "recvmsg" => match socket_of(k, ctx, args[0]) {
            SockRef::Socket { .. } => Sem::err(Errno::EAGAIN)
                .cost(1, 5)
                .block(Usecs::from_millis(100))
                .branch("recv_block"),
            SockRef::OtherFd => Sem::err(Errno::EINVAL).cost(1, 3).branch("recv_enotsock"),
            SockRef::Bad => Sem::err(Errno::EBADF).cost(1, 2).branch("recv_ebadf"),
        },
        "poll" | "select" | "epoll_wait" => {
            // Nothing ever becomes ready; timeout (ms) bounds the block.
            let timeout_ms = match name {
                "poll" => args[2],
                "select" => 200,
                _ => args[3],
            };
            let blocked = if timeout_ms == u64::MAX || timeout_ms > 1 << 20 {
                Usecs::from_secs(3600)
            } else {
                Usecs::from_millis(timeout_ms.max(1))
            };
            Sem::ok(0).cost(1, 4).block(blocked).branch("poll_timeout")
        }
        _ => return None,
    })
}

enum SockRef {
    Socket { audit: bool },
    OtherFd,
    Bad,
}

fn socket_of(k: &mut Kernel, ctx: &ExecContext, fd: u64) -> SockRef {
    match k.fd_table(ctx.pid).get(Fd(fd as i32)) {
        Some(&FdObject::Socket { audit }) => SockRef::Socket { audit },
        Some(_) => SockRef::OtherFd,
        None => SockRef::Bad,
    }
}

fn nofile(k: &Kernel, ctx: &ExecContext) -> u32 {
    k.procs.get(ctx.pid).map_or(1024, |p| p.rlimits().nofile)
}

/// Create a sandbox-internal socket (no host module loading involved).
fn alloc_socket(k: &mut Kernel, ctx: &ExecContext) -> Result<Sem, Errno> {
    let limit = nofile(k, ctx);
    let fd = k
        .fd_table(ctx.pid)
        .alloc(FdObject::Socket { audit: false }, limit)?;
    Ok(Sem::ok(fd.0 as i64).cost(3, 16).branch("socket_sandbox_ok"))
}
