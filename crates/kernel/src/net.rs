//! Network state: socket families, the kernel module table, and — the heart
//! of the paper's novel Table 4.2 finding — the `modprobe` path taken when a
//! *valid but unavailable* family is requested.
//!
//! §4.3.3: "no negative result is cached in the modprobe handling code in
//! the event a valid socket family is requested from userspace but no
//! corresponding module exists on disk. In this case, repeated requests for
//! a socket will cause modprobe to be executed again and again."

use std::collections::HashSet;

use crate::errno::Errno;

/// Address families (subset of `AF_*`, Linux numeric values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressFamily {
    /// `AF_UNIX`.
    Unix,
    /// `AF_INET`.
    Inet,
    /// `AF_INET6`.
    Inet6,
    /// `AF_NETLINK` — used by the audit-triggering seeds.
    Netlink,
    /// `AF_PACKET`.
    Packet,
    /// A valid family number whose protocol module is not loaded and not on
    /// disk (e.g. `AF_AX25`, `AF_X25`, `AF_ROSE` on a desktop kernel).
    Modular(u16),
    /// An out-of-range family number.
    Invalid(u64),
}

impl AddressFamily {
    /// Decode a raw `domain` argument of `socket(2)`.
    pub fn from_raw(raw: u64) -> AddressFamily {
        match raw {
            1 => AddressFamily::Unix,
            2 => AddressFamily::Inet,
            10 => AddressFamily::Inet6,
            16 => AddressFamily::Netlink,
            17 => AddressFamily::Packet,
            // AF_MAX on Linux 5.x is 45; families <= that are "valid".
            n if n <= 45 => AddressFamily::Modular(n as u16),
            n => AddressFamily::Invalid(n),
        }
    }

    /// The raw numeric value.
    pub fn as_raw(&self) -> u64 {
        match self {
            AddressFamily::Unix => 1,
            AddressFamily::Inet => 2,
            AddressFamily::Inet6 => 10,
            AddressFamily::Netlink => 16,
            AddressFamily::Packet => 17,
            AddressFamily::Modular(n) => *n as u64,
            AddressFamily::Invalid(n) => *n,
        }
    }
}

/// A live socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Socket {
    /// Address family of the socket.
    pub family: AddressFamily,
    /// `SOCK_*` type argument.
    pub sock_type: u64,
    /// Protocol argument.
    pub protocol: u64,
    /// Whether this is the netlink audit socket (`NETLINK_AUDIT` proto 9).
    pub audit: bool,
}

/// Outcome of a socket-creation request, before any fd allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketOutcome {
    /// Created successfully.
    Created(Socket),
    /// Failed with `errno`, *after* having exec'd modprobe `modprobe_execs`
    /// times through the usermodehelper API (the OOB channel).
    Failed {
        /// Errno reported to the caller.
        errno: Errno,
        /// Number of modprobe executions this request caused (0 or 1).
        modprobe_execs: u32,
    },
}

/// Kernel network state.
#[derive(Debug, Clone)]
pub struct NetState {
    /// When `true`, model the *patched* kernel that caches negative module
    /// lookups (the mitigation the paper proposes submitting). The default
    /// `false` reproduces the vulnerable mainline behaviour.
    pub negative_cache_enabled: bool,
    /// Families already known-missing (only consulted when the negative
    /// cache is enabled).
    negative_cache: HashSet<u64>,
    /// Total modprobe executions (diagnostics).
    pub modprobe_exec_count: u64,
    /// Bytes transmitted in the current observer window (reset each round).
    tx_bytes_window: u64,
}

impl NetState {
    /// The NAPI budget: once a window's cumulative transmits exceed this,
    /// packet completion work is kicked out of syscall context into
    /// `ksoftirqd` — the trigger for the net-softirq deferral channel.
    pub const NAPI_BUDGET_BYTES: u64 = 256 << 10;
    /// Desktop-kernel default: common families built in, negative caching
    /// off (the vulnerable configuration the paper fuzzed).
    pub fn new() -> NetState {
        NetState {
            negative_cache_enabled: false,
            negative_cache: HashSet::new(),
            modprobe_exec_count: 0,
            tx_bytes_window: 0,
        }
    }

    /// Account `len` transmitted bytes; returns `true` once the window's
    /// cumulative transmit load exceeds the NAPI budget, meaning rx/tx
    /// completion processing now runs in `ksoftirqd` context instead of
    /// being absorbed inline by the sender.
    pub fn transmit(&mut self, len: u64) -> bool {
        self.tx_bytes_window = self.tx_bytes_window.saturating_add(len);
        self.tx_bytes_window > Self::NAPI_BUDGET_BYTES
    }

    /// Bytes transmitted so far this window.
    pub fn tx_bytes_window(&self) -> u64 {
        self.tx_bytes_window
    }

    /// Reset per-window transmit accounting (start of an observer round).
    pub fn reset_window(&mut self) {
        self.tx_bytes_window = 0;
    }

    /// Process a `socket(2)` request.
    ///
    /// Follows the kernel's `__sock_create` logic: invalid family →
    /// `EAFNOSUPPORT` immediately; valid-but-missing family → exec modprobe
    /// via usermodehelper, module not found → `EAFNOSUPPORT` (or the type/
    /// protocol variants), *without caching the negative result* unless the
    /// mitigation flag is set.
    pub fn create_socket(
        &mut self,
        family_raw: u64,
        sock_type: u64,
        protocol: u64,
    ) -> SocketOutcome {
        let family = AddressFamily::from_raw(family_raw);
        match family {
            AddressFamily::Invalid(_) => SocketOutcome::Failed {
                errno: Errno::EAFNOSUPPORT,
                modprobe_execs: 0,
            },
            AddressFamily::Modular(n) => {
                if self.negative_cache_enabled && self.negative_cache.contains(&(n as u64)) {
                    return SocketOutcome::Failed {
                        errno: Errno::EAFNOSUPPORT,
                        modprobe_execs: 0,
                    };
                }
                // The request looks valid, so the kernel asks modprobe to
                // load `net-pf-<n>` — every single time.
                self.modprobe_exec_count += 1;
                if self.negative_cache_enabled {
                    self.negative_cache.insert(n as u64);
                }
                SocketOutcome::Failed {
                    errno: Errno::EAFNOSUPPORT,
                    modprobe_execs: 1,
                }
            }
            _ => {
                // Family available: validate type and protocol.
                if sock_type == 0 || sock_type > 10 {
                    return SocketOutcome::Failed {
                        errno: Errno::ESOCKTNOSUPPORT,
                        modprobe_execs: 0,
                    };
                }
                // Unknown protocols on a known family also trigger a module
                // request (`net-pf-<f>-proto-<p>`) before failing.
                if protocol > 16 {
                    let execs = if self.negative_cache_enabled
                        && self.negative_cache.contains(&(family_raw << 16 | protocol))
                    {
                        0
                    } else {
                        self.modprobe_exec_count += 1;
                        if self.negative_cache_enabled {
                            self.negative_cache.insert(family_raw << 16 | protocol);
                        }
                        1
                    };
                    return SocketOutcome::Failed {
                        errno: Errno::EPROTONOSUPPORT,
                        modprobe_execs: execs,
                    };
                }
                let audit = family == AddressFamily::Netlink && protocol == 9;
                SocketOutcome::Created(Socket {
                    family,
                    sock_type,
                    protocol,
                    audit,
                })
            }
        }
    }
}

impl Default for NetState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_families_create_sockets() {
        let mut net = NetState::new();
        for fam in [1u64, 2, 10, 16, 17] {
            match net.create_socket(fam, 1, 0) {
                SocketOutcome::Created(_) => {}
                other => panic!("family {fam} should create, got {other:?}"),
            }
        }
        assert_eq!(net.modprobe_exec_count, 0);
    }

    #[test]
    fn modular_family_execs_modprobe_every_time() {
        let mut net = NetState::new();
        for _ in 0..50 {
            let out = net.create_socket(9, 3, 0); // AF_X25-ish
            assert_eq!(
                out,
                SocketOutcome::Failed {
                    errno: Errno::EAFNOSUPPORT,
                    modprobe_execs: 1
                }
            );
        }
        assert_eq!(net.modprobe_exec_count, 50, "no negative caching");
    }

    #[test]
    fn negative_cache_mitigation_stops_the_storm() {
        let mut net = NetState::new();
        net.negative_cache_enabled = true;
        for _ in 0..50 {
            net.create_socket(9, 3, 0);
        }
        assert_eq!(net.modprobe_exec_count, 1, "patched kernel caches the miss");
    }

    #[test]
    fn invalid_family_fails_cheaply() {
        let mut net = NetState::new();
        let out = net.create_socket(4096, 1, 0);
        assert_eq!(
            out,
            SocketOutcome::Failed {
                errno: Errno::EAFNOSUPPORT,
                modprobe_execs: 0
            }
        );
        assert_eq!(net.modprobe_exec_count, 0);
    }

    #[test]
    fn bad_type_is_esocktnosupport() {
        let mut net = NetState::new();
        let out = net.create_socket(2, 0, 0);
        assert!(matches!(
            out,
            SocketOutcome::Failed {
                errno: Errno::ESOCKTNOSUPPORT,
                ..
            }
        ));
    }

    #[test]
    fn bad_protocol_is_eprotonosupport_with_modprobe() {
        let mut net = NetState::new();
        let out = net.create_socket(2, 1, 99);
        assert_eq!(
            out,
            SocketOutcome::Failed {
                errno: Errno::EPROTONOSUPPORT,
                modprobe_execs: 1
            }
        );
    }

    #[test]
    fn audit_socket_is_detected() {
        let mut net = NetState::new();
        match net.create_socket(16, 3, 9) {
            SocketOutcome::Created(s) => assert!(s.audit),
            other => panic!("expected created, got {other:?}"),
        }
        match net.create_socket(16, 3, 0) {
            SocketOutcome::Created(s) => assert!(!s.audit),
            other => panic!("expected created, got {other:?}"),
        }
    }

    #[test]
    fn napi_budget_gates_the_softirq_kick() {
        let mut net = NetState::new();
        // Four full 64 KiB sends sit exactly at the budget: still inline.
        for _ in 0..4 {
            assert!(!net.transmit(64 << 10));
        }
        // The next byte tips completion processing into ksoftirqd.
        assert!(net.transmit(1));
        assert_eq!(net.tx_bytes_window(), NetState::NAPI_BUDGET_BYTES + 1);
        // A new observer round starts the accounting over.
        net.reset_window();
        assert_eq!(net.tx_bytes_window(), 0);
        assert!(!net.transmit(64 << 10));
    }

    #[test]
    fn family_decode_round_trips() {
        for raw in [1u64, 2, 10, 16, 17, 30, 4096] {
            assert_eq!(AddressFamily::from_raw(raw).as_raw(), raw);
        }
    }
}
