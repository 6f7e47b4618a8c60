//! Work-deferral channels and the ground-truth deferral ledger.
//!
//! §2.4.3 of the paper taxonomises cgroup escapes as *work deferral*: a
//! constrained process causes work to be executed in a different cgroup
//! (usually the root, via kernel threads or usermodehelper children) and is
//! never charged. The simulated kernel records every such event in a ledger.
//!
//! The ledger is **not** visible to the fuzzing oracles — they see only the
//! `/proc/stat` and `top` measurements, like the real TORPEDO. It is consumed
//! by the *confirmation* stage ([`torpedo-core`]'s `confirm` module), playing
//! the role of the paper's `ftrace`/`trace-cmd` function-graph analysis.

use crate::cgroup::CgroupId;
use crate::process::{HelperKind, Pid};
use crate::time::Usecs;

/// A kernel mechanism through which work escapes its originating cgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeferralChannel {
    /// `sync(2)`-family buffer flushes executed by kworker threads, plus the
    /// I/O-wait they inflict on unrelated processes (§4.3.1).
    IoFlush,
    /// A usermodehelper child: coredump pipe helper or `modprobe` (§4.3.2,
    /// §4.3.3).
    UserModeHelper(HelperKind),
    /// Audit events serviced by `kauditd`/`auditd`/`journald` (§2.4.3).
    Audit,
    /// Soft-IRQ processing in the context of an unlucky victim process.
    SoftIrq,
    /// TTY/LDISC flushes caused by streaming container output through the
    /// Docker CLI — the framework's own overhead, which TORPEDO minimizes but
    /// cannot eliminate (§3.3).
    TtyFlush,
    /// Dirty-page writeback plus kswapd reclaim executed by kworkers when a
    /// memory-constrained cgroup pushes against its limit: the flush and the
    /// reclaim scan both run in the root cgroup, never charged to the
    /// container that dirtied the pages.
    Writeback,
    /// rx/tx network softirq amplification: large transmits queue packet
    /// processing in `ksoftirqd`, whose CPU time lands on whatever core the
    /// softirq fires on — outside the sender's cpuset and cgroup.
    NetSoftirq,
}

impl DeferralChannel {
    /// Human-readable channel name used in confirmation reports.
    pub fn describe(self) -> &'static str {
        match self {
            DeferralChannel::IoFlush => "kworker I/O buffer flush",
            DeferralChannel::UserModeHelper(HelperKind::CoreDumpHelper) => {
                "usermodehelper coredump generation"
            }
            DeferralChannel::UserModeHelper(HelperKind::Modprobe) => {
                "usermodehelper modprobe execution"
            }
            DeferralChannel::Audit => "audit daemon event processing",
            DeferralChannel::SoftIrq => "softirq handling in victim context",
            DeferralChannel::TtyFlush => "TTY LDISC flush via work queue",
            DeferralChannel::Writeback => "kworker dirty-page writeback and kswapd reclaim",
            DeferralChannel::NetSoftirq => "net rx/tx softirq amplification",
        }
    }
}

/// One recorded escape: work of size `cost` caused by `origin_pid` (in
/// `origin_cgroup`) but charged to `charged_cgroup`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeferralEvent {
    /// Mechanism used.
    pub channel: DeferralChannel,
    /// The cgroup that *should* have been charged.
    pub origin_cgroup: CgroupId,
    /// The process that caused the work.
    pub origin_pid: Pid,
    /// The cgroup that actually absorbed the charge (root for kthreads).
    pub charged_cgroup: CgroupId,
    /// CPU cost of the escaped work.
    pub cost: Usecs,
    /// Core the escaped work ran on.
    pub core: usize,
    /// Name of the syscall that triggered the escape.
    pub syscall: &'static str,
}

/// The per-round deferral ledger.
#[derive(Debug, Clone, Default)]
pub struct DeferralLedger {
    events: Vec<DeferralEvent>,
}

impl DeferralLedger {
    /// An empty ledger.
    pub fn new() -> DeferralLedger {
        DeferralLedger { events: Vec::new() }
    }

    /// Record an event.
    pub fn record(&mut self, event: DeferralEvent) {
        self.events.push(event);
    }

    /// All events this round.
    pub fn events(&self) -> &[DeferralEvent] {
        &self.events
    }

    /// Discard all events in place, keeping the allocation — the
    /// round-reset path, which (unlike [`DeferralLedger::drain`]) lets the
    /// event vec's capacity be reused round after round.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Drain the ledger (start of a new round), returning the old events.
    pub fn drain(&mut self) -> Vec<DeferralEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no escapes were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupTree;

    fn ev(channel: DeferralChannel, origin: u32, cost: u64) -> DeferralEvent {
        DeferralEvent {
            channel,
            origin_cgroup: CgroupId(origin),
            origin_pid: Pid(1),
            charged_cgroup: CgroupTree::ROOT,
            cost: Usecs(cost),
            core: 5,
            syscall: "sync",
        }
    }

    #[test]
    fn drain_empties() {
        let mut ledger = DeferralLedger::new();
        ledger.record(ev(DeferralChannel::SoftIrq, 1, 10));
        let drained = ledger.drain();
        assert_eq!(drained.len(), 1);
        assert!(ledger.is_empty());
    }

    #[test]
    fn channel_descriptions_are_distinct() {
        let channels = [
            DeferralChannel::IoFlush,
            DeferralChannel::UserModeHelper(HelperKind::CoreDumpHelper),
            DeferralChannel::UserModeHelper(HelperKind::Modprobe),
            DeferralChannel::Audit,
            DeferralChannel::SoftIrq,
            DeferralChannel::TtyFlush,
            DeferralChannel::Writeback,
            DeferralChannel::NetSoftirq,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in channels {
            assert!(seen.insert(c.describe()));
        }
    }
}
