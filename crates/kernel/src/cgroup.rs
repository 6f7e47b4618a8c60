//! Control groups: hierarchical resource limits and — crucially for TORPEDO —
//! resource *tracking*.
//!
//! The paper's §2.2.1/§2.4.3 observation is that cgroup *limitation* logic is
//! sound while *tracking* has gaps: work deferred to kernel threads (which
//! live in the implicit root cgroup) is never charged to the originating
//! cgroup. This module reproduces that accounting model: every charge names a
//! cgroup, kernel threads are in [`CgroupTree::ROOT`], and the gap between
//! "work caused" and "work charged" is what the deferral ledger
//! ([`crate::deferral`]) records.

use crate::kernel::NO_ROUND_WINDOW;
use crate::slots::Slots;
use crate::time::Usecs;

/// Identifier of a control group. The root cgroup is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub u32);

/// Resource limits attached to a cgroup, mirroring the Docker-facing knobs of
/// Table 3.1 plus the memory/blkio controllers of Table 2.1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CgroupLimits {
    /// `--cpus`: maximum CPU utilization, in cores (e.g. `1.5`).
    ///
    /// `None` means unconstrained.
    pub cpu_quota_cores: Option<f64>,
    /// `--cpuset-cpus`: physical cores the group may be scheduled on.
    ///
    /// `None` means all cores.
    pub cpuset: Option<Vec<usize>>,
    /// Upper limit on memory, bytes. `None` means unconstrained.
    pub memory_bytes: Option<u64>,
    /// Relative block-I/O weight (the `blkio` controller).
    pub blkio_weight: Option<u32>,
}

/// One control group node.
#[derive(Debug, Clone)]
pub struct Cgroup {
    id: CgroupId,
    parent: Option<CgroupId>,
    name: String,
    limits: CgroupLimits,
    /// The effective CPU quota ([`CgroupTree::effective_cpu_quota`]),
    /// computed once at creation: limits never change afterwards, and a
    /// group with children cannot be removed, so no ancestor changes
    /// under it.
    effective_quota: Option<f64>,
    /// The CPU budget for the tree's current window: the window scaled by
    /// the effective quota, recomputed only when the window changes.
    cpu_budget: Option<Usecs>,
    /// CPU time charged to this cgroup in the current accounting window.
    charged_cpu: Usecs,
    /// Bytes of memory currently charged.
    charged_memory: u64,
    /// Block-I/O bytes charged in the current accounting window.
    charged_io_bytes: u64,
    /// Times the memory controller rejected a charge (OOM-kill events, the
    /// containerd metric of Table 2.2).
    oom_events: u64,
}

impl Cgroup {
    /// The group's id.
    pub fn id(&self) -> CgroupId {
        self.id
    }

    /// The parent group, `None` for the root.
    pub fn parent(&self) -> Option<CgroupId> {
        self.parent
    }

    /// The group's path-style name, e.g. `"docker/fuzz-0"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The limits configured on this group.
    pub fn limits(&self) -> &CgroupLimits {
        &self.limits
    }

    /// CPU time charged to this group in the current window.
    pub fn charged_cpu(&self) -> Usecs {
        self.charged_cpu
    }

    /// Block-I/O bytes charged to this group in the current window.
    pub fn charged_io_bytes(&self) -> u64 {
        self.charged_io_bytes
    }

    /// Memory bytes currently charged to this group.
    pub fn charged_memory(&self) -> u64 {
        self.charged_memory
    }

    /// Memory-limit rejections recorded against this group (OOM events).
    pub fn oom_events(&self) -> u64 {
        self.oom_events
    }
}

/// Error raised by cgroup operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgroupError {
    /// Referenced group does not exist.
    NoSuchGroup(CgroupId),
    /// Attempted to give the root group a parent or remove it.
    RootIsImmutable,
    /// Attempted to remove a group that still has children (`rmdir(2)`
    /// answers `EBUSY`).
    Busy(CgroupId),
    /// The memory controller rejected a charge (limit would be exceeded).
    MemoryLimitExceeded {
        /// Group whose limit was hit.
        group: CgroupId,
        /// Limit in bytes.
        limit: u64,
        /// Requested total in bytes.
        requested: u64,
    },
}

impl std::fmt::Display for CgroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgroupError::NoSuchGroup(id) => write!(f, "no such cgroup: {:?}", id),
            CgroupError::RootIsImmutable => write!(f, "the root cgroup cannot be modified"),
            CgroupError::Busy(id) => write!(f, "cgroup {:?} still has children", id),
            CgroupError::MemoryLimitExceeded {
                group,
                limit,
                requested,
            } => write!(
                f,
                "memory limit exceeded in {:?}: requested {} of {} bytes",
                group, requested, limit
            ),
        }
    }
}

impl std::error::Error for CgroupError {}

/// The cgroup hierarchy (a simplified `cgroupfs`).
///
/// Ids count up from the root's 0 and are never reused, so each group is
/// stored at the index of its id.
#[derive(Debug, Clone)]
pub struct CgroupTree {
    groups: Slots<Cgroup>,
    next_id: u32,
    /// The accounting window the stored CPU budgets are for.
    window: Usecs,
}

impl CgroupTree {
    /// The implicit root cgroup: no restrictions, hosts all kernel threads.
    pub const ROOT: CgroupId = CgroupId(0);

    /// Create a tree containing only the unrestricted root group.
    pub fn new() -> CgroupTree {
        let mut groups = Slots::default();
        groups.insert(
            0,
            Cgroup {
                id: Self::ROOT,
                parent: None,
                name: "/".to_string(),
                limits: CgroupLimits::default(),
                effective_quota: None,
                cpu_budget: None,
                charged_cpu: Usecs::ZERO,
                charged_memory: 0,
                charged_io_bytes: 0,
                oom_events: 0,
            },
        );
        CgroupTree {
            groups,
            next_id: 1,
            window: NO_ROUND_WINDOW,
        }
    }

    /// Create a child group under `parent` with the given limits.
    ///
    /// # Errors
    /// Returns [`CgroupError::NoSuchGroup`] if `parent` does not exist.
    pub fn create(
        &mut self,
        parent: CgroupId,
        name: &str,
        limits: CgroupLimits,
    ) -> Result<CgroupId, CgroupError> {
        let inherited = self
            .get(parent)
            .ok_or(CgroupError::NoSuchGroup(parent))?
            .effective_quota;
        let effective_quota = match (limits.cpu_quota_cores, inherited) {
            (Some(own), Some(above)) => Some(own.min(above)),
            (own, above) => own.or(above),
        };
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.groups.insert(
            id.0 as usize,
            Cgroup {
                id,
                parent: Some(parent),
                name: name.to_string(),
                limits,
                effective_quota,
                cpu_budget: effective_quota.map(|q| self.window.scale(q)),
                charged_cpu: Usecs::ZERO,
                charged_memory: 0,
                charged_io_bytes: 0,
                oom_events: 0,
            },
        );
        Ok(id)
    }

    /// Remove a leaf group. The root cannot be removed.
    ///
    /// # Errors
    /// [`CgroupError::RootIsImmutable`] for the root,
    /// [`CgroupError::Busy`] while the group has children,
    /// [`CgroupError::NoSuchGroup`] if absent.
    pub fn remove(&mut self, id: CgroupId) -> Result<(), CgroupError> {
        if id == Self::ROOT {
            return Err(CgroupError::RootIsImmutable);
        }
        if self.groups.values().any(|g| g.parent == Some(id)) {
            return Err(CgroupError::Busy(id));
        }
        self.groups
            .remove(id.0 as usize)
            .map(|_| ())
            .ok_or(CgroupError::NoSuchGroup(id))
    }

    /// Look up a group.
    pub fn get(&self, id: CgroupId) -> Option<&Cgroup> {
        self.groups.get(id.0 as usize)
    }

    fn get_mut(&mut self, id: CgroupId) -> Option<&mut Cgroup> {
        self.groups.get_mut(id.0 as usize)
    }

    /// Number of groups, including the root.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.groups.len() <= 1
    }

    /// Iterate over all groups in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Cgroup> {
        self.groups.values()
    }

    /// The *effective* cpuset of a group: its own, or the nearest ancestor's.
    ///
    /// `None` means "all cores" (the root's behaviour).
    pub fn effective_cpuset(&self, id: CgroupId) -> Option<Vec<usize>> {
        let mut cur = self.get(id);
        while let Some(g) = cur {
            if let Some(set) = &g.limits.cpuset {
                return Some(set.clone());
            }
            cur = g.parent.and_then(|p| self.get(p));
        }
        None
    }

    /// The *effective* CPU quota in cores: the minimum along the ancestor
    /// chain, or `None` if unconstrained everywhere (or `id` is unknown).
    pub fn effective_cpu_quota(&self, id: CgroupId) -> Option<f64> {
        self.get(id)?.effective_quota
    }

    /// Charge CPU time to `id` (tracking function of the CPU controller).
    ///
    /// Charging an unknown group is a no-op: this mirrors the kernel, where a
    /// task whose cgroup was removed falls back to the root — we deliberately
    /// drop the charge instead so tests can detect accounting leaks.
    pub fn charge_cpu(&mut self, id: CgroupId, amount: Usecs) {
        if let Some(g) = self.get_mut(id) {
            g.charged_cpu += amount;
        }
    }

    /// Charge block-I/O bytes to `id`.
    pub fn charge_io(&mut self, id: CgroupId, bytes: u64) {
        if let Some(g) = self.get_mut(id) {
            g.charged_io_bytes += bytes;
        }
    }

    /// Charge (or release, with `delta < 0`) memory to `id`, enforcing the
    /// effective memory limit.
    ///
    /// # Errors
    /// [`CgroupError::MemoryLimitExceeded`] when the new total would exceed
    /// the group's own limit; the charge is not applied in that case.
    pub fn charge_memory(&mut self, id: CgroupId, delta: i64) -> Result<(), CgroupError> {
        let g = self.get_mut(id).ok_or(CgroupError::NoSuchGroup(id))?;
        let new = if delta >= 0 {
            g.charged_memory.saturating_add(delta as u64)
        } else {
            g.charged_memory.saturating_sub((-delta) as u64)
        };
        if let Some(limit) = g.limits.memory_bytes {
            if new > limit {
                g.oom_events += 1;
                return Err(CgroupError::MemoryLimitExceeded {
                    group: id,
                    limit,
                    requested: new,
                });
            }
        }
        g.charged_memory = new;
        Ok(())
    }

    /// Fraction of the group's own memory limit currently charged (`0.0`
    /// for an unconstrained or unknown group). Near `1.0` the kernel starts
    /// reclaiming — the trigger for the writeback deferral channel.
    pub fn memory_pressure(&self, id: CgroupId) -> f64 {
        let Some(g) = self.get(id) else {
            return 0.0;
        };
        match g.limits.memory_bytes {
            Some(limit) if limit > 0 => g.charged_memory as f64 / limit as f64,
            _ => 0.0,
        }
    }

    /// Make `window` the accounting window: every constrained group's CPU
    /// budget becomes `window` scaled by its effective quota. Charges are
    /// untouched ([`CgroupTree::reset_window`] clears them).
    pub fn set_window(&mut self, window: Usecs) {
        if window == self.window {
            return;
        }
        self.window = window;
        for g in self.groups.values_mut() {
            g.cpu_budget = g.effective_quota.map(|q| window.scale(q));
        }
    }

    /// Remaining CPU budget of the group within the current accounting
    /// window ([`CgroupTree::set_window`]), given the effective quota.
    ///
    /// Returns `None` when the group is unconstrained (or unknown).
    pub fn remaining_cpu_budget(&self, id: CgroupId) -> Option<Usecs> {
        let g = self.get(id)?;
        Some(g.cpu_budget?.saturating_sub(g.charged_cpu))
    }

    /// Reset the per-window charge counters (CPU and block-I/O) on every
    /// group. Called by the scheduler at the start of each observer round.
    pub fn reset_window(&mut self) {
        for g in self.groups.values_mut() {
            g.charged_cpu = Usecs::ZERO;
            g.charged_io_bytes = 0;
        }
    }
}

impl Default for CgroupTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with_child(limits: CgroupLimits) -> (CgroupTree, CgroupId) {
        let mut t = CgroupTree::new();
        let id = t.create(CgroupTree::ROOT, "docker/test", limits).unwrap();
        (t, id)
    }

    #[test]
    fn root_exists_and_is_unrestricted() {
        let t = CgroupTree::new();
        let root = t.get(CgroupTree::ROOT).unwrap();
        assert_eq!(root.limits().cpu_quota_cores, None);
        assert_eq!(t.effective_cpuset(CgroupTree::ROOT), None);
        assert!(t.is_empty());
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut t = CgroupTree::new();
        assert_eq!(
            t.remove(CgroupTree::ROOT),
            Err(CgroupError::RootIsImmutable)
        );
    }

    #[test]
    fn create_under_missing_parent_fails() {
        let mut t = CgroupTree::new();
        let err = t
            .create(CgroupId(99), "x", CgroupLimits::default())
            .unwrap_err();
        assert_eq!(err, CgroupError::NoSuchGroup(CgroupId(99)));
    }

    #[test]
    fn cpuset_inherits_from_parent() {
        let mut t = CgroupTree::new();
        let parent = t
            .create(
                CgroupTree::ROOT,
                "docker",
                CgroupLimits {
                    cpuset: Some(vec![0, 1, 2]),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        let child = t
            .create(parent, "docker/c1", CgroupLimits::default())
            .unwrap();
        assert_eq!(t.effective_cpuset(child), Some(vec![0, 1, 2]));
    }

    #[test]
    fn quota_takes_minimum_along_chain() {
        let mut t = CgroupTree::new();
        let parent = t
            .create(
                CgroupTree::ROOT,
                "docker",
                CgroupLimits {
                    cpu_quota_cores: Some(2.0),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        let child = t
            .create(
                parent,
                "docker/c1",
                CgroupLimits {
                    cpu_quota_cores: Some(0.5),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        assert_eq!(t.effective_cpu_quota(child), Some(0.5));
        let loose = t
            .create(parent, "docker/c2", CgroupLimits::default())
            .unwrap();
        assert_eq!(t.effective_cpu_quota(loose), Some(2.0));
    }

    #[test]
    fn cpu_budget_shrinks_with_charges() {
        let (mut t, id) = tree_with_child(CgroupLimits {
            cpu_quota_cores: Some(1.0),
            ..CgroupLimits::default()
        });
        t.set_window(Usecs::from_secs(5));
        assert_eq!(t.remaining_cpu_budget(id), Some(Usecs::from_secs(5)));
        t.charge_cpu(id, Usecs::from_secs(2));
        assert_eq!(t.remaining_cpu_budget(id), Some(Usecs::from_secs(3)));
        t.charge_cpu(id, Usecs::from_secs(10));
        assert_eq!(t.remaining_cpu_budget(id), Some(Usecs::ZERO));
    }

    #[test]
    fn cpu_budget_follows_the_window() {
        let (mut t, id) = tree_with_child(CgroupLimits {
            cpu_quota_cores: Some(0.5),
            ..CgroupLimits::default()
        });
        // Until a window is set, budgets are for the window outside a round.
        assert_eq!(t.remaining_cpu_budget(id), Some(NO_ROUND_WINDOW.scale(0.5)));
        t.set_window(Usecs::from_secs(4));
        t.charge_cpu(id, Usecs::from_secs(1));
        assert_eq!(t.remaining_cpu_budget(id), Some(Usecs::from_secs(1)));
        // A new window rescales the budget and keeps the charges.
        t.set_window(Usecs::from_secs(10));
        assert_eq!(t.remaining_cpu_budget(id), Some(Usecs::from_secs(4)));
        // A group created mid-window gets that window's budget.
        let late = t
            .create(
                id,
                "docker/test/late",
                CgroupLimits {
                    cpu_quota_cores: Some(0.25),
                    ..CgroupLimits::default()
                },
            )
            .unwrap();
        assert_eq!(t.remaining_cpu_budget(late), Some(Usecs(2_500_000)));
    }

    #[test]
    fn unconstrained_budget_is_none() {
        let (mut t, id) = tree_with_child(CgroupLimits::default());
        t.set_window(Usecs::from_secs(5));
        assert_eq!(t.remaining_cpu_budget(id), None);
    }

    #[test]
    fn memory_limit_enforced() {
        let (mut t, id) = tree_with_child(CgroupLimits {
            memory_bytes: Some(1000),
            ..CgroupLimits::default()
        });
        t.charge_memory(id, 600).unwrap();
        let err = t.charge_memory(id, 600).unwrap_err();
        assert!(matches!(err, CgroupError::MemoryLimitExceeded { .. }));
        // Failed charge must not be applied.
        assert_eq!(t.get(id).unwrap().charged_memory(), 600);
        t.charge_memory(id, -200).unwrap();
        assert_eq!(t.get(id).unwrap().charged_memory(), 400);
    }

    #[test]
    fn oom_events_count_rejections() {
        let (mut t, id) = tree_with_child(CgroupLimits {
            memory_bytes: Some(100),
            ..CgroupLimits::default()
        });
        assert_eq!(t.get(id).unwrap().oom_events(), 0);
        let _ = t.charge_memory(id, 500);
        let _ = t.charge_memory(id, 500);
        assert_eq!(t.get(id).unwrap().oom_events(), 2);
        t.reset_window();
        assert_eq!(t.get(id).unwrap().oom_events(), 2, "OOM count is lifetime");
    }

    #[test]
    fn reset_window_clears_cpu_and_io_only() {
        let (mut t, id) = tree_with_child(CgroupLimits::default());
        t.charge_cpu(id, Usecs(100));
        t.charge_io(id, 4096);
        t.charge_memory(id, 123).unwrap();
        t.reset_window();
        let g = t.get(id).unwrap();
        assert_eq!(g.charged_cpu(), Usecs::ZERO);
        assert_eq!(g.charged_io_bytes(), 0);
        assert_eq!(g.charged_memory(), 123, "memory is not windowed");
    }

    #[test]
    fn charge_to_unknown_group_is_dropped() {
        let mut t = CgroupTree::new();
        t.charge_cpu(CgroupId(42), Usecs(100));
        assert_eq!(t.get(CgroupTree::ROOT).unwrap().charged_cpu(), Usecs::ZERO);
    }

    #[test]
    fn remove_leaf() {
        let (mut t, id) = tree_with_child(CgroupLimits::default());
        assert_eq!(t.len(), 2);
        t.remove(id).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(id), Err(CgroupError::NoSuchGroup(id)));
    }

    #[test]
    fn remove_refuses_a_group_with_children() {
        let (mut t, parent) = tree_with_child(CgroupLimits {
            cpu_quota_cores: Some(0.5),
            cpuset: Some(vec![1]),
            ..CgroupLimits::default()
        });
        let child = t
            .create(parent, "docker/test/inner", CgroupLimits::default())
            .unwrap();
        assert_eq!(t.remove(parent), Err(CgroupError::Busy(parent)));
        // The child keeps its ancestor's limits.
        assert_eq!(t.effective_cpu_quota(child), Some(0.5));
        assert_eq!(t.effective_cpuset(child), Some(vec![1]));
        t.remove(child).unwrap();
        t.remove(parent).unwrap();
        assert!(t.is_empty());
    }
}
