//! A table indexed by an id the kernel hands out itself.
//!
//! Cgroup ids and file descriptors count up from a small base, so their
//! tables can store each entry at the index of its id: a lookup is a
//! bounds check, with nothing to hash or probe (DESIGN.md §5b).

/// Entries stored at the index of their id. A removed entry leaves an
/// empty slot behind; ids that were never handed out read as absent.
#[derive(Debug, Clone)]
pub(crate) struct Slots<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for Slots<V> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> Slots<V> {
    /// The entry at `id`, if one is stored there.
    pub(crate) fn get(&self, id: usize) -> Option<&V> {
        self.slots.get(id)?.as_ref()
    }

    /// Mutable access to the entry at `id`.
    pub(crate) fn get_mut(&mut self, id: usize) -> Option<&mut V> {
        self.slots.get_mut(id)?.as_mut()
    }

    /// Store `value` at `id`, replacing any entry there and growing the
    /// table when `id` lies past its end.
    pub(crate) fn insert(&mut self, id: usize, value: V) {
        if id >= self.slots.len() {
            self.slots.resize_with(id + 1, || None);
        }
        if self.slots[id].replace(value).is_none() {
            self.len += 1;
        }
    }

    /// Take the entry at `id` out of the table.
    pub(crate) fn remove(&mut self, id: usize) -> Option<V> {
        let value = self.slots.get_mut(id)?.take();
        if value.is_some() {
            self.len -= 1;
        }
        value
    }

    /// Drop every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The stored entries in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }

    /// The stored entries in id order, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_count_and_skip_holes() {
        let mut s = Slots::default();
        s.insert(3, 'a');
        s.insert(5, 'b');
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(3), Some(&'a'));
        assert_eq!(s.get(4), None);
        assert_eq!(s.get(99), None);
        s.insert(3, 'c');
        assert_eq!(s.len(), 2, "replacing keeps the count");
        assert_eq!(s.remove(3), Some('c'));
        assert_eq!(s.remove(3), None);
        assert_eq!(s.values().collect::<Vec<_>>(), [&'b']);
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(5), None);
    }
}
