//! A fixed-capacity bit set of node ids, iterated in ascending order.
//!
//! The fast-forward driver and the fabric keep their activity indexes
//! (awake machines, occupied buffers) as `NodeSet`s so per-cycle work
//! scales with the members, not with the mesh. [`MAX_NODES`] caps a mesh
//! at 256 nodes, so a set is four words and `Copy`: iterating a copy
//! while the original changes is how a phase visits a stable snapshot,
//! and [`NodeSet::next_from`] is how a phase follows the live set.

use crate::MAX_NODES;

const WORDS: usize = (MAX_NODES as usize).div_ceil(64);

/// A set of node ids below [`MAX_NODES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeSet {
    words: [u64; WORDS],
}

impl NodeSet {
    /// The set `{0, 1, ..., nodes - 1}`.
    pub(crate) fn full(nodes: u32) -> Self {
        let mut s = NodeSet::default();
        for n in 0..nodes {
            s.insert(n);
        }
        s
    }

    #[inline]
    pub(crate) fn insert(&mut self, n: u32) {
        self.words[n as usize / 64] |= 1 << (n % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, n: u32) {
        self.words[n as usize / 64] &= !(1 << (n % 64));
    }

    #[inline]
    pub(crate) fn contains(&self, n: u32) -> bool {
        self.words[n as usize / 64] & (1 << (n % 64)) != 0
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= from`, read from the set as it is now.
    #[inline]
    pub(crate) fn next_from(&self, from: u32) -> Option<u32> {
        let mut i = from as usize / 64;
        if i >= WORDS {
            return None;
        }
        let mut w = self.words[i] & (!0u64 << (from % 64));
        loop {
            if w != 0 {
                return Some((i * 64) as u32 + w.trailing_zeros());
            }
            i += 1;
            if i == WORDS {
                return None;
            }
            w = self.words[i];
        }
    }

    /// The members in ascending order (of this copy of the set).
    pub(crate) fn iter(self) -> impl Iterator<Item = u32> {
        let mut from = 0;
        std::iter::from_fn(move || {
            let n = self.next_from(from)?;
            from = n + 1;
            Some(n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_ascending_across_words() {
        let mut s = NodeSet::default();
        assert!(s.is_empty());
        for n in [255, 3, 64, 63, 130, 0] {
            s.insert(n);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 130, 255]);
        assert_eq!(s.next_from(4), Some(63));
        assert_eq!(s.next_from(65), Some(130));
        assert_eq!(s.next_from(256), None);
        s.remove(63);
        s.remove(64);
        assert!(!s.contains(63) && s.contains(130));
        assert_eq!(s.next_from(4), Some(130));
        assert_eq!(NodeSet::full(72).iter().count(), 72);
        assert_eq!(NodeSet::full(MAX_NODES).iter().last(), Some(MAX_NODES - 1));
    }

    #[test]
    fn iterating_a_copy_ignores_later_changes() {
        let mut s = NodeSet::full(4);
        let mut seen = Vec::new();
        for n in s.iter() {
            s.remove(n);
            s.insert(n + 10);
            seen.push(n);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }
}
