//! A fixed-size bitset over component indices — the storage behind the
//! [`Noc`](crate::Noc)'s activity sets (routers that may hold work, links
//! whose wire was driven this cycle).
//!
//! Sized once at construction, never reallocated: membership updates on the
//! per-cycle paths are single word operations. Iteration is by ascending
//! index, which is what lets a sparse walk reproduce the order — and
//! therefore every order-dependent outcome — of the dense `0..n` loop it
//! replaces.

/// A set of indices in `0..len`.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The set holding every index in `0..len`.
    pub(crate) fn full(len: usize) -> Self {
        let mut set = BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        };
        set.fill();
        set
    }

    /// Inserts every index in `0..len`.
    pub(crate) fn fill(&mut self) {
        self.words.fill(u64::MAX);
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1 << (self.len % 64)) - 1;
            }
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of 64-index words (for index-based walks that mutate the set
    /// or its owner while iterating).
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The members in `64 * w .. 64 * (w + 1)`, as a bitmask.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Removes and returns the members in `64 * w .. 64 * (w + 1)`.
    #[inline]
    pub(crate) fn take_word(&mut self, w: usize) -> u64 {
        std::mem::take(&mut self.words[w])
    }

    /// The members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || pop_lowest(&mut rest).map(|bit| 64 * w + bit))
        })
    }
}

/// Pops the lowest member of a [`BitSet::word`] mask, returning its offset
/// within the word.
#[inline]
pub(crate) fn pop_lowest(bits: &mut u64) -> Option<usize> {
    if *bits == 0 {
        return None;
    }
    let b = bits.trailing_zeros() as usize;
    *bits &= *bits - 1;
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_covers_exactly_len() {
        for len in [0, 1, 63, 64, 65, 130] {
            let s = BitSet::full(len);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn insert_remove_iterate_ascending() {
        let mut s = BitSet::full(200);
        for w in 0..s.word_count() {
            s.take_word(w);
        }
        assert_eq!(s.iter().next(), None);
        for i in [130, 3, 64, 199, 63] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 130, 199]);
        s.remove(64);
        assert!(!s.contains(64) && s.contains(63));
        let mut bits = s.word(0);
        assert_eq!(pop_lowest(&mut bits), Some(3));
        assert_eq!(pop_lowest(&mut bits), Some(63));
        assert_eq!(pop_lowest(&mut bits), None);
        s.fill();
        assert_eq!(s.iter().count(), 200);
    }
}
