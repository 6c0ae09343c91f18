//! A fixed-size bitset over component indices — the storage behind the
//! activity sets: the [`Noc`](crate::Noc)'s (routers that may hold work,
//! links whose wire was driven this cycle, NI links that may hold a word)
//! and the system's set of NIs that can act.
//!
//! Sized once at construction, never reallocated: membership updates on the
//! per-cycle paths are single word operations. Iteration is by ascending
//! index, which is what lets a sparse walk reproduce the order — and
//! therefore every order-dependent outcome — of the dense `0..n` loop it
//! replaces.

/// A set of indices in `0..len`.
#[derive(Debug, Clone)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// The empty set over `0..len`.
    pub fn empty(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set holding every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut set = Self::empty(len);
        set.fill();
        set
    }

    /// Inserts every index in `0..len`.
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1 << (self.len % 64)) - 1;
            }
        }
    }

    /// Inserts `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of 64-index words (for index-based walks that mutate the set
    /// or its owner while iterating).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The members in `64 * w .. 64 * (w + 1)`, as a bitmask.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Replaces the members in `64 * w .. 64 * (w + 1)` with `bits` — how a
    /// walk applies the removals it decided for one word at once.
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        debug_assert!(
            64 * w + (64 - bits.leading_zeros() as usize) <= self.len,
            "member beyond the set's length"
        );
        self.words[w] = bits;
    }

    /// Removes and returns the members in `64 * w .. 64 * (w + 1)`.
    #[inline]
    pub fn take_word(&mut self, w: usize) -> u64 {
        std::mem::take(&mut self.words[w])
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || pop_lowest(&mut rest).map(|bit| 64 * w + bit))
        })
    }
}

/// Pops the lowest member of a [`BitSet::word`] mask, returning its offset
/// within the word.
#[inline]
pub fn pop_lowest(bits: &mut u64) -> Option<usize> {
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
            assert_eq!(BitSet::empty(len).iter().next(), None);
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
        s.set_word(2, s.word(2) & !(1 << 2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 199]);
        s.fill();
        assert_eq!(s.iter().count(), 200);
    }
}
