//! Fixed-capacity ring buffers for the hot transport paths.
//!
//! Router BE input queues, GT calendars and NI inboxes all have hardware
//! capacities fixed at instantiation time, so modelling them with growable
//! `VecDeque`s put allocator traffic and spare-capacity bookkeeping on the
//! per-cycle path. [`Ring`] is the replacement: one buffer allocated at
//! construction, words moved in and out **by value**, no reallocation ever.
//! The steady-state `Noc` tick performs zero allocations as a result
//! (pinned by the facade's `zero_alloc` test). Slots are written in order
//! on first use rather than at construction, so building a network does
//! not write every slot of every NI inbox (4096 per NI by default): a
//! 16x16 mesh is 8 MiB of memory touched only as traffic reaches it.

/// Error returned when pushing into a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFullError;

impl std::fmt::Display for RingFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring buffer is full")
    }
}

impl std::error::Error for RingFullError {}

/// A bounded FIFO over a fixed buffer; `T: Copy` keeps every transfer a
/// plain move-by-value with no drop glue.
#[derive(Debug)]
pub struct Ring<T: Copy> {
    /// The slots: `cap` allocated at construction, the first `buf.len()`
    /// written. Positions are filled in order until the ring first wraps.
    buf: Vec<Option<T>>,
    cap: usize,
    head: usize,
    len: usize,
}

/// A clone keeps the whole allocation, so it never reallocates on push.
impl<T: Copy> Clone for Ring<T> {
    fn clone(&self) -> Self {
        let mut buf = Vec::with_capacity(self.cap);
        buf.extend_from_slice(&self.buf);
        Ring { buf, ..*self }
    }
}

impl<T: Copy> Ring<T> {
    /// Creates a ring of `capacity` slots. A zero-capacity ring is legal
    /// and permanently full (every push fails) — the degenerate
    /// configuration the NoC uses to model a buffer-less endpoint, where
    /// each arriving word counts as an overflow.
    pub fn with_capacity(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            len: 0,
        }
    }

    /// Capacity in slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a push would fail.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// The slot holding the value at offset `i < len` from the front:
    /// `head + i` wrapped with a compare (both are below the capacity, so
    /// one subtraction suffices) — no division on the per-cycle paths.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let at = self.head + i;
        if at >= self.cap {
            at - self.cap
        } else {
            at
        }
    }

    /// Appends a value.
    ///
    /// # Errors
    ///
    /// Returns [`RingFullError`] when at capacity.
    #[inline]
    pub fn push_back(&mut self, value: T) -> Result<(), RingFullError> {
        if self.is_full() {
            return Err(RingFullError);
        }
        let tail = self.slot(self.len);
        if tail == self.buf.len() {
            self.buf.push(Some(value));
        } else {
            self.buf[tail] = Some(value);
        }
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the oldest value.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head].take();
        self.head = self.slot(1);
        self.len -= 1;
        v
    }

    /// The oldest value, if any.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.head].as_ref()
        }
    }

    /// The value at offset `i` from the front (0 = oldest), if occupied.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else {
            self.buf[self.slot(i)].as_ref()
        }
    }

    /// Mutable access at offset `i` from the front (0 = oldest), if
    /// occupied.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            None
        } else {
            let idx = self.slot(i);
            self.buf[idx].as_mut()
        }
    }

    /// The newest value, if any.
    #[inline]
    pub fn back(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.slot(self.len - 1)].as_ref()
        }
    }

    /// Removes all values.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Iterates front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| {
            self.buf[self.slot(i)]
                .as_ref()
                .expect("occupied slot in range")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wraparound() {
        let mut r = Ring::with_capacity(3);
        for round in 0u32..10 {
            r.push_back(round * 2).unwrap();
            r.push_back(round * 2 + 1).unwrap();
            assert_eq!(r.pop_front(), Some(round * 2));
            assert_eq!(r.pop_front(), Some(round * 2 + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Ring::with_capacity(2);
        r.push_back(1).unwrap();
        r.push_back(2).unwrap();
        assert_eq!(r.push_back(3), Err(RingFullError));
        assert!(r.is_full());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn front_back_iter() {
        let mut r = Ring::with_capacity(4);
        for v in [10, 20, 30] {
            r.push_back(v).unwrap();
        }
        assert_eq!(r.front(), Some(&10));
        assert_eq!(r.back(), Some(&30));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
        r.pop_front();
        assert_eq!(r.front(), Some(&20));
    }

    #[test]
    fn clear_resets() {
        let mut r = Ring::with_capacity(2);
        r.push_back(1).unwrap();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.front(), None);
        r.push_back(9).unwrap();
        assert_eq!(r.pop_front(), Some(9));
    }

    #[test]
    fn zero_capacity_ring_is_permanently_full() {
        let mut r = Ring::<u32>::with_capacity(0);
        assert!(r.is_full() && r.is_empty());
        assert_eq!(r.push_back(1), Err(RingFullError));
        assert_eq!(r.pop_front(), None);
        assert_eq!(r.front(), None);
    }
}
