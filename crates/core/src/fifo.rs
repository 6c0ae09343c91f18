//! The custom hardware FIFO of the Æthereal NI.
//!
//! §5 of the paper: *"queues are implemented using custom-made hardware
//! fifos … the hardware fifos implement the clock domain boundary allowing
//! each NI port to run at a different clock frequency."* We model the
//! dual-clock behaviour by time-stamping each pushed word: it becomes
//! visible to the reader only [`HwFifo::crossing`] cycles after the push
//! (two cycles of synchronizer latency in the paper's latency budget).
//!
//! All timestamps are in base (500 MHz network) cycles; a port running at a
//! divided clock simply pushes/pops less often.

use std::cell::Cell;
use std::collections::VecDeque;

/// Default clock-domain-crossing latency in base cycles (paper: "2 clock
/// cycles for clock domain crossing").
pub const DEFAULT_CROSSING_CYCLES: u64 = 2;

/// Error returned when pushing into a full FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError;

impl std::fmt::Display for FifoFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fifo is full")
    }
}

impl std::error::Error for FifoFullError {}

/// A bounded dual-clock hardware FIFO of 32-bit words.
///
/// The reader-visible occupancy is kept in a maintained *visible-count
/// register* (`visible` + the synchronizer timestamp it was valid at),
/// mirroring the gray-coded level register of the hardware fifo: queries
/// advance the register over only the words that crossed since the last
/// query instead of re-scanning the queue.
///
/// # Example
///
/// ```
/// use aethereal_ni::fifo::HwFifo;
/// let mut f = HwFifo::new(8, 2);
/// f.push(42, 10).unwrap();
/// assert_eq!(f.sync_level(11), 0);   // still crossing clock domains
/// assert_eq!(f.sync_level(12), 1);   // visible two cycles later
/// assert_eq!(f.pop(12), Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct HwFifo {
    capacity: usize,
    crossing: u64,
    q: VecDeque<(u32, u64)>, // (word, visible_at)
    /// Visible-count register: words known to have crossed as of `seen_at`.
    visible: Cell<usize>,
    /// Timestamp the register was last synchronized at.
    seen_at: Cell<u64>,
}

impl HwFifo {
    /// Creates a FIFO of `capacity` words with the given crossing latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, crossing: u64) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        HwFifo {
            capacity,
            crossing,
            q: VecDeque::with_capacity(capacity),
            visible: Cell::new(0),
            seen_at: Cell::new(0),
        }
    }

    /// Synchronizes the visible-count register to `now` and returns it.
    ///
    /// Time moving forward only ever reveals more of the queue's prefix, so
    /// the register advances over the newly crossed words; a query *behind*
    /// the register (a reader on a slower clock interleaved with a faster
    /// one) falls back to the full prefix scan without touching the
    /// register.
    fn sync_visible(&self, now: u64) -> usize {
        if now < self.seen_at.get() {
            return self.q.iter().take_while(|&&(_, t)| t <= now).count();
        }
        let mut visible = self.visible.get();
        while visible < self.q.len() && self.q[visible].1 <= now {
            visible += 1;
        }
        self.visible.set(visible);
        self.seen_at.set(now);
        visible
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Crossing latency in base cycles.
    pub fn crossing(&self) -> u64 {
        self.crossing
    }

    /// Total occupancy, including words still crossing (this is what the
    /// *writer* side sees for back-pressure).
    pub fn level(&self) -> usize {
        self.q.len()
    }

    /// Free space from the writer's perspective.
    pub fn space(&self) -> usize {
        self.capacity - self.q.len()
    }

    /// Whether a push would fail.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.capacity
    }

    /// Whether the FIFO holds no words at all.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Occupancy visible to the *reader* side at cycle `now` (words that
    /// have completed the clock-domain crossing), read from the maintained
    /// visible-count register.
    pub fn sync_level(&self, now: u64) -> usize {
        self.sync_visible(now)
    }

    /// Pushes a word at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when at capacity.
    pub fn push(&mut self, word: u32, now: u64) -> Result<(), FifoFullError> {
        if self.is_full() {
            return Err(FifoFullError);
        }
        self.q.push_back((word, now + self.crossing));
        Ok(())
    }

    /// Pops the oldest *visible* word at cycle `now`.
    pub fn pop(&mut self, now: u64) -> Option<u32> {
        match self.q.front() {
            Some(&(_, t)) if t <= now => {
                // Keep the visible-count register consistent: the popped
                // word was part of the visible prefix (or the prefix was
                // still unsynchronized — then the register is 0 and stays).
                let v = self.visible.get();
                if v > 0 {
                    self.visible.set(v - 1);
                }
                self.q.pop_front().map(|(w, _)| w)
            }
            _ => None,
        }
    }

    /// Peeks the oldest visible word at cycle `now`.
    pub fn peek(&self, now: u64) -> Option<u32> {
        match self.q.front() {
            Some(&(w, t)) if t <= now => Some(w),
            _ => None,
        }
    }

    /// Visibility schedule: the earliest cycle at which at least `n` words
    /// are reader-visible, or `None` when fewer than `n` words are queued
    /// (more pushes — an external event — would be needed first). `n = 0`
    /// is trivially visible at any cycle.
    ///
    /// The schedule is exact and monotone: timestamps are assigned at push
    /// time and never change, so between now and the returned cycle the
    /// visible count stays below `n` unless the writer pushes again.
    pub fn visible_at_count(&self, n: usize) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        self.q.get(n - 1).map(|&(_, t)| t)
    }

    /// Removes all words (used on reset / connection close).
    pub fn clear(&mut self) {
        self.q.clear();
        self.visible.set(0);
    }

    /// Walks the queue through a state visitor (see [`noc_sim::persist`]):
    /// occupancy in-stream, then each queued word as a sliding value with
    /// its absolute visibility timestamp as a stamp. A snapshot that does
    /// not fit this FIFO's capacity fails the restore.
    ///
    /// The lazily-synchronized visible-count register (`visible`/
    /// `seen_at`) caches a *past* observation: it is reset instead of
    /// visited, and the next query re-derives it from the timestamps —
    /// restored, shifted by a jump, or simply as they were.
    pub fn walk(&mut self, p: &mut dyn noc_sim::StateVisit) {
        let n = p.len(self.q.len());
        if n > self.capacity {
            p.fail("snapshot fifo contents exceed the target's capacity");
            return;
        }
        self.q.resize(n, (0, 0));
        for (w, t) in &mut self.q {
            p.value(w);
            p.stamp(t);
        }
        self.visible.set(0);
        self.seen_at.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut f = HwFifo::new(4, 0);
        for w in 0..4 {
            f.push(w, 0).unwrap();
        }
        for w in 0..4 {
            assert_eq!(f.pop(0), Some(w));
        }
        assert_eq!(f.pop(0), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut f = HwFifo::new(2, 0);
        f.push(1, 0).unwrap();
        f.push(2, 0).unwrap();
        assert_eq!(f.push(3, 0), Err(FifoFullError));
        assert!(f.is_full());
        assert_eq!(f.space(), 0);
    }

    #[test]
    fn crossing_hides_words_from_reader() {
        let mut f = HwFifo::new(4, 2);
        f.push(7, 100).unwrap();
        assert_eq!(f.level(), 1, "writer sees occupancy immediately");
        assert_eq!(f.sync_level(100), 0);
        assert_eq!(f.sync_level(101), 0);
        assert_eq!(f.sync_level(102), 1);
        assert_eq!(f.pop(101), None);
        assert_eq!(f.pop(102), Some(7));
    }

    #[test]
    fn peek_respects_crossing() {
        let mut f = HwFifo::new(4, 3);
        f.push(9, 0).unwrap();
        assert_eq!(f.peek(2), None);
        assert_eq!(f.peek(3), Some(9));
        assert_eq!(f.level(), 1);
    }

    #[test]
    fn sync_level_counts_prefix_only() {
        let mut f = HwFifo::new(8, 2);
        f.push(1, 0).unwrap();
        f.push(2, 5).unwrap();
        // At cycle 4, only the first word has crossed.
        assert_eq!(f.sync_level(4), 1);
        assert_eq!(f.sync_level(7), 2);
    }

    #[test]
    fn visible_at_count_reports_the_schedule() {
        let mut f = HwFifo::new(8, 2);
        f.push(1, 10).unwrap();
        f.push(2, 15).unwrap();
        assert_eq!(f.visible_at_count(0), Some(0));
        assert_eq!(f.visible_at_count(1), Some(12));
        assert_eq!(f.visible_at_count(2), Some(17));
        assert_eq!(f.visible_at_count(3), None, "not queued yet");
        // The schedule agrees with sync_level at every cycle.
        assert_eq!(f.sync_level(16), 1);
        assert_eq!(f.sync_level(17), 2);
    }

    #[test]
    fn clear_empties() {
        let mut f = HwFifo::new(2, 0);
        f.push(1, 0).unwrap();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.space(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = HwFifo::new(0, 0);
    }
}
