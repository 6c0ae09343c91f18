//! Observability: per-link and NoC-wide counters.
//!
//! Per-class word and header counts per link feed the system report's
//! link utilization, and the GT conflict counter is the runtime check of
//! the slot allocator's contention-freedom invariant (the paper's
//! `e3_throughput` and `e4_guarantees` tests assert it stays zero).

use crate::word::WordClass;

/// Per-directed-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Words of each class transported (`[GT, BE]`).
    pub words: [u64; 2],
    /// Packet headers of each class transported (`[GT, BE]`).
    pub headers: [u64; 2],
}

impl LinkStats {
    /// Total words transported.
    pub fn total_words(&self) -> u64 {
        self.words[0] + self.words[1]
    }

    /// Walks the counters through a state visitor (see
    /// [`crate::persist`]): words, then headers, per class.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        for c in self.words.iter_mut().chain(&mut self.headers) {
            p.counter(c);
        }
    }

    /// Records one transported word.
    pub fn record(&mut self, class: WordClass, is_header: bool) {
        self.words[class.index()] = self.words[class.index()].wrapping_add(1);
        if is_header {
            self.headers[class.index()] = self.headers[class.index()].wrapping_add(1);
        }
    }
}

/// NoC-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// GT contention events detected by routers. **Must stay zero** under a
    /// correct slot allocation; any non-zero value means the allocator or
    /// the NI slot discipline is broken.
    pub gt_conflicts: u64,
    /// BE words that arrived at a full input buffer (link-level credit
    /// discipline violation; must stay zero).
    pub be_overflows: u64,
    /// Words of each class delivered to NIs (`[GT, BE]`).
    pub delivered: [u64; 2],
    /// Per-link counters, indexed by [`LinkId`](crate::LinkId).
    pub links: Vec<LinkStats>,
}

impl NocStats {
    /// Creates counters for `n_links` links.
    pub fn new(n_links: usize) -> Self {
        NocStats {
            links: vec![LinkStats::default(); n_links],
            ..Self::default()
        }
    }

    /// Aggregate words delivered to NIs.
    pub fn total_delivered(&self) -> u64 {
        self.delivered[0] + self.delivered[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_words_and_headers() {
        let mut s = LinkStats::default();
        s.record(WordClass::Guaranteed, true);
        s.record(WordClass::Guaranteed, false);
        s.record(WordClass::BestEffort, true);
        assert_eq!(s.words, [2, 1]);
        assert_eq!(s.headers, [1, 1]);
        assert_eq!(s.total_words(), 3);
    }

    #[test]
    fn noc_stats_rates() {
        let mut s = NocStats::new(2);
        s.delivered = [30, 20];
        assert_eq!(s.total_delivered(), 50);
    }
}
