//! Best-effort channel arbitration.
//!
//! §4.1 of the paper: *"the scheduler selects a BE channel with data and
//! remote space using some arbitration scheme: e.g. round-robin, weighted
//! round-robin, or based on the queue filling."* All three are implemented
//! and selectable per NI instance; the `e10_arbitration` test ablates them.

/// The BE arbitration scheme of an NI kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ArbPolicy {
    /// Plain round-robin over eligible channels.
    #[default]
    RoundRobin,
    /// Smooth weighted round-robin: each arbitration adds every eligible
    /// channel's weight to its running counter, the largest counter wins and
    /// pays the total weight.
    WeightedRoundRobin(
        /// Per-channel weights (missing channels default to 1).
        Vec<u32>,
    ),
    /// Pick the eligible channel with the most sendable data (queue-filling
    /// based).
    QueueFill,
}

/// Arbitration state held by the kernel.
#[derive(Debug, Clone, Default)]
pub struct ArbState {
    rr_next: usize,
    wrr_counter: Vec<i64>,
}

/// The members of a bitmask (channel ids of an eligibility mask, port
/// indices of an NI's shell-port mask), ascending.
pub(crate) fn members(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let ch = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(ch)
    })
}

impl ArbState {
    /// Picks a winner among the channels whose bit is set in `eligible`
    /// (bit `ch` = channel `ch`; an NI has at most
    /// [`MAX_QUEUES`](noc_sim::header::MAX_QUEUES) channels, so the mask
    /// always fits). `sendable` returns the sendable words of a channel
    /// (used by [`ArbPolicy::QueueFill`]). Allocation-free: arbitration
    /// runs at every slot boundary of every NI.
    ///
    /// Returns `None` when `eligible` is empty.
    pub fn pick(
        &mut self,
        policy: &ArbPolicy,
        n_channels: usize,
        eligible: u64,
        mut sendable: impl FnMut(usize) -> usize,
    ) -> Option<usize> {
        if eligible == 0 {
            return None;
        }
        match policy {
            ArbPolicy::RoundRobin => {
                // The first eligible channel at or after the pointer,
                // wrapping: rotate the pointer down to bit 0 and count.
                let in_range = 1u64
                    .checked_shl(n_channels as u32)
                    .map_or(u64::MAX, |b| b - 1);
                let eligible = eligible & in_range;
                if eligible == 0 {
                    return None;
                }
                let ahead = eligible.rotate_right(self.rr_next as u32).trailing_zeros();
                let winner = (self.rr_next + ahead as usize) & 63;
                self.rr_next = if winner + 1 == n_channels {
                    0
                } else {
                    winner + 1
                };
                Some(winner)
            }
            ArbPolicy::WeightedRoundRobin(weights) => {
                if self.wrr_counter.len() < n_channels {
                    self.wrr_counter.resize(n_channels, 0);
                }
                let weight = |ch: usize| i64::from(*weights.get(ch).unwrap_or(&1).max(&1));
                let mut total = 0i64;
                for ch in members(eligible) {
                    self.wrr_counter[ch] += weight(ch);
                    total += weight(ch);
                }
                let winner = members(eligible)
                    .max_by_key(|&ch| (self.wrr_counter[ch], std::cmp::Reverse(ch)))
                    .expect("eligible non-empty");
                self.wrr_counter[winner] -= total;
                Some(winner)
            }
            ArbPolicy::QueueFill => {
                members(eligible).max_by_key(|&ch| (sendable(ch), std::cmp::Reverse(ch)))
            }
        }
    }

    /// Walks the arbitration state through a state visitor (see
    /// [`noc_sim::persist`]): the round-robin pointer (an index below the
    /// kernel's `n_channels`) and the weighted-round-robin deficit
    /// counters (signed, carried as their two's-complement bits).
    pub fn walk<V: noc_sim::StateVisit + ?Sized>(&mut self, n_channels: usize, p: &mut V) {
        noc_sim::persist::persist_index(&mut self.rr_next, n_channels, p);
        noc_sim::persist::persist_list(&mut self.wrr_counter, p, |c, p| {
            let mut w = *c as u64;
            p.item(&mut w);
            *c = w as i64;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_fairly() {
        let mut s = ArbState::default();
        let policy = ArbPolicy::RoundRobin;
        let picks: Vec<_> = (0..6)
            .map(|_| s.pick(&policy, 3, 0b111, |_| 1).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut s = ArbState::default();
        let policy = ArbPolicy::RoundRobin;
        let picks: Vec<_> = (0..4)
            .map(|_| s.pick(&policy, 4, 0b1010, |_| 1).unwrap())
            .collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn empty_eligible_returns_none() {
        let mut s = ArbState::default();
        assert_eq!(s.pick(&ArbPolicy::RoundRobin, 4, 0, |_| 0), None);
        assert_eq!(s.pick(&ArbPolicy::QueueFill, 4, 0, |_| 0), None);
    }

    #[test]
    fn wrr_respects_weights() {
        let mut s = ArbState::default();
        let policy = ArbPolicy::WeightedRoundRobin(vec![3, 1]);
        let picks: Vec<_> = (0..8)
            .map(|_| s.pick(&policy, 2, 0b11, |_| 1).unwrap())
            .collect();
        let wins0 = picks.iter().filter(|&&p| p == 0).count();
        let wins1 = picks.iter().filter(|&&p| p == 1).count();
        assert_eq!(wins0, 6, "weight-3 channel wins 3 of every 4: {picks:?}");
        assert_eq!(wins1, 2);
    }

    #[test]
    fn wrr_default_weight_is_one() {
        let mut s = ArbState::default();
        let policy = ArbPolicy::WeightedRoundRobin(vec![]);
        let picks: Vec<_> = (0..4)
            .map(|_| s.pick(&policy, 2, 0b11, |_| 1).unwrap())
            .collect();
        let wins0 = picks.iter().filter(|&&p| p == 0).count();
        assert_eq!(wins0, 2);
    }

    #[test]
    fn queue_fill_prefers_fullest() {
        let mut s = ArbState::default();
        let fills = [2usize, 9, 5];
        let pick = s
            .pick(&ArbPolicy::QueueFill, 3, 0b111, |ch| fills[ch])
            .unwrap();
        assert_eq!(pick, 1);
    }

    #[test]
    fn queue_fill_tie_breaks_low_id() {
        let mut s = ArbState::default();
        let pick = s.pick(&ArbPolicy::QueueFill, 3, 0b111, |_| 4).unwrap();
        assert_eq!(pick, 0);
    }

    #[test]
    fn default_policy_is_round_robin() {
        assert_eq!(ArbPolicy::default(), ArbPolicy::RoundRobin);
    }
}
