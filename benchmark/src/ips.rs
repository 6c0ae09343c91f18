//! The benchmark's own raw-port IPs: a source that stamps every word with
//! the cycle it was pushed, and a sink that turns the stamps into a
//! latency histogram.
//!
//! `aethereal_proto`'s `StreamSource`/`CountingSink` count words but know
//! nothing of when a word entered the NI; the stamp gives stream workloads
//! the same request-to-delivery latency the transaction workloads read
//! from their generators. Both IPs carry the fast-forward and persistence
//! audits, so they neither veto `sim::ff` certification nor poison a
//! snapshot.

use aethereal_proto::ip::{ClockedWith, RawIp, RawPort};

/// Endless source: one word per port cycle into its first channel, the
/// word being the low 32 bits of the push cycle.
#[derive(Debug, Default)]
pub struct StampSource {
    produced: u64,
}

impl StampSource {
    /// Creates a source.
    pub fn new() -> Self {
        StampSource::default()
    }
}

impl<'a> ClockedWith<RawPort<'a>> for StampSource {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        let ch = port.channels[0];
        if port.kernel.src_space(ch) > 0 {
            port.kernel
                .push_src(ch, now as u32, now)
                .expect("space checked");
            self.produced += 1;
        }
    }
}

impl RawIp for StampSource {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// The produced count is the only state; the stamps themselves sit in
    /// the channel queue, where they advance by exactly one period per
    /// period and certify as `value`s.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::FfVisit) {
        v.counter(&mut self.produced);
    }

    fn persist(&mut self, p: &mut dyn noc_sim::PersistVisit) {
        p.item(&mut self.produced);
    }
}

/// Latencies below this many cycles get a bin each.
const EXACT_BINS: usize = 16;
/// Bins per power of two above that: a bin is at most 1/16 of its lower
/// bound wide.
const SUB_BINS: usize = 16;

/// The bin of `latency`: itself below [`EXACT_BINS`], else sixteen bins
/// per octave. Keeps a sink at a hundred-odd counters where one bin per
/// cycle would need thousands — and every counter is an item in each
/// snapshot and each fast-forward digest.
pub fn bin_of(latency: u32) -> usize {
    if (latency as usize) < EXACT_BINS {
        return latency as usize;
    }
    let octave = (31 - latency.leading_zeros()) as usize - 4;
    EXACT_BINS + octave * SUB_BINS + ((latency >> octave) as usize & (SUB_BINS - 1))
}

/// The largest latency that falls into `bin` — what a percentile read
/// from the histogram reports.
pub fn bin_ceiling(bin: usize) -> u64 {
    if bin < EXACT_BINS {
        return bin as u64;
    }
    let (octave, sub) = ((bin - EXACT_BINS) / SUB_BINS, (bin - EXACT_BINS) % SUB_BINS);
    (((SUB_BINS + sub + 1) as u64) << octave) - 1
}

/// Drains one word per channel per port cycle from all its channels and
/// bins `pop cycle − stamp` by [`bin_of`]. The last bin also takes
/// everything longer, and [`LatencySink::clipped`] says whether it had to.
#[derive(Debug)]
pub struct LatencySink {
    hist: Vec<u64>,
    clipped: u64,
}

impl LatencySink {
    /// Creates a sink resolving latencies below `limit` cycles (a power of
    /// two, at least 16).
    pub fn new(limit: u32) -> Self {
        assert!(limit.is_power_of_two() && limit as usize >= EXACT_BINS);
        LatencySink {
            hist: vec![0; bin_of(limit)],
            clipped: 0,
        }
    }

    /// Words consumed so far.
    pub fn words(&self) -> u64 {
        self.hist.iter().sum()
    }

    /// The latency histogram, indexed by [`bin_of`].
    pub fn hist(&self) -> &[u64] {
        &self.hist
    }

    /// Words whose latency did not fit the histogram.
    pub fn clipped(&self) -> u64 {
        self.clipped
    }
}

impl<'a> ClockedWith<RawPort<'a>> for LatencySink {
    fn absorb(&mut self, port: &mut RawPort<'a>, now: u64) {
        let top = self.hist.len() - 1;
        for &ch in port.channels {
            if let Some(stamp) = port.kernel.pop_dst(ch, now) {
                let bin = bin_of((now as u32).wrapping_sub(stamp));
                if bin > top {
                    self.clipped += 1;
                }
                self.hist[bin.min(top)] += 1;
            }
        }
    }

    fn emit(&mut self, _port: &mut RawPort<'a>, _now: u64) {}
}

impl RawIp for LatencySink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Reacts only to deliveries; never blocks quiescence.
    fn done(&self) -> bool {
        true
    }

    /// In a periodic steady state every bin grows by a fixed amount per
    /// period.
    fn ff_visit(&mut self, v: &mut dyn noc_sim::FfVisit) {
        for bin in &mut self.hist {
            v.counter(bin);
        }
        v.counter(&mut self.clipped);
    }

    fn persist(&mut self, p: &mut dyn noc_sim::PersistVisit) {
        for bin in &mut self.hist {
            p.item(bin);
        }
        p.item(&mut self.clipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_are_exact_then_a_sixteenth_wide() {
        for v in 0..16 {
            assert_eq!(
                (bin_of(v), bin_ceiling(v as usize)),
                (v as usize, u64::from(v))
            );
        }
        assert_eq!(bin_of(16), 16);
        assert_eq!(bin_of(31), 31);
        assert_eq!((bin_of(32), bin_of(33), bin_of(34)), (32, 32, 33));
        assert_eq!(bin_ceiling(32), 33);
        assert_eq!(bin_of(194), 16 + 3 * 16 + 8);
        assert_eq!(bin_ceiling(bin_of(194)), 199);
        // Every latency lies in a bin whose ceiling is at least itself and
        // less than a sixteenth above; bins never run backwards.
        for v in 0..5_000u32 {
            let c = bin_ceiling(bin_of(v));
            assert!(
                c >= u64::from(v) && c <= u64::from(v) + u64::from(v) / 16,
                "{v} -> {c}"
            );
            assert!(bin_of(v + 1) >= bin_of(v));
        }
        assert_eq!(LatencySink::new(64).hist().len(), 48);
        assert_eq!(LatencySink::new(4096).hist().len(), 144);
    }
}
