//! A configurable traffic-generating master IP.
//!
//! Issues randomized read/write transactions over an address window with a
//! configurable command mix, burst length and pacing, and records the
//! request-to-response latency of every completed transaction. The
//! `e4_guarantees` test loads a GT connection's link with generators to
//! show its rate and jitter unchanged under BE background load.

use crate::ip::{ClockedWith, MasterIp};
use crate::stats::LatencySummary;
use aethereal_ni::shell::MasterStack;
use aethereal_ni::transaction::{Cmd, Transaction};
use noc_sim::Rng64;
use std::collections::HashMap;

/// Command mix of a generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficMix {
    /// Only reads.
    ReadOnly,
    /// Only posted writes.
    WriteOnly,
    /// Only acknowledged writes.
    AckedWriteOnly,
    /// Reads with probability `read_fraction`, acked writes otherwise.
    Mixed {
        /// Probability of a read in `[0, 1]`.
        read_fraction: f64,
    },
}

/// Configuration of a [`TrafficGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficGeneratorConfig {
    /// RNG seed (deterministic workloads).
    pub seed: u64,
    /// First address of the target window.
    pub addr_base: u32,
    /// Size of the target window in words.
    pub addr_range: u32,
    /// Command mix.
    pub mix: TrafficMix,
    /// Burst length range (words per transaction), inclusive.
    pub burst: (u8, u8),
    /// Minimum port cycles between submissions (0 = saturate).
    pub gap_cycles: u64,
    /// Total transactions to issue (`None` = endless).
    pub total: Option<u64>,
    /// Maximum outstanding transactions before pausing.
    pub max_outstanding: usize,
}

impl Default for TrafficGeneratorConfig {
    fn default() -> Self {
        TrafficGeneratorConfig {
            seed: 1,
            addr_base: 0,
            addr_range: 0x1000,
            mix: TrafficMix::Mixed { read_fraction: 0.5 },
            burst: (1, 4),
            gap_cycles: 0,
            total: None,
            max_outstanding: 4,
        }
    }
}

/// A randomized master workload.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    cfg: TrafficGeneratorConfig,
    rng: Rng64,
    next_tid: u16,
    issued: u64,
    completed: u64,
    errors: u64,
    last_submit: Option<u64>,
    inflight: HashMap<u16, u64>,
    latencies: Vec<u64>,
    words_moved: u64,
}

impl TrafficGenerator {
    /// Creates a generator.
    pub fn new(cfg: TrafficGeneratorConfig) -> Self {
        let rng = Rng64::seed_from_u64(cfg.seed);
        TrafficGenerator {
            cfg,
            rng,
            next_tid: 0,
            issued: 0,
            completed: 0,
            errors: 0,
            last_submit: None,
            inflight: HashMap::new(),
            latencies: Vec::new(),
            words_moved: 0,
        }
    }

    /// Transactions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Transactions completed (response received, or posted write sent).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Error responses received.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Data words moved (write data + read data).
    pub fn words_moved(&self) -> u64 {
        self.words_moved
    }

    /// Latency summary of completed responses.
    pub fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::from_samples(&self.latencies)
    }

    /// Raw latency samples.
    pub fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    fn pick_cmd(&mut self) -> Cmd {
        match self.cfg.mix {
            TrafficMix::ReadOnly => Cmd::Read,
            TrafficMix::WriteOnly => Cmd::Write,
            TrafficMix::AckedWriteOnly => Cmd::AckedWrite,
            TrafficMix::Mixed { read_fraction } => {
                if self.rng.chance(read_fraction) {
                    Cmd::Read
                } else {
                    Cmd::AckedWrite
                }
            }
        }
    }

    fn build_transaction(&mut self, now: u64) -> Transaction {
        let cmd = self.pick_cmd();
        let (lo, hi) = self.cfg.burst;
        let burst = self
            .rng
            .range_inclusive(u64::from(lo), u64::from(hi.max(lo))) as u8;
        let max_base = self.cfg.addr_range.saturating_sub(u32::from(burst)).max(1);
        let addr = self.cfg.addr_base + self.rng.below(u64::from(max_base)) as u32;
        let tid = self.next_tid;
        self.next_tid = (self.next_tid + 1) & aethereal_ni::message::MAX_TRANS_ID;
        let t = match cmd {
            Cmd::Read => Transaction::read(addr, burst, tid),
            Cmd::Write => {
                let data = (0..burst).map(|i| now as u32 ^ u32::from(i)).collect();
                Transaction::write(addr, data, tid)
            }
            _ => {
                let data = (0..burst).map(|i| now as u32 ^ u32::from(i)).collect();
                Transaction::acked_write(addr, data, tid)
            }
        };
        if cmd.has_response() {
            self.inflight.insert(tid, now);
        }
        t
    }
}

impl ClockedWith<MasterStack> for TrafficGenerator {
    /// Collect responses delivered by the port.
    fn absorb(&mut self, port: &mut MasterStack, now: u64) {
        while let Some(r) = port.take_response() {
            if let Some(start) = self.inflight.remove(&r.trans_id) {
                self.latencies.push(now.saturating_sub(start));
                self.completed = self.completed.wrapping_add(1);
                self.words_moved = self.words_moved.wrapping_add(r.data.len() as u64);
                if r.status != aethereal_ni::transaction::RespStatus::Ok {
                    self.errors = self.errors.wrapping_add(1);
                }
            }
        }
    }

    /// Issue at most one new transaction.
    fn emit(&mut self, port: &mut MasterStack, now: u64) {
        let quota_left = self.cfg.total.is_none_or(|t| self.issued < t);
        let paced = self
            .last_submit
            .is_none_or(|last| now.saturating_sub(last) >= self.cfg.gap_cycles);
        if quota_left
            && paced
            && self.inflight.len() < self.cfg.max_outstanding
            && port.can_submit()
        {
            let t = self.build_transaction(now);
            let posted = !t.cmd.has_response();
            self.words_moved = self.words_moved.wrapping_add(t.data.len() as u64);
            port.submit(t);
            self.issued = self.issued.wrapping_add(1);
            if posted {
                self.completed = self.completed.wrapping_add(1);
            }
            self.last_submit = Some(now);
        }
    }
}

impl MasterIp for TrafficGenerator {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn done(&self) -> bool {
        self.cfg.total.is_some_and(|t| self.issued >= t) && self.inflight.is_empty()
    }

    /// Pacing-aware activity: with nothing outstanding and quota left, the
    /// generator cannot act before its gap elapses — ticking it until then
    /// is a no-op, so the engine may skip the whole gap exactly.
    fn idle_until(&self, now: u64) -> u64 {
        if self.done() {
            return u64::MAX;
        }
        if !self.inflight.is_empty() {
            return now; // responses may arrive; stay hot
        }
        match self.last_submit {
            Some(last) => now.max(last.saturating_add(self.cfg.gap_cycles)),
            None => now,
        }
    }

    /// Complete dynamic state: the RNG, the transaction-id counter, the
    /// issue/completion/error counters, the pacing stamp, the outstanding
    /// map (sorted by id for a canonical stream) and the latency record.
    /// `cfg` is construction state and must match on the restore target.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        use noc_sim::persist::{persist_bool, persist_int, persist_int_list};
        self.rng.walk(p);
        persist_int(&mut self.next_tid, p);
        p.item(&mut self.issued);
        p.item(&mut self.completed);
        p.item(&mut self.errors);
        let mut have = self.last_submit.is_some();
        persist_bool(&mut have, p);
        if have != self.last_submit.is_some() {
            self.last_submit = have.then_some(0);
        }
        if let Some(last) = &mut self.last_submit {
            p.item(last);
        }
        let mut inflight: Vec<(u16, u64)> = self.inflight.drain().collect();
        inflight.sort_unstable();
        let n = p.len(inflight.len());
        inflight.resize(n, (0, 0));
        for (tid, start) in &mut inflight {
            persist_int(tid, p);
            p.item(start);
        }
        self.inflight = inflight.into_iter().collect();
        persist_int_list(&mut self.latencies, p);
        p.item(&mut self.words_moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = TrafficGeneratorConfig {
            seed: 7,
            ..Default::default()
        };
        let mut a = TrafficGenerator::new(cfg.clone());
        let mut b = TrafficGenerator::new(cfg);
        for now in 0..32 {
            let ta = a.build_transaction(now);
            let tb = b.build_transaction(now);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn read_only_mix_reads() {
        let cfg = TrafficGeneratorConfig {
            mix: TrafficMix::ReadOnly,
            ..Default::default()
        };
        let mut g = TrafficGenerator::new(cfg);
        for now in 0..16 {
            assert_eq!(g.build_transaction(now).cmd, Cmd::Read);
        }
    }

    #[test]
    fn burst_length_respected() {
        let cfg = TrafficGeneratorConfig {
            burst: (2, 5),
            ..Default::default()
        };
        let mut g = TrafficGenerator::new(cfg);
        for now in 0..64 {
            let t = g.build_transaction(now);
            let len = if t.cmd.carries_data() {
                t.data.len() as u8
            } else {
                t.read_len
            };
            assert!((2..=5).contains(&len));
        }
    }

    #[test]
    fn addresses_stay_in_window() {
        let cfg = TrafficGeneratorConfig {
            addr_base: 0x100,
            addr_range: 0x40,
            burst: (1, 1),
            ..Default::default()
        };
        let mut g = TrafficGenerator::new(cfg);
        for now in 0..128 {
            let t = g.build_transaction(now);
            assert!((0x100..0x140).contains(&t.addr), "addr {:#x}", t.addr);
        }
    }

    #[test]
    fn persist_round_trips_into_an_identical_future() {
        use crate::ip::MasterIp;
        use noc_sim::{StateLoader, StateSaver};
        let cfg = TrafficGeneratorConfig {
            seed: 11,
            ..Default::default()
        };
        let mut g = TrafficGenerator::new(cfg.clone());
        for now in 0..10 {
            let _ = g.build_transaction(now);
        }
        let mut saver = StateSaver::new();
        g.persist(&mut saver);
        let words = saver.finish().expect("save walk");
        let mut fresh = TrafficGenerator::new(cfg);
        let mut loader = StateLoader::new(words);
        fresh.persist(&mut loader);
        loader.finish().expect("load walk");
        assert_eq!(fresh.inflight, g.inflight);
        for now in 10..40 {
            assert_eq!(fresh.build_transaction(now), g.build_transaction(now));
        }
    }

    #[test]
    fn done_requires_quota_and_drained_inflight() {
        let cfg = TrafficGeneratorConfig {
            total: Some(1),
            mix: TrafficMix::ReadOnly,
            ..Default::default()
        };
        let mut g = TrafficGenerator::new(cfg);
        assert!(!g.done());
        let _ = g.build_transaction(0);
        g.issued = 1;
        assert!(!g.done(), "response still outstanding");
        g.inflight.clear();
        assert!(g.done());
    }
}
