//! Reading a run's results back out of the system: what the IP models
//! saw, what the network and the NI kernels counted, and the equality of
//! two such end states — the check behind "the sharded run delivers what
//! the unsplit one does", "fast-forward delivers what ticking does" and
//! "the traced loop ran the same program as the untraced one".

use crate::ips::LatencySink;
use crate::workloads::{Ips, Sim};
use aethereal_cfg::NocSystem;
use aethereal_ni::kernel::NiKernelStats;
use aethereal_proto::TrafficGenerator;
use noc_sim::NocStats;

/// What the IP models observed, in tick order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observed {
    /// Words consumed by each `LatencySink`.
    pub sink_words: Vec<u64>,
    /// All sinks' latency histograms, added up.
    pub latency_hist: Vec<u64>,
    /// Words whose latency did not fit a sink's histogram.
    pub clipped: u64,
    /// Per `TrafficGenerator`: issued, completed, errors, words moved.
    pub generators: Vec<[u64; 4]>,
    /// Every generator's transaction latencies, concatenated.
    pub txn_latency: Vec<u64>,
}

impl Observed {
    fn note(&mut self, ip: &dyn std::any::Any) {
        if let Some(sink) = ip.downcast_ref::<LatencySink>() {
            self.sink_words.push(sink.words());
            if self.latency_hist.len() < sink.hist().len() {
                self.latency_hist.resize(sink.hist().len(), 0);
            }
            for (sum, &n) in self.latency_hist.iter_mut().zip(sink.hist()) {
                *sum += n;
            }
            self.clipped += sink.clipped();
        } else if let Some(g) = ip.downcast_ref::<TrafficGenerator>() {
            self.generators
                .push([g.issued(), g.completed(), g.errors(), g.words_moved()]);
            self.txn_latency.extend_from_slice(g.latency_samples());
        }
    }

    /// Payload words that reached a consumer: stream words popped by
    /// sinks plus transaction data words written and read.
    pub fn words(&self) -> u64 {
        self.sink_words.iter().sum::<u64>() + self.generators.iter().map(|g| g[3]).sum::<u64>()
    }

    /// Transactions completed.
    pub fn txn_completed(&self) -> u64 {
        self.generators.iter().map(|g| g[1]).sum()
    }

    /// Error responses received.
    pub fn errors(&self) -> u64 {
        self.generators.iter().map(|g| g[2]).sum()
    }

    /// 99th-percentile latency in cycles: of transactions (request to
    /// response) where the workload has any, else of stream words (push
    /// at the source NI to pop at the sink NI).
    pub fn latency_p99(&self) -> Option<u64> {
        if self.txn_latency.is_empty() {
            return crate::stats::histogram_quantile(&self.latency_hist, 0.99)
                .map(|bin| crate::ips::bin_ceiling(bin as usize));
        }
        crate::stats::nearest_rank(&self.txn_latency, 0.99)
    }
}

/// Where a bound system's IPs are, so they can be found again.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    masters: usize,
    raws: usize,
    /// NIs carrying a `LatencySink`, in tick order.
    sink_nis: Vec<usize>,
}

impl Layout {
    /// Records where `ips` will be bound.
    pub fn of(ips: &Ips) -> Self {
        Layout {
            masters: ips.masters.len(),
            raws: ips.raws.len(),
            sink_nis: ips
                .raws
                .iter()
                .filter(|r| r.ip.as_any().is::<LatencySink>())
                .map(|r| r.ni)
                .collect(),
        }
    }
}

/// The invariant counters that must stay zero: GT slot conflicts, BE
/// buffer overflows, words dropped at a destination NI.
pub type Health = [u64; 3];

/// Everything two runs of the same program must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndState {
    /// Cycle reached.
    pub cycle: u64,
    /// Network counters, per link.
    pub noc: NocStats,
    /// NI kernel counters, in NI order.
    pub kernels: Vec<NiKernelStats>,
    /// What the IPs saw.
    pub observed: Observed,
}

impl EndState {
    /// End state of an unsplit system whose IPs the benchmark ticked
    /// itself.
    pub fn of_unbound(sys: &NocSystem, ips: &Ips) -> Self {
        let mut observed = Observed::default();
        for r in &ips.raws {
            observed.note(r.ip.as_any());
        }
        for m in &ips.masters {
            observed.note(m.ip.as_any());
        }
        EndState {
            cycle: sys.cycle(),
            noc: sys.noc.stats().clone(),
            kernels: sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
            observed,
        }
    }

    /// FNV-1a over every counter: one number that differs when anything
    /// the run computed differs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.cycle);
        eat(self.noc.gt_conflicts);
        eat(self.noc.be_overflows);
        self.noc.delivered.iter().for_each(|&v| eat(v));
        for l in &self.noc.links {
            l.words.iter().chain(&l.headers).for_each(|&v| eat(v));
        }
        for k in &self.kernels {
            for v in k.packets_tx.iter().chain(&k.packets_rx) {
                eat(*v);
            }
            for v in [
                k.header_words_tx,
                k.payload_words_tx,
                k.route_ext_words_tx,
                k.credit_only_tx,
                k.gt_slots_unused,
                k.cnip_ops,
                k.rx_drops,
            ] {
                eat(v);
            }
        }
        let o = &self.observed;
        o.sink_words
            .iter()
            .chain(&o.latency_hist)
            .for_each(|&v| eat(v));
        o.generators.iter().flatten().for_each(|&v| eat(v));
        o.txn_latency.iter().for_each(|&v| eat(v));
        h
    }
}

impl Sim {
    /// Advances `cycles` cycles through the workload's run driver.
    pub fn run(&mut self, cycles: u64) {
        match self {
            Sim::Mono(sys) => sys.run(cycles),
            Sim::Sharded(sh) => sh.run(cycles),
        }
    }

    /// Cycle reached.
    pub fn cycle(&self) -> u64 {
        match self {
            Sim::Mono(sys) => sys.cycle(),
            Sim::Sharded(sh) => sh.cycle(),
        }
    }

    /// The invariant counters.
    pub fn health(&self) -> Health {
        match self {
            Sim::Mono(sys) => [
                sys.noc.gt_conflicts(),
                sys.noc.be_overflows(),
                sys.nis.iter().map(|ni| ni.kernel.stats().rx_drops).sum(),
            ],
            Sim::Sharded(sh) => [
                sh.gt_conflicts(),
                sh.be_overflows(),
                sh.regions()
                    .iter()
                    .flat_map(|r| &r.nis)
                    .map(|ni| ni.kernel.stats().rx_drops)
                    .sum(),
            ],
        }
    }

    /// Words the network has handed to NIs so far (the cheap progress
    /// probe between segments).
    pub fn delivered(&self) -> u64 {
        match self {
            Sim::Mono(sys) => sys.noc.stats().total_delivered(),
            Sim::Sharded(sh) => sh
                .regions()
                .iter()
                .map(|r| r.noc.stats().total_delivered())
                .sum(),
        }
    }

    /// Fast-forward activity so far.
    pub fn ff_stats(&self) -> noc_sim::FfStats {
        match self {
            Sim::Mono(sys) => sys.ff_stats(),
            Sim::Sharded(sh) => sh.ff_stats(),
        }
    }

    /// The end state, with the IPs found through `layout`.
    pub fn end_state(&self, layout: &Layout) -> EndState {
        let mut observed = Observed::default();
        match self {
            Sim::Mono(sys) => {
                for i in 0..layout.raws {
                    observed.note(sys.raw_ip(i).as_any());
                }
                for i in 0..layout.masters {
                    observed.note(sys.master_ip(i).as_any());
                }
                EndState {
                    cycle: sys.cycle(),
                    noc: sys.noc.stats().clone(),
                    kernels: sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
                    observed,
                }
            }
            Sim::Sharded(sh) => {
                for &ni in &layout.sink_nis {
                    observed.note(sh.raw_ip_as::<LatencySink>(ni));
                }
                EndState {
                    cycle: sh.cycle(),
                    noc: sh.merged_noc_stats(),
                    kernels: sh.kernel_stats(),
                    observed,
                }
            }
        }
    }

    /// Snapshot rendered to its on-disk text.
    pub fn snapshot_text(&mut self) -> String {
        let value = match self {
            Sim::Mono(sys) => sys.snapshot(),
            Sim::Sharded(sh) => sh.snapshot(),
        };
        aethereal_cfg::json::to_string_compact(&value.expect("every bound IP is persist-audited"))
    }

    /// Parses `text` and restores it onto this system.
    pub fn restore_text(&mut self, text: &str) -> Result<(), String> {
        let value = aethereal_cfg::json::parse(text).map_err(|e| e.to_string())?;
        match self {
            Sim::Mono(sys) => sys.restore(&value),
            Sim::Sharded(sh) => sh.restore(&value),
        }
        .map_err(|e| e.to_string())
    }
}
