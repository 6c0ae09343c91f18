//! Aggregate system reporting: one struct summarizing what the NoC did —
//! link utilization, per-class traffic, per-NI packet counts and the
//! correctness invariants — renderable as a text report.

use crate::system::NocSystem;

/// Per-NI traffic summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiReport {
    /// NI id.
    pub ni: usize,
    /// Packets sent (`[GT, BE]`).
    pub packets_tx: [u64; 2],
    /// Packets received (`[GT, BE]`).
    pub packets_rx: [u64; 2],
    /// Payload words sent.
    pub payload_tx: u64,
    /// Credit-only packets sent.
    pub credit_only_tx: u64,
    /// Reserved GT slots that passed unused.
    pub gt_slots_unused: u64,
}

/// A whole-system snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Words delivered to NIs per class (`[GT, BE]`).
    pub delivered: [u64; 2],
    /// Mean link utilization (words per link-cycle) across all links.
    pub mean_link_utilization: f64,
    /// Peak link utilization.
    pub peak_link_utilization: f64,
    /// GT contention violations (must be 0).
    pub gt_conflicts: u64,
    /// BE buffer violations (must be 0).
    pub be_overflows: u64,
    /// Per-NI summaries.
    pub nis: Vec<NiReport>,
}

impl SystemReport {
    /// Captures a snapshot of `sys`.
    pub fn capture(sys: &NocSystem) -> Self {
        let stats = sys.noc.stats();
        let cycles = stats.cycles.max(1);
        let utils: Vec<f64> = stats
            .links
            .iter()
            .map(|l| l.total_words() as f64 / cycles as f64)
            .collect();
        let mean = if utils.is_empty() {
            0.0
        } else {
            utils.iter().sum::<f64>() / utils.len() as f64
        };
        let peak = utils.iter().copied().fold(0.0f64, f64::max);
        let nis = sys
            .nis
            .iter()
            .map(|ni| {
                let k = ni.kernel.stats();
                let payload_tx: u64 = (0..ni.kernel.channel_count())
                    .map(|c| ni.kernel.channel(c).stats().words_tx)
                    .sum();
                let credit_only_tx: u64 = (0..ni.kernel.channel_count())
                    .map(|c| ni.kernel.channel(c).stats().credit_only_tx)
                    .sum();
                NiReport {
                    ni: ni.id(),
                    packets_tx: k.packets_tx,
                    packets_rx: k.packets_rx,
                    payload_tx,
                    credit_only_tx,
                    gt_slots_unused: k.gt_slots_unused,
                }
            })
            .collect();
        SystemReport {
            cycles: stats.cycles,
            delivered: stats.delivered,
            mean_link_utilization: mean,
            peak_link_utilization: peak,
            gt_conflicts: sys.noc.gt_conflicts(),
            be_overflows: sys.noc.be_overflows(),
            nis,
        }
    }

    /// Whether every correctness invariant held.
    pub fn invariants_ok(&self) -> bool {
        self.gt_conflicts == 0 && self.be_overflows == 0
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cycles {}  delivered GT/BE {}/{}  link util mean {:.3} peak {:.3}  \
             conflicts {}  overflows {}\n",
            self.cycles,
            self.delivered[0],
            self.delivered[1],
            self.mean_link_utilization,
            self.peak_link_utilization,
            self.gt_conflicts,
            self.be_overflows
        ));
        for n in &self.nis {
            if n.packets_tx == [0, 0] && n.packets_rx == [0, 0] {
                continue;
            }
            out.push_str(&format!(
                "  NI{:<2} tx GT/BE {}/{} rx {}/{} payload {} credit-only {} unused-slots {}\n",
                n.ni,
                n.packets_tx[0],
                n.packets_tx[1],
                n.packets_rx[0],
                n.packets_rx[1],
                n.payload_tx,
                n.credit_only_tx,
                n.gt_slots_unused
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{ChannelEnd, ConnectionRequest, RuntimeConfigurator};
    use crate::spec::TopologySpec;
    use crate::{presets, NocSpec};
    use aethereal_ni::Transaction;

    #[test]
    fn report_captures_activity() {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 2,
            },
            vec![
                presets::cfg_module_ni(0, 4),
                presets::master_ni(1),
                presets::slave_ni(2),
                presets::slave_ni(3),
            ],
        );
        let mut sys = NocSystem::from_spec(&spec);
        let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: 1 },
                ChannelEnd { ni: 2, channel: 1 },
            ),
        )
        .expect("opens");
        sys.nis[1]
            .master_mut(1)
            .submit(Transaction::write(0, vec![1, 2, 3], 1));
        sys.run(500);
        let r = SystemReport::capture(&sys);
        assert!(r.invariants_ok());
        assert!(r.cycles >= 500);
        assert!(r.delivered[1] > 0, "config + data traffic moved");
        assert!(r.nis.iter().any(|n| n.packets_tx[1] > 0), "BE packets sent");
        assert!(r.mean_link_utilization > 0.0);
        assert!(r.peak_link_utilization >= r.mean_link_utilization);
        let text = r.render();
        assert!(text.contains("NI1"));
        assert!(text.contains("conflicts 0"));
    }

    #[test]
    fn idle_system_report_is_clean() {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            vec![presets::master_ni(0), presets::slave_ni(1)],
        );
        let mut sys = NocSystem::from_spec(&spec);
        sys.run(100);
        let r = SystemReport::capture(&sys);
        assert!(r.invariants_ok());
        assert_eq!(r.delivered, [0, 0]);
        assert_eq!(r.mean_link_utilization, 0.0);
        // Idle NIs are skipped in the rendering.
        assert!(!r.render().contains("NI0"));
    }
}
