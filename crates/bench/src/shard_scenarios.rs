//! Mesh-scale streaming scenarios for the sharded-execution benches.
//!
//! These build `width × height` meshes (one raw NI per router) with
//! point-to-point BE stream traffic configured **directly** through the
//! local register files (the kernel tests' idiom — cheaper to set up than
//! driving the runtime configurator for every stream of a big mesh).
//! Routes use the two-level planner (`Topology::route_any`), so mesh size
//! and stream distance are free parameters: any pair on any mesh routes,
//! with headers rewritten at gateway routers where a route exceeds one
//! header.
//!
//! Traffic shapes:
//!
//! * [`MeshTraffic::Idle`] — no IPs at all: the quiescent fast path.
//! * [`MeshTraffic::Uniform`] — every NI streams down its column to the NI
//!   half the mesh height away (a permutation: one stream out and one in
//!   per NI). Every stream crosses every horizontal row-band cut.
//! * [`MeshTraffic::Hotspot`] — a block of center sinks, each fed by
//!   several senders from all quadrants: heavy contention around the
//!   center, boundary credits under pressure.
//! * [`MeshTraffic::BusyBand`] — streams confined to the top two rows: one
//!   busy region, the rest idle (the mixed idle/busy case for the
//!   activity-set scheduler).

use aethereal_cfg::shard::ShardedSystem;
use aethereal_cfg::{presets, NocSpec, NocSystem, TopologySpec};
use aethereal_ni::kernel::regs::CTRL_ENABLE;
use aethereal_ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, ChanReg, ChannelId};
use aethereal_proto::ip::{ClockedWith, RawIp, RawPort};
use noc_sim::shard::Partition;
use noc_sim::Topology;

/// Traffic shape over the streaming mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTraffic {
    /// No IPs bound: fully idle.
    Idle,
    /// Column streams half the mesh height down (all cross the row cuts).
    Uniform,
    /// Many senders into a block of center sinks.
    Hotspot,
    /// Streams confined to the top two rows; the rest of the mesh is idle.
    BusyBand,
}

/// A sink that counts and discards words from all its channels — constant
/// memory under endless sources, unlike `StreamSink`'s recorded trace.
#[derive(Debug, Default)]
pub struct CountingSink {
    received: u64,
}

impl CountingSink {
    /// Creates a sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Words consumed so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl<'a> ClockedWith<RawPort<'a>> for CountingSink {
    /// Consume one delivered word per channel per port cycle.
    fn absorb(&mut self, port: &mut RawPort<'a>, now: u64) {
        for &ch in port.channels {
            if port.kernel.pop_dst(ch, now).is_some() {
                self.received += 1;
            }
        }
    }

    fn emit(&mut self, _port: &mut RawPort<'a>, _now: u64) {}
}

impl RawIp for CountingSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Reacts only to deliveries; never blocks quiescence.
    fn done(&self) -> bool {
        true
    }

    /// The only dynamic state is the received count.
    fn persist(&mut self, p: &mut dyn noc_sim::StateVisit) {
        p.item(&mut self.received);
    }
}

/// One configured stream: sender NI / tx channel → receiver NI / rx channel.
#[derive(Debug, Clone, Copy)]
struct Stream {
    src: usize,
    dst: usize,
    rx_channel: ChannelId,
}

fn streams_for(width: usize, height: usize, traffic: MeshTraffic) -> Vec<Stream> {
    match traffic {
        MeshTraffic::Idle => Vec::new(),
        MeshTraffic::Uniform => (0..width * height)
            .map(|ni| {
                let (x, y) = (ni % width, ni / width);
                let dst = ((y + height / 2) % height) * width + x;
                Stream {
                    src: ni,
                    dst,
                    rx_channel: 2,
                }
            })
            .collect(),
        MeshTraffic::Hotspot => {
            // Sinks: a 2x2 block at the mesh center; senders: the
            // surrounding block within header reach, round-robined over the
            // sinks' rx channels.
            let (cx, cy) = (width / 2 - 1, height / 2 - 1);
            let sinks = [
                cy * width + cx,
                cy * width + cx + 1,
                (cy + 1) * width + cx,
                (cy + 1) * width + cx + 1,
            ];
            let mut streams = Vec::new();
            let mut j = 0usize;
            for y in cy.saturating_sub(2)..(cy + 4).min(height) {
                for x in cx.saturating_sub(2)..(cx + 4).min(width) {
                    let ni = y * width + x;
                    if sinks.contains(&ni) {
                        continue;
                    }
                    streams.push(Stream {
                        src: ni,
                        dst: sinks[j % sinks.len()],
                        rx_channel: 2 + (j / sinks.len()),
                    });
                    j += 1;
                }
            }
            streams
        }
        MeshTraffic::BusyBand => (0..width)
            .map(|x| Stream {
                src: x,
                dst: width + x, // row 0 → row 1: stays inside the top band
                rx_channel: 2,
            })
            .collect(),
    }
}

/// Builds the streaming mesh: spec, direct channel configuration, and
/// endless sources with counting sinks. Returns the system, its topology
/// and the sink NIs (throughput readout: [`single_received`] /
/// [`sharded_received`]).
pub fn stream_mesh(
    width: usize,
    height: usize,
    traffic: MeshTraffic,
) -> (NocSystem, Topology, Vec<usize>) {
    let streams = streams_for(width, height, traffic);
    let n = width * height;
    // Channel needs per NI: ch1 = tx; rx channels 2.. as assigned.
    let mut channels = vec![1usize; n];
    for s in &streams {
        channels[s.src] = channels[s.src].max(1);
        channels[s.dst] = channels[s.dst].max(s.rx_channel);
    }
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router: 1,
        },
        (0..n).map(|id| presets::raw_ni(id, channels[id])).collect(),
    );
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    for s in &streams {
        let fwd = topo.route_any(s.src, s.dst).expect("any pair routes");
        let rev = topo.route_any(s.dst, s.src).expect("any pair routes");
        let tx = &mut sys.nis[s.src].kernel;
        tx.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        tx.reg_write(chan_reg_addr(1, ChanReg::PathRqid), {
            pack_path_rqid(fwd.header_segment(), s.rx_channel as u8)
        })
        .unwrap();
        for (k, w) in fwd.continuation_words().enumerate() {
            tx.reg_write(ext_reg_addr(1, k), w).unwrap();
        }
        tx.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
        let rx = &mut sys.nis[s.dst].kernel;
        rx.reg_write(chan_reg_addr(s.rx_channel, ChanReg::Space), 8)
            .unwrap();
        rx.reg_write(chan_reg_addr(s.rx_channel, ChanReg::PathRqid), {
            pack_path_rqid(rev.header_segment(), 1)
        })
        .unwrap();
        for (k, w) in rev.continuation_words().enumerate() {
            rx.reg_write(ext_reg_addr(s.rx_channel, k), w).unwrap();
        }
        rx.reg_write(chan_reg_addr(s.rx_channel, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
    }
    let mut sinks: Vec<usize> = Vec::new();
    for s in &streams {
        sys.bind_raw(
            s.src,
            1,
            vec![1],
            Box::new(aethereal_proto::StreamSource::counting(u64::MAX)),
        );
        if !sinks.contains(&s.dst) {
            sinks.push(s.dst);
        }
    }
    // One counting sink per receiving NI, draining all its rx channels.
    for &ni in &sinks {
        let rx: Vec<ChannelId> = streams
            .iter()
            .filter(|s| s.dst == ni)
            .map(|s| s.rx_channel)
            .collect();
        sys.bind_raw(ni, 1, rx, Box::new(CountingSink::new()));
    }
    (sys, topo, sinks)
}

/// The sharded counterpart: the same mesh split into `shards` row bands.
pub fn sharded_stream_mesh(
    width: usize,
    height: usize,
    traffic: MeshTraffic,
    shards: usize,
) -> (ShardedSystem, Vec<usize>) {
    let (sys, topo, sinks) = stream_mesh(width, height, traffic);
    let partition = Partition::mesh_rows(width, height, shards);
    (ShardedSystem::new(sys, &topo, &partition), sinks)
}

/// Total words consumed across the sink NIs of a sharded run.
pub fn sharded_received(sharded: &ShardedSystem, sinks: &[usize]) -> u64 {
    sinks
        .iter()
        .map(|&ni| sharded.raw_ip_as::<CountingSink>(ni).received())
        .sum()
}

/// Total words consumed across the sink NIs of an unsplit run — the same
/// readout as [`sharded_received`], for apples-to-apples comparisons.
pub fn single_received(sys: &NocSystem, sinks: &[usize]) -> u64 {
    sinks
        .iter()
        .map(|&ni| sys.raw_ip_at::<CountingSink>(ni).received())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mesh_streams_flow_and_shard_cleanly() {
        let (mut sharded, sinks) = sharded_stream_mesh(4, 4, MeshTraffic::Uniform, 2);
        sharded.run(400);
        assert!(sharded_received(&sharded, &sinks) > 200, "streams flow");
        assert_eq!(sharded.gt_conflicts(), 0);
        assert_eq!(sharded.be_overflows(), 0);
    }

    #[test]
    fn sharded_uniform_matches_single_run() {
        let (mut single, _, sinks) = stream_mesh(4, 4, MeshTraffic::Uniform);
        single.run(500);
        let (mut sharded, ssinks) = sharded_stream_mesh(4, 4, MeshTraffic::Uniform, 4);
        sharded.run(500);
        assert_eq!(
            single_received(&single, &sinks),
            sharded_received(&sharded, &ssinks)
        );
    }

    #[test]
    fn hotspot_streams_fit_headers_on_8x8() {
        let (mut sharded, sinks) = sharded_stream_mesh(8, 8, MeshTraffic::Hotspot, 2);
        sharded.run(300);
        assert!(sharded_received(&sharded, &sinks) > 0);
        assert_eq!(sharded.be_overflows(), 0);
    }

    #[test]
    fn busy_band_leaves_other_regions_asleep() {
        let (mut sharded, _) = sharded_stream_mesh(8, 8, MeshTraffic::BusyBand, 4);
        sharded.run(300);
        assert_eq!(
            sharded.awake_count(),
            1,
            "only the busy band stays in the activity set"
        );
    }
}
