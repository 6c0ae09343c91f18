//! The seven workloads: what each builds, how much of it one run
//! measures, and why it is in the set.
//!
//! All builders use only the public API of the simulator crates. A builder
//! returns the configured system with its IP models **unbound** ([`Built`]):
//! the untraced pass binds them and lets the simulator's own run drivers
//! tick them, the traced pass keeps them and ticks them itself so that each
//! layer's share of a cycle can be timed from outside.
//!
//! Sizes are frozen here for `--seconds 10` on the 2-core reference host
//! (see `README.md`) and scale linearly with `--seconds`. They are cycle
//! and operation counts, never time limits, so every simulated statistic
//! and every count repeats exactly for a given seed and `--seconds`.

use crate::ips::{LatencySink, StampSource};
use aethereal_cfg::runtime::{ChannelEnd, ConnectionRequest};
use aethereal_cfg::{
    presets, NocSpec, NocSystem, RuntimeConfigurator, ShardedSystem, TopologySpec,
};
use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal_ni::kernel::{
    chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg, ChannelId,
};
use aethereal_proto::{
    MasterIp, MemorySlave, RawIp, SlaveIp, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use noc_sim::shard::Partition;
use noc_sim::{Rng64, Route, Topology};

/// How a workload's data phase is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `NocSystem::run` on the unsplit system.
    Mono,
    /// `ShardedSystem::run` (sequential) over row bands.
    Sharded {
        /// Row bands.
        shards: usize,
        /// Scheduling epoch, cycles.
        batch: u64,
    },
    /// The closed-loop control session; there is no free-running data
    /// phase.
    Control,
}

/// One workload: its identity, its reason, and its frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the set, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Mesh edge (the mesh is square).
    pub mesh: usize,
    /// The driver of the data phase.
    pub driver: Driver,
    /// Cycles run during set-up, after configuration, before anything is
    /// timed: queues fill, lazy allocations happen.
    pub warmup: u64,
    /// Cycles per timed segment (one call of the run driver).
    pub seg_cycles: u64,
    /// Timed segments at `--seconds 10`.
    pub segments: usize,
    /// Cycles over which a simpler twin re-runs the start of the data
    /// phase for the output check (`hotspot16_shard4`: the unsplit system;
    /// `gt16_ff`: the same system ticked without fast-forward). 0 = none.
    pub twin_cycles: u64,
    /// Snapshot → text → parse → restore round trips at `--seconds 10`.
    pub round_trips: usize,
    /// Rounds of the control session at `--seconds 10`; one round opens,
    /// uses and closes one connection of every (distance class, service)
    /// combination (see `control.rs`).
    pub control_rounds: usize,
    /// Cycles per segment of the traced pass (its decomposed loop ticks
    /// every cycle, so workloads that mostly skip get shorter segments).
    pub traced_seg_cycles: u64,
    /// Segments of the traced pass at `--seconds 10` — of the decomposed
    /// loop and of each untraced reference run beside it.
    pub traced_segments: usize,
}

/// The workload set, in reporting order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "uniform8",
        why: "8x8, 64 endless BE column streams: every router and NI kernel busy every cycle, no scheduler work; the data-plane reference",
        mesh: 8,
        driver: Driver::Mono,
        warmup: 2_000,
        seg_cycles: 1_000,
        segments: 900,
        twin_cycles: 0,
        round_trips: 300,
        control_rounds: 18,
        traced_seg_cycles: 2_000,
        traced_segments: 120,
    },
    Workload {
        name: "hotspot16",
        why: "16x16, 32 BE senders into a 2x2 centre block: most routers idle but walked, the centre credit-starved, 4x the working set",
        mesh: 16,
        driver: Driver::Mono,
        warmup: 1_000,
        seg_cycles: 500,
        segments: 900,
        twin_cycles: 0,
        round_trips: 150,
        control_rounds: 18,
        traced_seg_cycles: 1_000,
        traced_segments: 120,
    },
    Workload {
        name: "hotspot16_shard4",
        why: "the hotspot16 input through ShardedSystem (4 row bands, batch 16, sequential): isolates the shard runner, its activity set and the WireRing exchange",
        mesh: 16,
        driver: Driver::Sharded {
            shards: 4,
            batch: 16,
        },
        warmup: 1_000,
        seg_cycles: 800,
        segments: 800,
        twin_cycles: 24_000,
        round_trips: 150,
        control_rounds: 18,
        traced_seg_cycles: 4_000,
        traced_segments: 20,
    },
    Workload {
        name: "gt16_ff",
        why: "16x16 pure-GT neighbour streams with fast_forward on, in 100k-cycle windows: certify-and-jump does the work, routers almost none",
        mesh: 16,
        driver: Driver::Mono,
        warmup: 2_400,
        seg_cycles: 100_000,
        segments: 3_000,
        twin_cycles: 24_000,
        round_trips: 120,
        control_rounds: 16,
        traced_seg_cycles: 100_000,
        traced_segments: 1_500,
    },
    Workload {
        name: "shmem8_mixed",
        why: "8x8, config module, 12 master/slave pairs (half GT, half BE) opened through the NoC beside 16 GT streams: shells, IP models and the GT calendar under load",
        mesh: 8,
        driver: Driver::Mono,
        warmup: 2_000,
        seg_cycles: 1_000,
        segments: 600,
        twin_cycles: 0,
        round_trips: 100,
        control_rounds: 14,
        traced_seg_cycles: 2_000,
        traced_segments: 100,
    },
    Workload {
        name: "bursty16",
        why: "16x16, 8 master/slave pairs bursting every 20k-48k cycles: over 90% of cycles quiescent, so quiescent/next_event/skip bookkeeping dominates",
        mesh: 16,
        driver: Driver::Mono,
        warmup: 50_000,
        seg_cycles: 200_000,
        segments: 180,
        twin_cycles: 0,
        round_trips: 120,
        control_rounds: 14,
        traced_seg_cycles: 10_000,
        traced_segments: 40,
    },
    Workload {
        name: "control8",
        why: "closed loop, one client: open, use and close connections of 1-15 hops (GT and BE) on an idle 8x8 with 2 NIs per router, then snapshot/restore round trips",
        mesh: 8,
        driver: Driver::Control,
        warmup: 0,
        seg_cycles: 0,
        segments: 0,
        twin_cycles: 0,
        round_trips: 300,
        control_rounds: 140,
        traced_seg_cycles: 0,
        traced_segments: 0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Routers in the mesh.
    pub fn routers(&self) -> usize {
        self.mesh * self.mesh
    }
}

/// How much of the frozen sizes one run does: `--seconds / 10`, or a
/// twentieth of that under `--smoke`. Counts never scale below the floor
/// a statistic needs.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// The scale of a run of `seconds`, `smoke` or not.
    pub fn new(seconds: f64, smoke: bool) -> Self {
        Scale(seconds / 10.0 * if smoke { 0.05 } else { 1.0 })
    }

    /// `count` scaled, at least `floor`.
    pub fn of(&self, count: usize, floor: usize) -> usize {
        ((count as f64 * self.0).round() as usize).max(floor.min(count))
    }
}

// ---------------------------------------------------------------------
// IP models held outside the system
// ---------------------------------------------------------------------

/// A master IP and where it binds.
pub struct MasterSite {
    /// NI id.
    pub ni: usize,
    /// Port of that NI.
    pub port: usize,
    /// The model.
    pub ip: Box<dyn MasterIp>,
}

/// A slave IP and where it binds.
pub struct SlaveSite {
    /// NI id.
    pub ni: usize,
    /// Port of that NI.
    pub port: usize,
    /// The model.
    pub ip: Box<dyn SlaveIp>,
}

/// A raw streaming IP and where it binds.
pub struct RawSite {
    /// NI id.
    pub ni: usize,
    /// Port whose clock ticks the IP.
    pub port: usize,
    /// The channels it streams through.
    pub channels: Vec<ChannelId>,
    /// The model.
    pub ip: Box<dyn RawIp>,
}

/// Every IP model of a workload, in binding (= tick) order.
#[derive(Default)]
pub struct Ips {
    /// Masters, ticked first.
    pub masters: Vec<MasterSite>,
    /// Slaves, ticked second.
    pub slaves: Vec<SlaveSite>,
    /// Raw IPs, ticked third.
    pub raws: Vec<RawSite>,
}

/// A configured workload: the system with nothing bound, and its IPs.
pub struct Built {
    /// The design-time description the system came from.
    pub spec: NocSpec,
    /// The configured system; connections are open, no IP is bound.
    pub sys: NocSystem,
    /// The IP models.
    pub ips: Ips,
    /// The configurator that opened the connections, where one did.
    pub cfg: Option<RuntimeConfigurator>,
}

/// The system under one of its two run drivers.
pub enum Sim {
    /// Unsplit.
    Mono(Box<NocSystem>),
    /// Split into row bands.
    Sharded(Box<ShardedSystem>),
}

impl Built {
    /// Binds every IP in tick order and hands the system to its driver.
    pub fn into_sim(self, driver: Driver) -> Sim {
        let Built {
            spec, mut sys, ips, ..
        } = self;
        for m in ips.masters {
            sys.bind_master(m.ni, m.port, m.ip);
        }
        for s in ips.slaves {
            sys.bind_slave(s.ni, s.port, s.ip);
        }
        for r in ips.raws {
            sys.bind_raw(r.ni, r.port, r.channels, r.ip);
        }
        match driver {
            Driver::Mono | Driver::Control => Sim::Mono(Box::new(sys)),
            Driver::Sharded { shards, batch } => {
                let TopologySpec::Mesh { width, height, .. } = spec.topology else {
                    panic!("sharded workloads are meshes");
                };
                let partition = Partition::mesh_rows(width, height, shards);
                let mut sharded = ShardedSystem::new(sys, &spec.topology.build(), &partition);
                sharded.set_batch(batch);
                Sim::Sharded(Box::new(sharded))
            }
        }
    }
}

/// Builds workload `w` for `seed`, configured and unbound, at cycle 0 (or
/// wherever opening its connections through the NoC left it).
pub fn build(w: &Workload, seed: u64) -> Built {
    match w.name {
        "uniform8" => be_stream_mesh(8, &uniform_streams(8)),
        "hotspot16" | "hotspot16_shard4" => be_stream_mesh(16, &hotspot_streams(16)),
        "gt16_ff" => gt_stream_mesh(16),
        "shmem8_mixed" => shmem_mixed(seed),
        "bursty16" => bursty(seed),
        "control8" => crate::control::build_control_system(),
        other => panic!("no builder for workload `{other}`"),
    }
}

// ---------------------------------------------------------------------
// Stream meshes (uniform8, hotspot16, hotspot16_shard4, gt16_ff)
// ---------------------------------------------------------------------

/// Latency limit of a contended stream's sink: a word queued behind a
/// full source queue at a sink shared eight ways stays well below this.
const BE_LATENCY_LIMIT: u32 = 4096;
/// Latency limit of an uncontended neighbour stream's sink (kept small:
/// see `ips::bin_of`).
const GT_LATENCY_LIMIT: u32 = 64;

/// One BE stream: `src` channel 1 → `dst` channel `rx`.
#[derive(Debug, Clone, Copy)]
struct Stream {
    src: usize,
    dst: usize,
    rx: ChannelId,
}

/// Every NI streams down its column to the NI half the mesh away: one
/// stream out and one in per NI.
fn uniform_streams(n: usize) -> Vec<Stream> {
    (0..n * n)
        .map(|ni| {
            let (x, y) = (ni % n, ni / n);
            Stream {
                src: ni,
                dst: ((y + n / 2) % n) * n + x,
                rx: 2,
            }
        })
        .collect()
}

/// The 6x6 block around the mesh centre streams into the 2x2 block at its
/// middle: 32 senders, 8 per sink, each on its own receive channel.
fn hotspot_streams(n: usize) -> Vec<Stream> {
    let c = n / 2 - 1;
    let sinks = [
        c * n + c,
        c * n + c + 1,
        (c + 1) * n + c,
        (c + 1) * n + c + 1,
    ];
    let mut streams = Vec::new();
    for y in c - 2..c + 4 {
        for x in c - 2..c + 4 {
            let ni = y * n + x;
            if !sinks.contains(&ni) {
                let j = streams.len();
                streams.push(Stream {
                    src: ni,
                    dst: sinks[j % 4],
                    rx: 2 + j / 4,
                });
            }
        }
    }
    streams
}

/// Writes the three registers of one BE channel end directly into the
/// local register file — the design-time configuration path; nothing
/// crosses the NoC.
fn configure_be_end(sys: &mut NocSystem, ni: usize, ch: ChannelId, route: &Route, remote_q: u8) {
    let k = &mut sys.nis[ni].kernel;
    let mut write = |addr, value| k.reg_write(addr, value).expect("channel register exists");
    write(chan_reg_addr(ch, ChanReg::Space), 8);
    write(
        chan_reg_addr(ch, ChanReg::PathRqid),
        pack_path_rqid(route.header_segment(), remote_q),
    );
    for (seg, word) in route.continuation_words().enumerate() {
        write(ext_reg_addr(ch, seg), word);
    }
    write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE);
}

fn mesh_spec(n: usize, nis: Vec<aethereal_ni::ni::NiSpec>) -> NocSpec {
    let per_router = nis.len() / (n * n);
    NocSpec::new(
        TopologySpec::Mesh {
            width: n,
            height: n,
            nis_per_router: per_router,
        },
        nis,
    )
}

fn be_stream_mesh(n: usize, streams: &[Stream]) -> Built {
    let mut channels = vec![1usize; n * n];
    for s in streams {
        channels[s.dst] = channels[s.dst].max(s.rx);
    }
    let spec = mesh_spec(
        n,
        (0..n * n)
            .map(|id| presets::raw_ni(id, channels[id]))
            .collect(),
    );
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let mut ips = Ips::default();
    for s in streams {
        let fwd = topo.route_any(s.src, s.dst).expect("any mesh pair routes");
        let rev = topo.route_any(s.dst, s.src).expect("any mesh pair routes");
        configure_be_end(&mut sys, s.src, 1, &fwd, s.rx as u8);
        configure_be_end(&mut sys, s.dst, s.rx, &rev, 1);
        ips.raws.push(RawSite {
            ni: s.src,
            port: 1,
            channels: vec![1],
            ip: Box::new(StampSource::new()),
        });
    }
    let mut sinks: Vec<usize> = streams.iter().map(|s| s.dst).collect();
    sinks.sort_unstable();
    sinks.dedup();
    for ni in sinks {
        ips.raws.push(RawSite {
            ni,
            port: 1,
            channels: streams
                .iter()
                .filter(|s| s.dst == ni)
                .map(|s| s.rx)
                .collect(),
            ip: Box::new(LatencySink::new(BE_LATENCY_LIMIT)),
        });
    }
    Built {
        spec,
        sys,
        ips,
        cfg: None,
    }
}

/// An endless GT stream between every horizontally adjacent NI pair, four
/// forward and two credit-return slots of eight on links no other pair
/// uses, stream ports at a quarter of the network clock so production
/// stays below the reservation and the state is periodic in the 24-cycle
/// slot-table rotation.
fn gt_stream_mesh(n: usize) -> Built {
    let mut spec =
        mesh_spec(n, (0..n * n).map(|id| presets::raw_ni(id, 1)).collect()).with_fast_forward(true);
    for ni in &mut spec.nis {
        ni.kernel.ports[1].clock_div = 4;
    }
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let mut ips = Ips::default();
    for src in (0..n * n).step_by(2) {
        let dst = src + 1;
        configure_gt_neighbours(&mut sys, &topo, src, dst);
        ips.raws.push(RawSite {
            ni: src,
            port: 1,
            channels: vec![1],
            ip: Box::new(StampSource::new()),
        });
        ips.raws.push(RawSite {
            ni: dst,
            port: 1,
            channels: vec![1],
            ip: Box::new(LatencySink::new(GT_LATENCY_LIMIT)),
        });
    }
    Built {
        spec,
        sys,
        ips,
        cfg: None,
    }
}

// ---------------------------------------------------------------------
// Transaction workloads (shmem8_mixed, bursty16)
// ---------------------------------------------------------------------

/// Per-IP seeds drawn from the run seed.
fn seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

fn end(ni: usize) -> ChannelEnd {
    ChannelEnd { ni, channel: 1 }
}

/// Writes the GT channel ends of one neighbour stream directly into the
/// local register files: `src` sends in `fwd_slots`, `dst` returns credits
/// in `rev_slots`. The caller keeps the slots of streams sharing a link
/// apart; neighbour streams share none.
fn configure_gt_neighbours(sys: &mut NocSystem, topo: &Topology, src: usize, dst: usize) {
    let fwd = topo.route(src, dst).expect("adjacent route");
    let rev = topo.route(dst, src).expect("adjacent route");
    for (ni, path, slots) in [
        (src, &fwd, &[0usize, 2, 4, 6][..]),
        (dst, &rev, &[1, 5][..]),
    ] {
        let k = &mut sys.nis[ni].kernel;
        let mut write = |addr, value| k.reg_write(addr, value).expect("register exists");
        write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT);
        write(chan_reg_addr(1, ChanReg::Space), 8);
        write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(path, 1));
        for &s in slots {
            write(slot_reg_addr(s), 2);
        }
    }
}

/// The paper's system: a configuration module opens, through the NoC,
/// twelve master/slave connections — six GT (two slots each way, six hops
/// down one column) and six BE (across the mesh on two-level routes) —
/// beside sixteen raw GT neighbour streams in the rows they cross, so GT
/// transactions, BE transactions and GT streams meet in the same routers
/// and the BE traffic shares links with both.
///
/// Layout (8x8, one NI per router, `id = y*8 + x`): configuration module
/// at 0; BE masters in row 0 and GT masters in row 1 (x = 1..=6); stream
/// pairs (even x → x+1) in rows 2-5, configured at design time on row
/// links no connection's GT reservation touches; GT slaves in row 6 under
/// their masters, BE slaves in row 7 three columns over.
fn shmem_mixed(seed: u64) -> Built {
    const N: usize = 8;
    let at = |x: usize, y: usize| y * N + x;
    let be_pairs: Vec<(usize, usize)> = (1..=6).map(|x| (at(x, 0), at((x + 3) % N, 7))).collect();
    let gt_pairs: Vec<(usize, usize)> = (1..=6).map(|x| (at(x, 1), at(x, 6))).collect();
    let streams: Vec<(usize, usize)> = (2..=5)
        .flat_map(|y| (0..N).step_by(2).map(move |x| (y * N + x, y * N + x + 1)))
        .collect();
    let masters: Vec<usize> = be_pairs.iter().chain(&gt_pairs).map(|p| p.0).collect();
    let slaves: Vec<usize> = be_pairs.iter().chain(&gt_pairs).map(|p| p.1).collect();

    let nis = (0..N * N)
        .map(|id| {
            if id == 0 {
                presets::cfg_module_ni(0, masters.len() + slaves.len())
            } else if masters.contains(&id) {
                presets::master_ni(id)
            } else if streams.iter().any(|&(a, b)| a == id || b == id) {
                presets::raw_ni(id, 1)
            } else {
                presets::slave_ni(id)
            }
        })
        .collect();
    // Fast-forward is on although a system with masters can never certify:
    // the declined probe is part of what a mixed system pays.
    let spec = mesh_spec(N, nis).with_fast_forward(true);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    for &(src, dst) in &streams {
        configure_gt_neighbours(&mut sys, &topo, src, dst);
    }
    let mut cfg = RuntimeConfigurator::new(topo, 0, 0, 8);
    for &(m, s) in &gt_pairs {
        cfg.open_connection(&mut sys, &ConnectionRequest::guaranteed(end(m), end(s), 2))
            .expect("GT master/slave connection opens");
    }
    for &(m, s) in &be_pairs {
        cfg.open_connection(&mut sys, &ConnectionRequest::best_effort(end(m), end(s)))
            .expect("BE master/slave connection opens");
    }

    let mut ips = Ips::default();
    for (i, (&ni, seed)) in masters.iter().zip(seeds(seed, masters.len())).enumerate() {
        ips.masters.push(MasterSite {
            ni,
            port: 1,
            ip: Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed,
                addr_range: 0x100,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (1, 4),
                gap_cycles: (i % 4) as u64 * 2,
                ..TrafficGeneratorConfig::default()
            })),
        });
    }
    for (i, &ni) in slaves.iter().enumerate() {
        ips.slaves.push(SlaveSite {
            ni,
            port: 1,
            ip: Box::new(MemorySlave::new(2 + (i % 3) as u64)),
        });
    }
    for &(src, dst) in &streams {
        ips.raws.push(RawSite {
            ni: src,
            port: 1,
            channels: vec![1],
            ip: Box::new(StampSource::new()),
        });
        ips.raws.push(RawSite {
            ni: dst,
            port: 1,
            channels: vec![1],
            ip: Box::new(LatencySink::new(GT_LATENCY_LIMIT)),
        });
    }
    Built {
        spec,
        sys,
        ips,
        cfg: Some(cfg),
    }
}

/// Eight master/slave pairs on an otherwise idle 16x16, each generator
/// issuing one read or acknowledged write every 20 000-48 000 cycles over
/// an 11-21-hop BE connection: between bursts the whole system is
/// quiescent and the run driver skips.
///
/// The configuration module sits mid-mesh and no route is longer than 21
/// hops: a configuration connection over four or more route segments
/// never sees its acknowledgment (it times out), so the workload stays
/// within three.
fn bursty(seed: u64) -> Built {
    const N: usize = 16;
    const CFG_NI: usize = 8 * N + 8;
    let pairs: Vec<(usize, usize)> = (0..8).map(|i| (3 * N + 2 + i, 12 * N + 13 - i)).collect();
    let nis = (0..N * N)
        .map(|id| {
            if id == CFG_NI {
                presets::cfg_module_ni(id, 2 * pairs.len())
            } else if pairs.iter().any(|p| p.0 == id) {
                presets::master_ni(id)
            } else {
                presets::slave_ni(id)
            }
        })
        .collect();
    let spec = mesh_spec(N, nis);
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), CFG_NI, 0, 8);
    let mut ips = Ips::default();
    for (i, (&(m, s), seed)) in pairs.iter().zip(seeds(seed, pairs.len())).enumerate() {
        cfg.open_connection(&mut sys, &ConnectionRequest::best_effort(end(m), end(s)))
            .expect("BE connection opens");
        ips.masters.push(MasterSite {
            ni: m,
            port: 1,
            ip: Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed,
                addr_range: 0x100,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (2, 6),
                gap_cycles: 20_000 + 4_000 * i as u64,
                max_outstanding: 1,
                ..TrafficGeneratorConfig::default()
            })),
        });
        ips.slaves.push(SlaveSite {
            ni: s,
            port: 1,
            ip: Box::new(MemorySlave::new(3)),
        });
    }
    Built {
        spec,
        sys,
        ips,
        cfg: Some(cfg),
    }
}
