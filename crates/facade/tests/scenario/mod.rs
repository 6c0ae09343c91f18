//! The scenario vocabulary the integration tests share: mesh specs, the
//! connection-open and register-poke sequences, stream bindings, and the
//! canonical systems the tests run.
//!
//! A function lives here only if test files in two or more places call it,
//! or if it builds one of the named canonical systems (listed in
//! `docs/ARCHITECTURE.md`, *Test scenarios*). Everything else stays in its
//! test file. These are plain functions, not a builder: where two systems
//! differ, the difference is an argument.
//!
//! Each facade test that uses the module declares `mod scenario;`; the
//! `verify` crate's tests include this file by `#[path]`. So it names the
//! underlying crates, never the `aethereal` facade, which `verify` does not
//! depend on.

// Every test binary uses a different part of the module; without this,
// each would warn about the parts it does not use.
#![allow(dead_code)]

use aethereal_cfg::runtime::{ChannelEnd, ConnectionHandle, ConnectionRequest, Service};
use aethereal_cfg::{presets, NocSpec, NocSystem, RuntimeConfigurator, SlotStrategy, TopologySpec};
use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal_ni::kernel::{chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg};
use aethereal_ni::ni::NiSpec;
use aethereal_ni::Transaction;
use aethereal_proto::{
    CountingSink, MemorySlave, StreamSink, StreamSource, TrafficGenerator, TrafficGeneratorConfig,
    TrafficMix,
};
use noc_sim::topology::dir;
use noc_sim::{Engine, FaultPlan, Path, Route, Topology};

/// Slots per slot table in every scenario.
pub const STU: usize = 8;

/// Word count of a source that never runs dry.
pub const ENDLESS: u64 = u64::MAX;

// ---- Specs ---------------------------------------------------------------

/// A `width × height` mesh with `nis_per_router` NIs on every router,
/// carrying `nis` in attachment order.
pub fn mesh(width: usize, height: usize, nis_per_router: usize, nis: Vec<NiSpec>) -> NocSpec {
    NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router,
        },
        nis,
    )
}

/// A `width × height` mesh whose NI `id` is `ni(id)`.
pub fn mesh_spec(
    width: usize,
    height: usize,
    nis_per_router: usize,
    ni: impl FnMut(usize) -> NiSpec,
) -> NocSpec {
    let n = width * height * nis_per_router;
    mesh(width, height, nis_per_router, (0..n).map(ni).collect())
}

/// A `width × height` mesh of raw streaming NIs with `channels` data
/// channels each (channel 0 is the CNIP).
pub fn raw_mesh(width: usize, height: usize, nis_per_router: usize, channels: usize) -> NocSpec {
    mesh_spec(width, height, nis_per_router, |id| {
        presets::raw_ni(id, channels)
    })
}

/// `spec` with NI `cfg_ni` replaced by the configuration module, sized for
/// `channels` configuration connections.
pub fn with_cfg(mut spec: NocSpec, cfg_ni: usize, channels: usize) -> NocSpec {
    spec.nis[cfg_ni] = presets::cfg_module_ni(cfg_ni, channels);
    spec
}

/// A `width × height` mesh with `nis_per_router` NIs per router: the
/// configuration module (`cfg_channels` configuration connections) on NI 0,
/// a master on NI 1 and slaves on every other NI.
fn master_slave_spec(
    width: usize,
    height: usize,
    nis_per_router: usize,
    cfg_channels: usize,
) -> NocSpec {
    mesh_spec(width, height, nis_per_router, |id| match id {
        0 => presets::cfg_module_ni(0, cfg_channels),
        1 => presets::master_ni(1),
        _ => presets::slave_ni(id),
    })
}

/// The §2 guarantees harness: a 2×1 mesh with three NIs per router. The
/// configuration module (8 configuration connections) is on NI 0, GT
/// stream endpoints are the raw NIs 1 (router 0) and 3 (router 1), and a
/// spare slave is on NI 5. NIs 2 → 4 are a second pair across the same
/// link: a master and a memory slave with `shells`, raw NIs without.
pub fn harness_spec(shells: bool) -> NocSpec {
    mesh_spec(2, 1, 3, |id| match id {
        0 => presets::cfg_module_ni(0, 8),
        2 if shells => presets::master_ni(2),
        4 if shells => presets::slave_ni(4),
        5 => presets::slave_ni(5),
        _ => presets::raw_ni(id, 1),
    })
}

/// The §2 guarantees harness ([`harness_spec`] with shells) with a GT
/// connection of `gt_slots` spread slots NI 1 → NI 3 (best-effort
/// reverse), and with `be_pair` a BE connection NI 2 → NI 4 across the
/// same link, both opened through the NoC.
pub fn harness(gt_slots: usize, be_pair: bool) -> NocSystem {
    let (mut sys, mut cfg) = configurable(&harness_spec(true), 0);
    open(&mut cfg, &mut sys, (1, 1), (3, 1), gt(gt_slots), BE);
    if be_pair {
        open(&mut cfg, &mut sys, (2, 1), (4, 1), BE, BE);
    }
    sys
}

/// The 8x8 two-level-route mesh: the configuration module (8 connections)
/// on NI `cfg_ni`, a slave on the far corner NI 63 and masters everywhere
/// else, so that NI 0 → NI 63 crosses the full diagonal (15 hops, two
/// gateway rewrites).
pub fn diagonal_spec(cfg_ni: usize) -> NocSpec {
    mesh_spec(8, 8, 1, |id| match id {
        _ if id == cfg_ni => presets::cfg_module_ni(id, 8),
        63 => presets::slave_ni(63),
        _ => presets::master_ni(id),
    })
}

// ---- Connections opened through the NoC ----------------------------------

/// A fresh system of `spec` and its run-time configurator, whose module is
/// on port 0 of NI `cfg_ni`, with [`STU`]-slot tables.
pub fn configurable(spec: &NocSpec, cfg_ni: usize) -> (NocSystem, RuntimeConfigurator) {
    let cfg = RuntimeConfigurator::new(spec.build_topology(), cfg_ni, 0, STU);
    (NocSystem::from_spec(spec), cfg)
}

/// Best-effort service.
pub const BE: Service = Service::BestEffort;

/// Guaranteed service over `slots` spread slots.
pub fn gt(slots: usize) -> Service {
    Service::Guaranteed {
        slots,
        strategy: SlotStrategy::Spread,
    }
}

/// Guaranteed service over a consecutive run of `slots` slots, whose
/// packets can carry more than one slot's words.
pub fn gt_run(slots: usize) -> Service {
    Service::Guaranteed {
        slots,
        strategy: SlotStrategy::Consecutive,
    }
}

/// The connection master `(ni, channel)` → slave `(ni, channel)` with the
/// given service per direction and thresholds 0.
pub fn request(
    (master, master_ch): (usize, usize),
    (slave, slave_ch): (usize, usize),
    fwd: Service,
    rev: Service,
) -> ConnectionRequest {
    ConnectionRequest {
        fwd,
        rev,
        ..ConnectionRequest::best_effort(
            ChannelEnd {
                ni: master,
                channel: master_ch,
            },
            ChannelEnd {
                ni: slave,
                channel: slave_ch,
            },
        )
    }
}

/// Opens [`request`]`(master, slave, fwd, rev)` through the NoC; panics if
/// the configurator refuses it.
pub fn open(
    cfg: &mut RuntimeConfigurator,
    sys: &mut NocSystem,
    master: (usize, usize),
    slave: (usize, usize),
    fwd: Service,
    rev: Service,
) -> ConnectionHandle {
    cfg.open_connection(sys, &request(master, slave, fwd, rev))
        .unwrap_or_else(|e| panic!("{master:?} -> {slave:?} must open: {e}"))
}

/// Runs until the configuration traffic has drained from the network,
/// within `budget` cycles.
pub fn settle(sys: &mut NocSystem, budget: u64) {
    assert!(
        Engine::run_until(sys, |s| s.noc.drained(), budget),
        "configuration traffic must drain"
    );
}

/// [`master_slave_spec`] with a BE connection opened through the NoC from
/// the master (NI 1, channel 1) to channel 1 of NI `slave`.
pub fn master_slave(
    width: usize,
    height: usize,
    nis_per_router: usize,
    cfg_channels: usize,
    slave: usize,
) -> (NocSystem, RuntimeConfigurator) {
    let spec = master_slave_spec(width, height, nis_per_router, cfg_channels);
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (slave, 1), BE, BE);
    (sys, cfg)
}

/// The configured pair, the canonical shared-memory system: a 2×1 mesh,
/// two NIs per router, the configuration module (NI 0) and a master (NI 1)
/// on router 0, slaves NI 2 and NI 3 on router 1, and a BE connection
/// master → NI 2 opened through the NoC (Fig. 9).
pub fn configured_pair() -> (NocSystem, RuntimeConfigurator) {
    master_slave(2, 1, 2, 4, 2)
}

/// The spec of [`configured_pair`], with nothing opened.
pub fn pair_spec() -> NocSpec {
    master_slave_spec(2, 1, 2, 4)
}

/// [`pair_spec`] with `master` on NI 1 and one BE leg from each of its
/// channels 1 and 2 to a slave (NI 2 and NI 3), opened through the NoC:
/// the narrowcast and multicast connection of §4.2, built as a collection
/// of point-to-point connections.
pub fn two_slave_pair(master: NiSpec) -> NocSystem {
    let mut spec = pair_spec();
    spec.nis[1] = master;
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    open(&mut cfg, &mut sys, (1, 2), (3, 1), BE, BE);
    sys
}

/// [`pair_spec`] with single-channel raw NIs 1 and 2 for a stream's source
/// and sink in place of the master and the first slave.
pub fn raw_pair_spec() -> NocSpec {
    let mut spec = pair_spec();
    spec.nis[1] = presets::raw_ni(1, 1);
    spec.nis[2] = presets::raw_ni(2, 1);
    spec
}

// ---- Register pokes --------------------------------------------------------

/// Programs channel `ch` of NI `ni` directly through its register file:
/// space 8, a path to queue `peer_ch` along `route` (header segment and
/// continuation words), GT over the slot-table entries `gt` when that is
/// `Some`, best effort otherwise, and enabled unless `enable` is false.
fn poke(
    sys: &mut NocSystem,
    (ni, ch): (usize, usize),
    route: &Route,
    peer_ch: usize,
    gt: Option<&[usize]>,
    enable: bool,
) {
    let k = &mut sys.nis[ni].kernel;
    k.reg_write(chan_reg_addr(ch, ChanReg::Space), 8)
        .expect("space");
    k.reg_write(
        chan_reg_addr(ch, ChanReg::PathRqid),
        pack_path_rqid(route.header_segment(), peer_ch as u8),
    )
    .expect("path");
    for (i, w) in route.continuation_words().enumerate() {
        k.reg_write(ext_reg_addr(ch, i), w).expect("path ext");
    }
    for &s in gt.unwrap_or_default() {
        k.reg_write(slot_reg_addr(s), ch as u32 + 1).expect("slot");
    }
    if enable {
        let ctrl = CTRL_ENABLE | if gt.is_some() { CTRL_GT } else { 0 };
        k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), ctrl)
            .expect("ctrl");
    }
}

/// [`poke`] along `topo`'s route from NI `ni` to NI `peer`, split into
/// gateway segments where it does not fit one header.
pub fn configure(
    sys: &mut NocSystem,
    topo: &Topology,
    (ni, ch): (usize, usize),
    (peer, peer_ch): (usize, usize),
    gt: Option<&[usize]>,
    enable: bool,
) {
    let route = topo.route_any(ni, peer).expect("any pair routes");
    poke(sys, (ni, ch), &route, peer_ch, gt, enable);
}

/// An enabled channel pair `src` → `dst` (data) and `dst` → `src`
/// (credits), each `(ni, channel)`: GT over the given forward and reverse
/// slots, or best effort.
pub fn connect(
    sys: &mut NocSystem,
    topo: &Topology,
    src: (usize, usize),
    dst: (usize, usize),
    gt_slots: Option<(&[usize], &[usize])>,
) {
    configure(sys, topo, src, dst, gt_slots.map(|s| s.0), true);
    configure(sys, topo, dst, src, gt_slots.map(|s| s.1), true);
}

// ---- Stream endpoints ------------------------------------------------------

/// Binds to port 1 of NI `ni` a source of `words` counting words
/// ([`ENDLESS`] never runs dry) into channel `ch`; returns the raw handle.
pub fn source(sys: &mut NocSystem, ni: usize, ch: usize, words: u64) -> usize {
    sys.bind_raw(ni, 1, vec![ch], Box::new(StreamSource::counting(words)))
}

/// Binds to port 1 of NI `ni` a [`CountingSink`] draining channel `ch`.
pub fn counting_sink(sys: &mut NocSystem, ni: usize, ch: usize) -> usize {
    sys.bind_raw(ni, 1, vec![ch], Box::new(CountingSink::new()))
}

/// Binds to port 1 of NI `ni` a [`StreamSink`] recording every word of
/// channel `ch` with its arrival cycle.
pub fn recording_sink(sys: &mut NocSystem, ni: usize, ch: usize) -> usize {
    sys.bind_raw(ni, 1, vec![ch], Box::new(StreamSink::new()))
}

// ---- The mixed master/slave workloads --------------------------------------

/// Master `m`'s seeded read/write generator in the mixed workloads: `total`
/// transactions of 1–4 words into 512 words of memory, at most 4
/// outstanding, paced by gaps of 0, 7 or 23 cycles by `m` so saturating and
/// gappy generators run together.
fn mixed_generator(m: usize, total: u64) -> Box<TrafficGenerator> {
    Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
        seed: 11 * m as u64 + 3,
        addr_base: 0,
        addr_range: 0x200,
        mix: TrafficMix::Mixed { read_fraction: 0.5 },
        burst: (1, 4),
        gap_cycles: [0, 7, 23][m % 3],
        total: Some(total),
        max_outstanding: 4,
    }))
}

/// The 4x4 mixed workload of the shard, fault and replay tests.
pub struct Mixed4x4 {
    /// The settled, bound system.
    pub sys: NocSystem,
    /// Its topology.
    pub topo: Topology,
    /// `(ni, port)` of every bound traffic generator.
    pub masters: Vec<(usize, usize)>,
    /// Cycle at which the settled system was handed to the workloads.
    pub start: u64,
}

/// A 4x4 mesh (one NI per router): the configuration module on NI 0,
/// traffic generators on NIs 1–6 and a GT stream of `stream_words` words
/// NI 7 → NI 15 (2 spread slots, routers 7 → 11 → 15) crossing every row
/// cut into a [`StreamSink`]. With `hotspot`, every master talks to its own
/// channel of the multi-connection slave on NI 13, whose one memory serves
/// them all; otherwise master `m` talks to its own memory on NI `m + 7`.
/// Each generator issues `total` transactions. All connections are opened
/// through the NoC and the network is drained before the workloads are
/// bound, so the same builder serves an unsplit reference and a sharded run
/// (the split point requires a drained network).
pub fn mixed_4x4(hotspot: bool, total: u64, stream_words: u64) -> Mixed4x4 {
    let spec = mesh_spec(4, 4, 1, |id| match id {
        0 => presets::cfg_module_ni(0, 16),
        1..=6 => presets::master_ni(id),
        7 | 15 => presets::raw_ni(id, 1),
        13 if hotspot => presets::multi_slave_ni(13, 6),
        _ => presets::slave_ni(id),
    });
    let topo = spec.build_topology();
    let (mut sys, mut cfg) = configurable(&spec, 0);
    let slave_of = |m: usize| if hotspot { (13, m) } else { (m + 7, 1) };
    for m in 1..7usize {
        open(&mut cfg, &mut sys, (m, 1), slave_of(m), BE, BE);
    }
    open(&mut cfg, &mut sys, (7, 1), (15, 1), gt(2), BE);
    settle(&mut sys, 2_000);
    let mut masters = Vec::new();
    for m in 1..7usize {
        sys.bind_master(m, 1, mixed_generator(m, total));
        masters.push((m, 1));
        if !hotspot || m == 1 {
            let (slave, _) = slave_of(m);
            sys.bind_slave(slave, 1, Box::new(MemorySlave::new(2 + (m as u64 % 3))));
        }
    }
    source(&mut sys, 7, 1, stream_words);
    recording_sink(&mut sys, 15, 1);
    let start = sys.cycle();
    Mixed4x4 {
        sys,
        topo,
        masters,
        start,
    }
}

// ---- The golden builds -----------------------------------------------------

/// Opens the standard workload on an 8x8 mesh of `nis`: six BE connections
/// from master `m` to `slave_of(m)`, one GT stream NI 7 → NI 63, settles
/// the configuration traffic, then binds the generators (60 transactions
/// each) and the stream endpoints (5 000 words into a [`CountingSink`]).
fn golden_8x8(
    special: impl Fn(usize) -> Option<NiSpec>,
    slave_of: impl Fn(usize) -> (usize, usize),
) -> NocSystem {
    let spec = mesh_spec(8, 8, 1, |id| {
        special(id).unwrap_or_else(|| match id {
            0 => presets::cfg_module_ni(0, 16),
            1..=6 => presets::master_ni(id),
            7 | 63 => presets::raw_ni(id, 1),
            _ => presets::slave_ni(id),
        })
    });
    let (mut sys, mut cfg) = configurable(&spec, 0);
    for m in 1..7usize {
        open(&mut cfg, &mut sys, (m, 1), slave_of(m), BE, BE);
    }
    open(&mut cfg, &mut sys, (7, 1), (63, 1), gt(2), BE);
    settle(&mut sys, 8_000);
    for m in 1..7usize {
        sys.bind_master(m, 1, mixed_generator(m, 60));
    }
    source(&mut sys, 7, 1, 5_000);
    counting_sink(&mut sys, 63, 1);
    sys
}

/// Golden build *uniform*: each master targets its own slave diagonally
/// across the mesh (NIs 57–62), the GT stream crosses corner to corner.
pub fn uniform_8x8() -> NocSystem {
    let mut sys = golden_8x8(|_| None, |m| (56 + m, 1));
    for m in 1..7usize {
        sys.bind_slave(56 + m, 1, Box::new(MemorySlave::new(2 + (m as u64 % 3))));
    }
    sys
}

/// Golden build *hotspot*: every master hammers one channel of the
/// multi-connection slave at the mesh center (NI 36).
pub fn hotspot_8x8() -> NocSystem {
    let mut sys = golden_8x8(
        |id| (id == 36).then(|| presets::multi_slave_ni(36, 6)),
        |m| (36, m),
    );
    sys.bind_slave(36, 1, Box::new(MemorySlave::new(3)));
    sys
}

/// NI 0 → NI 63 on an 8x8 mesh: the minimal route split 7/4/4 at routers 7
/// and 39 (where the lower row band begins on column 7) rather than the
/// planner's greedy 7/7/1.
pub fn corner_route_7_4_4(topo: &Topology) -> Route {
    let hops: Vec<_> = topo
        .route_any(0, 63)
        .expect("route exists")
        .iter_hops()
        .collect();
    let segments =
        [&hops[..7], &hops[7..11], &hops[11..]].map(|seg| Path::new(seg).expect("fits one header"));
    let route = Route::from_segments(segments.to_vec()).expect("three segments");
    let lengths: Vec<_> = route.segments().iter().map(Path::hops).collect();
    assert_eq!(lengths, [7, 4, 4]);
    route
}

/// A 200-word BE stream NI `src` ch 1 → NI `dst` ch 2 along `fwd`, with
/// its credits returning along `rev`, into a [`StreamSink`].
pub fn bounded_be_stream(
    sys: &mut NocSystem,
    (src, fwd): (usize, &Route),
    (dst, rev): (usize, &Route),
) {
    poke(sys, (src, 1), fwd, 2, None, true);
    poke(sys, (dst, 2), rev, 1, None, true);
    source(sys, src, 1, 200);
    recording_sink(sys, dst, 2);
}

/// Golden build *gateway*: a bounded 200-word BE stream NI 0 ch 1 → NI 63
/// ch 2 whose headers are rewritten in flight at gateway routers 7 and 39
/// ([`corner_route_7_4_4`]), with its credits returning over the greedily
/// split reverse route, into a [`StreamSink`].
pub fn gateway_8x8() -> NocSystem {
    let spec = raw_mesh(8, 8, 1, 2);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let rev = topo.route_any(63, 0).expect("route exists");
    bounded_be_stream(&mut sys, (0, &corner_route_7_4_4(&topo)), (63, &rev));
    sys
}

/// Golden build *faulted*: [`uniform_8x8`] with a seeded fault storm armed
/// across the warm period — flaky and stuck links under the BE columns
/// (truncated worms, lost tails), corrupted headers on BE columns and on
/// the GT stream (paths naming other or missing ports or ending early,
/// queue ids no NI has), swallowed link-level credits and a short router
/// stall. The fault-free builds never reach the routers' discard,
/// stale-worm and GT-conflict paths; this one does.
pub fn faulted_8x8() -> NocSystem {
    let mut sys = uniform_8x8();
    let t = sys.cycle();
    let mut plan = FaultPlan::new(0x5EED_FA17);
    plan.link_flaky(10, dir::SOUTH, t + 20, t + 2_200, 150_000)
        .slot_corrupt(19, dir::SOUTH, t + 40, t + 900, 0x0000_A5A5)
        .slot_corrupt(15, dir::SOUTH, t + 300, t + 314, 0x0000_0005)
        .slot_corrupt(15, dir::SOUTH, t + 400, t + 414, 0x0000_0007)
        .slot_corrupt(52, dir::SOUTH, t + 100, t + 1_500, 0x0380_0000)
        .credit_loss(20, dir::NORTH, t + 60, t + 1_800, 5)
        .link_flaky(45, dir::NORTH, t + 100, t + 2_000, 250_000)
        .link_stuck(14, dir::SOUTH, t + 500, t + 560)
        .router_stall(41, t + 700, t + 730);
    sys.arm_faults(&plan);
    sys
}

// ---- Pure-GT systems -------------------------------------------------------

/// A `width × height` mesh of single-channel raw NIs whose streaming ports
/// run at clock divider 4: 6 words per 24-cycle rotation.
fn div4_mesh(width: usize, height: usize, channels: impl Fn(usize) -> usize) -> NocSpec {
    let mut spec = mesh_spec(width, height, 1, |id| presets::raw_ni(id, channels(id)));
    for ni in &mut spec.nis {
        ni.kernel.ports[1].clock_div = 4;
    }
    spec
}

/// The pure-GT uniform mesh: disjoint endless GT stream pairs between the
/// horizontally adjacent NIs of every row of a `width × height` mesh,
/// direction alternating row by row (on 2x2: NI 0 → NI 1 and NI 3 → NI 2),
/// poked with 4 forward and 2 reverse slots. The clock-div-4 ports never
/// outrun the reservation. Returns the system and the sink handles.
pub fn pure_gt_uniform(width: usize, height: usize) -> (NocSystem, Vec<usize>) {
    let spec = div4_mesh(width, height, |_| 1);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let mut sinks = Vec::new();
    for left in (0..width * height).step_by(2) {
        let (src, dst) = if (left / width).is_multiple_of(2) {
            (left, left + 1)
        } else {
            (left + 1, left)
        };
        connect(
            &mut sys,
            &topo,
            (src, 1),
            (dst, 1),
            Some((&[0, 2, 4, 6], &[1, 5])),
        );
        source(&mut sys, src, 1, ENDLESS);
        sinks.push(counting_sink(&mut sys, dst, 1));
    }
    (sys, sinks)
}

/// The pure-GT hotspot mesh: two endless GT streams on a 2x2 mesh
/// hammering one NI, NI 0 ch 1 → NI 2 ch 1 and NI 1 ch 1 → NI 2 ch 2, at
/// clock div 4 (6 words per rotation, exactly filling the 2 reserved slots
/// each). The sources' slot windows are ≥ 3 cycles apart, so despite their
/// routes' 1-cycle latency skew the shared router → NI 2 link never sees a
/// conflict. Returns the system and the sink handles.
pub fn pure_gt_hotspot() -> (NocSystem, Vec<usize>) {
    let spec = div4_mesh(2, 2, |id| if id == 2 { 2 } else { 1 });
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let mut sinks = Vec::new();
    for (src, dst_ch, fwd_slots, rev_slot) in [(0usize, 1usize, [0, 4], 1), (1, 2, [2, 6], 5)] {
        connect(
            &mut sys,
            &topo,
            (src, 1),
            (2, dst_ch),
            Some((&fwd_slots, &[rev_slot])),
        );
        source(&mut sys, src, 1, ENDLESS);
        sinks.push(counting_sink(&mut sys, 2, dst_ch));
    }
    (sys, sinks)
}

/// The 2x2 endless GT stream, the canonical fast-forwardable workload: NI 0
/// ch 1 → NI `dst` ch 1 with 4 forward and 2 reverse slots, at clock div 4,
/// into a [`CountingSink`], from a spec whose `fast_forward` flag is
/// `fast_forward`. `dst` 1 keeps the stream in the top row (one region of a
/// row split); `dst` 2 sends it across the cut into the bottom row.
pub fn gt_stream_2x2(dst: usize, fast_forward: bool) -> (NocSystem, Topology) {
    let spec = div4_mesh(2, 2, |_| 1).with_fast_forward(fast_forward);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    connect(
        &mut sys,
        &topo,
        (0, 1),
        (dst, 1),
        Some((&[0, 2, 4, 6], &[1, 5])),
    );
    source(&mut sys, 0, 1, ENDLESS);
    counting_sink(&mut sys, dst, 1);
    (sys, topo)
}

// ---- Busy shells -----------------------------------------------------------

/// The busy-shells spec: a 2x1 mesh, two NIs per router, with the
/// configuration module (2 connections) on NI 0, a master on NI 1, a
/// slave on NI 2 and a raw NI 3.
fn busy_spec() -> NocSpec {
    mesh(
        2,
        1,
        2,
        vec![
            presets::cfg_module_ni(0, 2),
            presets::master_ni(1),
            presets::slave_ni(2),
            presets::raw_ni(3, 1),
        ],
    )
}

/// Binds the busy-shells IPs: a seeded generator on NI 1 and a slow
/// (latency 20) memory on NI 2.
fn bind_busy_ips(sys: &mut NocSystem) {
    let traffic = TrafficGenerator::new(TrafficGeneratorConfig {
        seed: 3,
        addr_range: 0x40,
        mix: TrafficMix::Mixed { read_fraction: 0.5 },
        burst: (1, 3),
        ..TrafficGeneratorConfig::default()
    });
    sys.bind_master(1, 1, Box::new(traffic));
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(20)));
}

/// [`busy_spec`] with the busy-shells IPs bound and nothing opened: the
/// restore target of [`busy_warm_system`]'s snapshots.
pub fn busy_system() -> NocSystem {
    let mut sys = NocSystem::from_spec(&busy_spec());
    bind_busy_ips(&mut sys);
    sys
}

/// Busy shells: [`busy_system`] with its connection NI 1 → NI 2 open and
/// every shell mid-transaction — the generator's requests in flight to the
/// slow memory, and the configuration shell busy with reads of local and
/// remote registers.
pub fn busy_warm_system() -> NocSystem {
    let (mut sys, mut cfg) = configurable(&busy_spec(), 0);
    open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    bind_busy_ips(&mut sys);
    Engine::run(&mut sys, 200);
    let space = chan_reg_addr(1, ChanReg::Space);
    for (tid, ni) in [(901, 2), (902, 0), (903, 1)] {
        sys.nis[0].config_mut(0).submit(Transaction::read(
            aethereal_ni::shell::config::global_addr(ni, space),
            1,
            tid,
        ));
    }
    Engine::run(&mut sys, 3);
    assert!(!sys.nis[0].config_mut(0).is_idle(), "config shell busy");
    assert!(
        sys.nis[1].master_mut(1).outstanding() > 0,
        "requests in flight"
    );
    assert!(
        sys.nis[2].slave_mut(1).responses_owed() > 0,
        "responses owed"
    );
    sys
}

// ---- Best-effort stream systems ---------------------------------------------

/// One configured stream: sender NI (tx channel 1) → receiver NI / rx
/// channel.
struct Stream {
    /// Sending NI.
    src: usize,
    /// Receiving NI.
    dst: usize,
    /// Receiving channel at `dst`.
    rx_channel: usize,
}

/// A system of `spec` whose BE `streams` are configured **directly**
/// through the local register files, with two-level routes
/// (`Topology::route_any`) so any pair routes: an endless source per stream
/// and a [`CountingSink`] per receiving channel.
fn be_streams(spec: &NocSpec, streams: &[Stream]) -> (NocSystem, Topology) {
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(spec);
    for s in streams {
        connect(&mut sys, &topo, (s.src, 1), (s.dst, s.rx_channel), None);
        source(&mut sys, s.src, 1, ENDLESS);
        counting_sink(&mut sys, s.dst, s.rx_channel);
    }
    (sys, topo)
}

/// Traffic shape over the streaming mesh of [`stream_mesh`].
#[derive(Debug, Clone, Copy)]
pub enum MeshTraffic {
    /// Every NI streams down its column to the NI half the mesh height
    /// away (a permutation: one stream out and one in per NI). Every
    /// stream crosses every horizontal row-band cut.
    Uniform,
    /// A 2x2 block of center sinks, each fed by several senders from all
    /// quadrants: heavy contention around the center.
    Hotspot,
    /// Streams confined to the top two rows; the rest of the mesh is idle.
    BusyBand,
}

fn streams_for(width: usize, height: usize, traffic: MeshTraffic) -> Vec<Stream> {
    match traffic {
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
            // Senders: the block around the sinks, round-robined over the
            // sinks' rx channels.
            let (cx, cy) = (width / 2 - 1, height / 2 - 1);
            let sinks = [
                cy * width + cx,
                cy * width + cx + 1,
                (cy + 1) * width + cx,
                (cy + 1) * width + cx + 1,
            ];
            let mut streams = Vec::new();
            for y in cy.saturating_sub(2)..(cy + 4).min(height) {
                for x in cx.saturating_sub(2)..(cx + 4).min(width) {
                    let ni = y * width + x;
                    if sinks.contains(&ni) {
                        continue;
                    }
                    let j = streams.len();
                    streams.push(Stream {
                        src: ni,
                        dst: sinks[j % sinks.len()],
                        rx_channel: 2 + (j / sinks.len()),
                    });
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

/// The BE stream mesh: a `width × height` mesh, one raw NI per router with
/// as many channels as its streams need, running [`be_streams`] of
/// `traffic`.
pub fn stream_mesh(width: usize, height: usize, traffic: MeshTraffic) -> (NocSystem, Topology) {
    let streams = streams_for(width, height, traffic);
    // Channel needs per NI: ch1 = tx; rx channels 2.. as assigned.
    let mut channels = vec![1usize; width * height];
    for s in &streams {
        channels[s.dst] = channels[s.dst].max(s.rx_channel);
    }
    let spec = mesh_spec(width, height, 1, |id| presets::raw_ni(id, channels[id]));
    be_streams(&spec, &streams)
}

/// The perimeter-ring fixture: a `width × height` mesh of two-channel raw
/// NIs, one per router, whose perimeter routers each stream BE without end
/// on channel 1 to the router `hops` steps clockwise round the perimeter,
/// and receive on channel 2. The forward routes are poked hop by hop round
/// the perimeter; the credits return clockwise the rest of the way round
/// with `clockwise_credits`, over the XY route otherwise. With every
/// router on the perimeter (`width` or `height` at most 2) and `hops` half
/// of it, the worms close a cycle of channel dependencies (a wormhole
/// routing deadlock, Dally & Seitz 1987), and after a short start the
/// ring stops delivering for good.
pub fn perimeter_streams(
    width: usize,
    height: usize,
    hops: usize,
    clockwise_credits: bool,
) -> (NocSystem, Topology) {
    let spec = raw_mesh(width, height, 1, 2);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    // Clockwise: the top row, the right column, the bottom row backwards,
    // the left column upwards.
    let mut ring: Vec<usize> = (0..width).collect();
    ring.extend((1..height).map(|y| y * width + width - 1));
    ring.extend((0..width - 1).rev().map(|x| (height - 1) * width + x));
    ring.extend((1..height - 1).rev().map(|y| y * width));
    let n = ring.len();
    // The route from perimeter position `from` `len` steps clockwise.
    let clockwise = |from: usize, len: usize| {
        let mut path: Vec<u8> = (from..from + len)
            .map(|i| {
                let (a, b) = (ring[i % n], ring[(i + 1) % n]);
                match b as isize - a as isize {
                    1 => dir::EAST,
                    -1 => dir::WEST,
                    d if d > 0 => dir::SOUTH,
                    _ => dir::NORTH,
                }
            })
            .collect();
        path.push(dir::LOCAL0);
        Route::from_hops(&path).expect("perimeter routes fit")
    };
    for i in 0..n {
        let (src, dst) = (ring[i], ring[(i + hops) % n]);
        let credits = if clockwise_credits {
            clockwise(i + hops, n - hops)
        } else {
            topo.route_any(dst, src).expect("any pair routes")
        };
        poke(&mut sys, (src, 1), &clockwise(i, hops), 2, None, true);
        poke(&mut sys, (dst, 2), &credits, 1, None, true);
        source(&mut sys, src, 1, ENDLESS);
        counting_sink(&mut sys, dst, 2);
    }
    (sys, topo)
}
