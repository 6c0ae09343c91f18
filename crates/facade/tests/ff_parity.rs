//! Bit-identity of the analytical GT fast-forward backend.
//!
//! The fast-forward backend (`noc_sim::ff`) may only ever skip work it has
//! certified repetitive: enabling it must change *nothing observable* —
//! not a statistic, not a delivered word, not a cycle count — on any
//! workload. These tests pin that across the matrix: pure-GT streams
//! (uniform and hotspot), multi-segment gateway routes, bounded workloads
//! that decline, sharded execution (sequential and parallel, slack batch
//! 1 and 16), randomized BE bursts interleaved into GT streams, and a
//! seeded corrupted-calendar mutation that must *never* be extrapolated.
//!
//! Parity alone cannot tell a backend that certifies from one that
//! silently stopped certifying (ticking is always bit-identical), so every
//! deterministic scenario also pins its exact [`FfStats`] — the values the
//! backend produced when the certificate and the snapshot were still two
//! separate walks. And the certificate itself is held to the snapshot:
//! whatever the snapshot distinguishes, the digest distinguishes.

use aethereal::cfg::json::Value;
use aethereal::cfg::{presets, NocSpec, NocSystem, RegionsSpec, ShardedSystem, TopologySpec};
use aethereal::ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal::ni::kernel::{
    chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg, NiKernelStats,
};
use aethereal::proto::ip::{ClockedWith, RawPort};
use aethereal::proto::{CountingSink, RawIp, StreamSink, StreamSource};
use aethereal::sim::shard::Partition;
use aethereal::sim::{FfStats, NocStats, StateVisit, Topology};
use aethereal_testkit::prelude::*;
use aethereal_testkit::{base_seed, Rng64};

/// Everything compared between a fast-forwarded and a ticked execution.
#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    noc: NocStats,
    kernels: Vec<NiKernelStats>,
    /// `(count, last)` of every bound [`CountingSink`], in binding order.
    sinks: Vec<(u64, u32)>,
    gt_conflicts: u64,
    be_overflows: u64,
}

fn observe(sys: &NocSystem, sinks: &[usize]) -> Observed {
    Observed {
        cycle: sys.cycle(),
        noc: sys.noc.stats().clone(),
        kernels: sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        sinks: sinks
            .iter()
            .map(|&idx| {
                let s = sys.raw_ip_as::<CountingSink>(idx);
                (s.count(), s.last())
            })
            .collect(),
        gt_conflicts: sys.noc.gt_conflicts(),
        be_overflows: sys.noc.be_overflows(),
    }
}

/// Configures channel `ch` of NI `ni` as an enabled GT channel along
/// `path`, reserving `slots` of the NI's slot table.
fn gt_channel(sys: &mut NocSystem, ni: usize, ch: usize, path_rqid: u32, slots: &[usize]) {
    let k = &mut sys.nis[ni].kernel;
    k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT)
        .unwrap();
    k.reg_write(chan_reg_addr(ch, ChanReg::Space), 8).unwrap();
    k.reg_write(chan_reg_addr(ch, ChanReg::PathRqid), path_rqid)
        .unwrap();
    for &s in slots {
        k.reg_write(slot_reg_addr(s), ch as u32 + 1).unwrap();
    }
}

/// Disjoint endless GT stream pairs between the horizontally adjacent NIs
/// of every row of a `width × height` mesh, direction alternating row by
/// row (on 2x2: NI 0 → NI 1 and NI 3 → NI 2), raw ports at clock div 4 so
/// production (6 words per 24-cycle rotation) never outruns the 4 reserved
/// forward slots. Returns the system and the sink handles.
fn pure_gt_uniform(width: usize, height: usize) -> (NocSystem, Vec<usize>) {
    let mut spec = NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router: 1,
        },
        (0..width * height)
            .map(|id| presets::raw_ni(id, 1))
            .collect(),
    );
    for ni in &mut spec.nis {
        ni.kernel.ports[1].clock_div = 4;
    }
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    let mut sinks = Vec::new();
    for left in (0..width * height).step_by(2) {
        let (src, dst) = if (left / width).is_multiple_of(2) {
            (left, left + 1)
        } else {
            (left + 1, left)
        };
        let fwd = topo.route(src, dst).unwrap();
        let rev = topo.route(dst, src).unwrap();
        gt_channel(&mut sys, src, 1, pack_path_rqid(&fwd, 1), &[0, 2, 4, 6]);
        gt_channel(&mut sys, dst, 1, pack_path_rqid(&rev, 1), &[1, 5]);
        sys.bind_raw(src, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
        sinks.push(sys.bind_raw(dst, 1, vec![1], Box::new(CountingSink::new())));
    }
    (sys, sinks)
}

/// Two endless GT streams hammering one NI: NI 0 ch 1 → NI 2 ch 1 and
/// NI 1 ch 1 → NI 2 ch 2, raw ports at clock div 4 (6 words per rotation,
/// exactly filling the 2 reserved slots each). The sources' slot windows
/// are ≥ 3 cycles apart, so despite their routes' 1-cycle latency skew
/// the shared router → NI 2 link never sees a conflict.
fn pure_gt_hotspot() -> (NocSystem, Vec<usize>) {
    let mut nis = vec![
        presets::raw_ni(0, 1),
        presets::raw_ni(1, 1),
        presets::raw_ni(2, 2),
        presets::raw_ni(3, 1),
    ];
    for ni in &mut nis {
        ni.kernel.ports[1].clock_div = 4;
    }
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 2,
            nis_per_router: 1,
        },
        nis,
    );
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    let mut sinks = Vec::new();
    for (src, dst_ch, fwd_slots, rev_slot) in
        [(0usize, 1usize, [0usize, 4], 1usize), (1, 2, [2, 6], 5)]
    {
        let fwd = topo.route(src, 2).unwrap();
        let rev = topo.route(2, src).unwrap();
        gt_channel(
            &mut sys,
            src,
            1,
            pack_path_rqid(&fwd, dst_ch as u8),
            &fwd_slots,
        );
        gt_channel(&mut sys, 2, dst_ch, pack_path_rqid(&rev, 1), &[rev_slot]);
        sys.bind_raw(src, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
        sinks.push(sys.bind_raw(2, 1, vec![dst_ch], Box::new(CountingSink::new())));
    }
    (sys, sinks)
}

/// Runs the same builder twice — fast-forward on and off — and demands
/// bit-identical observations. Returns the fast-forwarded system for
/// jump-count assertions.
fn parity(build: impl Fn() -> (NocSystem, Vec<usize>), horizon: u64) -> NocSystem {
    let (mut ff, sinks) = build();
    let (mut cc, _) = build();
    ff.set_fast_forward(true);
    ff.run(horizon);
    cc.run(horizon);
    assert_eq!(observe(&ff, &sinks), observe(&cc, &sinks));
    ff
}

/// One certified jump over `cycles_jumped` cycles.
fn one_jump(cycles_jumped: u64) -> FfStats {
    FfStats {
        jumps: 1,
        cycles_jumped,
    }
}

#[test]
fn pure_gt_uniform_is_bit_identical_and_jumps() {
    let ff = parity(|| pure_gt_uniform(2, 2), 50_000);
    assert_eq!(
        ff.ff_stats(),
        one_jump(49_632),
        "steady uniform streams certify after the 8-rotation warm-up"
    );
    assert_eq!(ff.noc.gt_conflicts(), 0);
    let sink = ff.raw_ip_at::<CountingSink>(1);
    assert!(sink.count() > 10_000, "the stream actually flowed");
    // All 128 pairs of a 16x16 mesh — the shape the benchmark's `gt16_ff`
    // workload times — certify after the same warm-up.
    let ff = parity(|| pure_gt_uniform(16, 16), 2_000);
    assert_eq!(ff.ff_stats(), one_jump(1_632), "16x16 certifies");
    assert_eq!(ff.noc.gt_conflicts(), 0);
}

#[test]
fn pure_gt_hotspot_is_bit_identical_and_jumps() {
    let ff = parity(pure_gt_hotspot, 50_000);
    assert_eq!(ff.ff_stats(), one_jump(49_632), "hotspot streams certify");
    assert_eq!(ff.noc.gt_conflicts(), 0, "slot windows stay disjoint");
}

/// Gateway (multi-segment) routes on an 8x8 mesh: bounded BE streams whose
/// headers are rewritten in flight. Fast-forward must decline throughout
/// (BE words on the wires, then a drained — quiescent-skippable — tail)
/// and change nothing.
#[test]
fn gateway_routes_decline_but_stay_bit_identical() {
    let build = || {
        let nis: Vec<_> = (0..64).map(|id| presets::raw_ni(id, 2)).collect();
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 8,
                height: 8,
                nis_per_router: 1,
            },
            nis,
        )
        .with_regions(RegionsSpec {
            router_regions: (0..64).map(|r| usize::from(r >= 32)).collect(),
            gateways: vec![7, 39],
        });
        let topo = spec.build_topology();
        let mut sys = NocSystem::from_spec(&spec);
        let fwd = topo.route_any(0, 63).expect("route exists");
        let rev = topo.route_any(63, 0).expect("route exists");
        assert!(!fwd.is_single(), "the stream must exercise gateways");
        for (ni, route, rqid, ch) in [(0usize, &fwd, 2u8, 1usize), (63, &rev, 1, 2)] {
            let k = &mut sys.nis[ni].kernel;
            k.reg_write(chan_reg_addr(ch, ChanReg::Space), 8).unwrap();
            k.reg_write(
                chan_reg_addr(ch, ChanReg::PathRqid),
                pack_path_rqid(route.header_segment(), rqid),
            )
            .unwrap();
            for (i, w) in route.continuation_words().enumerate() {
                k.reg_write(ext_reg_addr(ch, i), w).unwrap();
            }
            k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE)
                .unwrap();
        }
        sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(200)));
        sys.bind_raw(63, 1, vec![2], Box::new(StreamSink::new()));
        sys
    };
    let mut ff = build();
    let mut cc = build();
    ff.set_fast_forward(true);
    ff.run(8_000);
    cc.run(8_000);
    assert_eq!(ff.noc.stats(), cc.noc.stats());
    assert_eq!(
        ff.raw_ip_at::<StreamSink>(63).received(),
        cc.raw_ip_at::<StreamSink>(63).received()
    );
    assert_eq!(ff.raw_ip_at::<StreamSink>(63).received().len(), 200);
    assert_eq!(
        ff.ff_stats(),
        FfStats::default(),
        "BE gateway traffic never certifies"
    );
}

// ---- Sharded execution --------------------------------------------------

/// One endless local GT stream in region 0 (NI 0 → NI 1, routers of the
/// top row) while region 1 (bottom row) is completely idle: the canonical
/// sole-awake-region shape the shard runner offers fast-forward to.
fn sharded_local_stream() -> (NocSystem, Topology) {
    let mut spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 2,
            nis_per_router: 1,
        },
        (0..4).map(|id| presets::raw_ni(id, 1)).collect(),
    );
    for ni in &mut spec.nis {
        ni.kernel.ports[1].clock_div = 4;
    }
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    let fwd = topo.route(0, 1).unwrap();
    let rev = topo.route(1, 0).unwrap();
    gt_channel(&mut sys, 0, 1, pack_path_rqid(&fwd, 1), &[0, 2, 4, 6]);
    gt_channel(&mut sys, 1, 1, pack_path_rqid(&rev, 1), &[1, 5]);
    sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    sys.bind_raw(1, 1, vec![1], Box::new(CountingSink::new()));
    (sys, topo)
}

fn sharded_ff_run(batch: u64, parallel: bool) -> (ShardedSystem, FfStats) {
    let (sys, topo) = sharded_local_stream();
    let partition = Partition::mesh_rows(2, 2, 2);
    let mut sharded = ShardedSystem::new(sys, &topo, &partition).with_batch(batch);
    sharded.set_fast_forward(true);
    if parallel {
        sharded.run_parallel(50_000);
    } else {
        sharded.run(50_000);
    }
    let stats = sharded.ff_stats();
    (sharded, stats)
}

#[test]
fn sharded_sole_awake_region_fast_forwards_bit_identically() {
    // Reference: the unsplit system, cycle-accurate.
    let (mut reference, _) = sharded_local_stream();
    reference.run(50_000);
    let ref_noc = reference.noc.stats().clone();
    let ref_kernels: Vec<_> = reference.nis.iter().map(|ni| *ni.kernel.stats()).collect();
    let ref_sink = {
        let s = reference.raw_ip_at::<CountingSink>(1);
        (s.count(), s.last())
    };
    for batch in [1u64, 16] {
        let (sharded, stats) = sharded_ff_run(batch, false);
        assert_eq!(sharded.merged_noc_stats(), ref_noc, "batch {batch}");
        assert_eq!(sharded.kernel_stats(), ref_kernels, "batch {batch}");
        let s = sharded.raw_ip_as::<CountingSink>(1);
        assert_eq!((s.count(), s.last()), ref_sink, "batch {batch}");
        assert_eq!(
            stats,
            one_jump(49_680),
            "sole-awake region must fast-forward (batch {batch})"
        );
    }
}

#[test]
fn sharded_parallel_never_fast_forwards_and_matches() {
    let (mut reference, _) = sharded_local_stream();
    reference.run(50_000);
    for batch in [1u64, 16] {
        let (sharded, stats) = sharded_ff_run(batch, true);
        assert_eq!(
            stats,
            FfStats::default(),
            "parallel workers must not offer fast-forward"
        );
        assert_eq!(
            sharded.merged_noc_stats(),
            *reference.noc.stats(),
            "batch {batch}"
        );
        let s = sharded.raw_ip_as::<CountingSink>(1);
        let r = reference.raw_ip_at::<CountingSink>(1);
        assert_eq!((s.count(), s.last()), (r.count(), r.last()));
    }
}

/// "Monolithic is the one-region case": a [`Partition::single`] sharded
/// system is driven by the same `Engine::run_ff` loop, offer and cool-down
/// as the unsplit system, so it fast-forwards at the same cycles — not
/// merely to the same result.
#[test]
fn one_region_sharded_system_is_the_monolithic_case() {
    let (mut mono, sinks) = pure_gt_hotspot();
    mono.set_fast_forward(true);
    mono.run(50_000);
    let (sys, _) = pure_gt_hotspot();
    let topo = Topology::mesh(2, 2, 1);
    let mut sharded = ShardedSystem::new(sys, &topo, &Partition::single(4));
    sharded.set_fast_forward(true);
    sharded.run(50_000);
    assert_eq!(sharded.ff_stats(), mono.ff_stats());
    assert_eq!(sharded.merged_noc_stats(), *mono.noc.stats());
    for (ch, &idx) in sinks.iter().enumerate() {
        // One region keeps every binding, in order: the handles carry over.
        let m = mono.raw_ip_as::<CountingSink>(idx);
        let s = sharded.region(0).raw_ip_as::<CountingSink>(idx);
        assert_eq!((s.count(), s.last()), (m.count(), m.last()), "sink {ch}");
    }
}

/// An endless GT stream *crossing* the shard cut: even when the sink's
/// region sleeps and the source's region is sole-awake, the routes-local
/// gate must refuse to probe (the probe would tick words into the
/// boundary outside the exchange). Parity is still exact.
#[test]
fn sharded_cross_region_stream_declines_fast_forward() {
    let build = || {
        let mut spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 2,
                nis_per_router: 1,
            },
            (0..4).map(|id| presets::raw_ni(id, 1)).collect(),
        );
        for ni in &mut spec.nis {
            ni.kernel.ports[1].clock_div = 4;
        }
        let topo = spec.topology.build();
        let mut sys = NocSystem::from_spec(&spec);
        let fwd = topo.route(0, 2).unwrap(); // top row → bottom row
        let rev = topo.route(2, 0).unwrap();
        gt_channel(&mut sys, 0, 1, pack_path_rqid(&fwd, 1), &[0, 2, 4, 6]);
        gt_channel(&mut sys, 2, 1, pack_path_rqid(&rev, 1), &[1, 5]);
        sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
        sys.bind_raw(2, 1, vec![1], Box::new(CountingSink::new()));
        (sys, topo)
    };
    let (mut reference, _) = build();
    reference.run(20_000);
    let (sys, topo) = build();
    let partition = Partition::mesh_rows(2, 2, 2);
    let mut sharded = ShardedSystem::new(sys, &topo, &partition);
    sharded.set_fast_forward(true);
    sharded.run(20_000);
    assert_eq!(
        sharded.ff_stats(),
        FfStats::default(),
        "cross-cut routes must never be extrapolated"
    );
    assert_eq!(sharded.merged_noc_stats(), *reference.noc.stats());
    let s = sharded.raw_ip_as::<CountingSink>(2);
    let r = reference.raw_ip_at::<CountingSink>(2);
    assert_eq!((s.count(), s.last()), (r.count(), r.last()));
}

// ---- BE bursts into GT streams (property) -------------------------------

/// A raw IP injecting scheduled bursts of BE words: each `(start, len)`
/// entry pushes `len` words (one per port tick) starting at base cycle
/// `start`. Its fast-forward classification follows the [`RawIp::ff_visit`]
/// contract: while any burst is still pending the IP's behavior depends on
/// absolute time beyond its visited state, so it **rejects**; once the
/// schedule is exhausted only the produced count remains.
#[derive(Debug)]
struct BurstSource {
    /// `(start_cycle, words)`, sorted by start.
    schedule: Vec<(u64, u32)>,
    cur: usize,
    sent_in_cur: u32,
    produced: u64,
}

impl BurstSource {
    fn new(schedule: Vec<(u64, u32)>) -> Self {
        BurstSource {
            schedule,
            cur: 0,
            sent_in_cur: 0,
            produced: 0,
        }
    }

    fn finished(&self) -> bool {
        self.cur >= self.schedule.len()
    }
}

impl<'a> ClockedWith<RawPort<'a>> for BurstSource {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        let Some(&(start, len)) = self.schedule.get(self.cur) else {
            return;
        };
        if now < start {
            return;
        }
        let ch = port.channels[0];
        if port.kernel.src_space(ch) > 0 {
            port.kernel
                .push_src(ch, 0xB000_0000 | self.produced as u32, now)
                .expect("space checked");
            self.produced += 1;
            self.sent_in_cur += 1;
            if self.sent_in_cur >= len {
                self.cur += 1;
                self.sent_in_cur = 0;
            }
        }
    }
}

impl RawIp for BurstSource {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn done(&self) -> bool {
        self.finished()
    }

    fn idle_until(&self, now: u64) -> u64 {
        match self.schedule.get(self.cur) {
            Some(&(start, _)) => start.max(now),
            None => u64::MAX,
        }
    }

    fn ff_visit(&mut self, v: &mut dyn StateVisit) {
        if self.finished() {
            v.item(&mut (self.cur as u64));
            v.counter(&mut self.produced);
        } else {
            v.reject();
        }
    }
}

/// 2x2 mesh: the endless local GT stream of [`sharded_local_stream`] in
/// the top row plus a BE channel NI 2 → NI 3 in the bottom row driven by a
/// scheduled [`BurstSource`].
fn gt_with_bursts(schedule: Vec<(u64, u32)>) -> (NocSystem, usize, usize) {
    let (mut sys, topo) = sharded_local_stream();
    let fwd = topo.route(2, 3).unwrap();
    let rev = topo.route(3, 2).unwrap();
    for (ni, path) in [(2usize, &fwd), (3, &rev)] {
        let k = &mut sys.nis[ni].kernel;
        k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE)
            .unwrap();
        k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
        k.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(path, 1))
            .unwrap();
    }
    let burst = sys.bind_raw(2, 1, vec![1], Box::new(BurstSource::new(schedule)));
    let be_sink = sys.bind_raw(3, 1, vec![1], Box::new(CountingSink::new()));
    (sys, burst, be_sink)
}

/// Deterministic re-entry check: one early BE burst, then a long pure-GT
/// tail. Fast-forward must stay off through the burst (the burst source
/// rejects while pending, BE words veto eligibility while in flight) and
/// re-engage on the drained tail — bit-identically.
#[test]
fn ff_reenters_after_be_burst_drains() {
    let schedule = vec![(500u64, 20u32)];
    let (mut ff, _, ff_sink) = gt_with_bursts(schedule.clone());
    let (mut cc, _, _) = gt_with_bursts(schedule);
    ff.set_fast_forward(true);
    ff.run(40_000);
    cc.run(40_000);
    assert_eq!(observe(&ff, &[ff_sink]), observe(&cc, &[ff_sink]));
    assert_eq!(
        ff.ff_stats(),
        one_jump(39_168),
        "fast-forward must re-enter once the burst drains"
    );
    let be = ff.raw_ip_as::<CountingSink>(ff_sink);
    assert_eq!(be.count(), 20, "no burst word skipped");
}

proptest! {
    /// Random burst schedules, random checkpoint chunking: a fast-forwarded
    /// run must match the ticked run at *every* checkpoint — fast-forward
    /// never skips past the first non-trivial event, and re-enters
    /// bit-identically after each burst drains.
    #[test]
    fn ff_checkpoints_bit_identical_under_be_bursts(
        bursts in prop::collection::vec((0u64..6_000, 1u32..12), 1..4),
        chunks in prop::collection::vec(100u64..2_500, 4..9),
    ) {
        let mut schedule = bursts;
        schedule.sort_unstable();
        let total_words: u64 = schedule.iter().map(|&(_, w)| u64::from(w)).sum();
        let (mut ff, _, sink) = gt_with_bursts(schedule.clone());
        let (mut cc, _, _) = gt_with_bursts(schedule);
        ff.set_fast_forward(true);
        for &chunk in &chunks {
            ff.run(chunk);
            cc.run(chunk);
            prop_assert_eq!(observe(&ff, &[sink]), observe(&cc, &[sink]));
        }
        // Long drain tail: every burst word must land, exactly once.
        ff.run(20_000);
        cc.run(20_000);
        prop_assert_eq!(observe(&ff, &[sink]), observe(&cc, &[sink]));
        prop_assert_eq!(ff.raw_ip_as::<CountingSink>(sink).count(), total_words);
    }
}

// ---- Corrupted calendar (mutation check) --------------------------------

/// Seeded mutation: corrupt the hotspot system's slot tables so both
/// sources claim overlapping wire windows on the shared router → NI 2
/// link. The resulting GT contention violations recur every rotation; the
/// fast-forward probe sees the violation counters grow and must refuse to
/// extrapolate — a broken schedule stays observable at its true cycles,
/// bit-identically to the ticked run.
#[test]
fn corrupted_calendar_is_never_fast_forwarded() {
    let mut rng = Rng64::seed_from_u64(base_seed("corrupted_calendar_is_never_fast_forwarded"));
    // A stream injected in slot `s` occupies slot `(s + h) mod S` after
    // hop `h`, and NI 1's route to NI 2 is one hop longer than NI 0's —
    // so moving one of NI 1's slots to `s0 - 1` (for a seeded-random one
    // of NI 0's slots `s0`) makes both claim the same slot on the shared
    // router → NI 2 link.
    let colliding = ([0usize, 4][rng.below_usize(2)] + 7) % 8;
    let moved = [2usize, 6][rng.below_usize(2)];
    let corrupt = |(mut sys, sinks): (NocSystem, Vec<usize>)| {
        let k = &mut sys.nis[1].kernel;
        k.reg_write(slot_reg_addr(moved), 0).unwrap();
        k.reg_write(slot_reg_addr(colliding), 2).unwrap();
        (sys, sinks)
    };
    let (mut ff, sinks) = corrupt(pure_gt_hotspot());
    let (mut cc, _) = corrupt(pure_gt_hotspot());
    ff.set_fast_forward(true);
    ff.run(50_000);
    cc.run(50_000);
    assert!(
        ff.noc.gt_conflicts() > 0,
        "the mutation must actually collide (slots {colliding}/{moved})"
    );
    assert_eq!(
        ff.ff_stats(),
        FfStats::default(),
        "a violating calendar must never be extrapolated"
    );
    assert_eq!(observe(&ff, &sinks), observe(&cc, &sinks));
}

// ---- The certificate covers the snapshot --------------------------------

/// The numeric leaves of the per-component state streams of a system
/// snapshot (`noc`, `nis`, `raws` — everything the state walk produced; the
/// envelope's own fields are not state of the walk), in document order.
fn stream_leaves(snap: &mut Value) -> Vec<&mut u64> {
    fn collect<'a>(v: &'a mut Value, out: &mut Vec<&'a mut u64>) {
        match v {
            Value::Num(n) => out.push(n),
            Value::Arr(items) => items.iter_mut().for_each(|i| collect(i, out)),
            _ => {}
        }
    }
    let Value::Obj(m) = snap else {
        panic!("snapshot envelope is an object");
    };
    let mut out = Vec::new();
    for (key, v) in m.iter_mut() {
        if matches!(key.as_str(), "noc" | "nis" | "raws") {
            collect(v, &mut out);
        }
    }
    out
}

/// Whatever the snapshot distinguishes, the digest distinguishes: the
/// periodicity certificate is derived from the same walk as the snapshot,
/// so no field the snapshot carries can sit outside it (extrapolated as
/// frozen without ever being compared). On a warm pure-GT system every
/// stream leaf is rewritten in turn; wherever restore accepts the rewrite
/// — the state is a valid, different one — the restored system's digest
/// must differ from the original's.
#[test]
fn digest_distinguishes_whatever_the_snapshot_distinguishes() {
    let (mut sys, _) = pure_gt_uniform(2, 2);
    sys.run(1_000);
    let mut snap = sys.snapshot().expect("snapshot");
    let original = {
        let (mut twin, _) = pure_gt_uniform(2, 2);
        twin.restore(&snap).expect("restore");
        twin.ff_digest()
    };
    assert!(!original.rejected(), "the subject is fast-forward material");
    assert_eq!(original, sys.ff_digest(), "equal states, equal digests");
    let leaves = stream_leaves(&mut snap).len();
    assert!(leaves > 500, "snapshot unexpectedly shallow: {leaves}");
    let mut accepted = 0;
    for target in 0..leaves {
        for flip in [1u64, 2] {
            let mut mutated = snap.clone();
            *stream_leaves(&mut mutated)[target] ^= flip;
            let (mut twin, _) = pure_gt_uniform(2, 2);
            if twin.restore(&mutated).is_ok() {
                accepted += 1;
                assert!(
                    twin.ff_digest() != original,
                    "leaf {target} ^ {flip} restores to a state the digest cannot tell apart"
                );
            }
        }
    }
    assert!(
        accepted > leaves,
        "most rewrites are valid states ({accepted} of {leaves} x 2)"
    );
}
