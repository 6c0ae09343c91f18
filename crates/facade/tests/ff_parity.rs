//! Bit-identity of the analytical GT fast-forward backend.
//!
//! The fast-forward backend (`noc_sim::ff`) may only ever skip work it has
//! certified repetitive: enabling it must change *nothing observable* —
//! not a statistic, not a delivered word, not a cycle count — on any
//! workload. These tests pin that across the matrix: pure-GT streams
//! (uniform and hotspot), multi-segment gateway routes, bounded workloads
//! that decline, sharded execution (which never fast-forwards, sequential
//! or parallel, slack batch 1 and 16), randomized BE bursts interleaved
//! into GT streams, and a seeded corrupted-calendar mutation that must
//! *never* be extrapolated.
//!
//! Parity alone cannot tell a backend that certifies from one that
//! silently stopped certifying (ticking is always bit-identical), so every
//! deterministic scenario also pins its exact [`FfStats`] — the values the
//! backend produced when the certificate and the snapshot were still two
//! separate walks. And the certificate itself is held to the snapshot:
//! whatever the snapshot distinguishes, the digest distinguishes.

use aethereal::cfg::json::Value;
use aethereal::cfg::{NocSystem, ShardedSystem};
use aethereal::ni::kernel::{slot_reg_addr, NiKernelStats};
use aethereal::proto::ip::{ClockedWith, RawPort};
use aethereal::proto::{CountingSink, RawIp, StreamSink};
use aethereal::sim::shard::Partition;
use aethereal::sim::{FfStats, NocStats, StateVisit};
use aethereal_testkit::prelude::*;
use aethereal_testkit::{base_seed, Rng64};
use scenario::{
    configure, counting_sink, gateway_8x8, gt_stream_2x2, pure_gt_hotspot, pure_gt_uniform,
};

mod scenario;

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

/// Gateway (multi-segment) routes on an 8x8 mesh — the golden build
/// [`gateway_8x8`]: a bounded BE stream whose headers are rewritten in
/// flight. Fast-forward must decline throughout (BE words on the wires,
/// then a drained — quiescent-skippable — tail) and change nothing.
#[test]
fn gateway_routes_decline_but_stay_bit_identical() {
    let mut ff = gateway_8x8();
    let mut cc = gateway_8x8();
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

/// Fast-forward belongs to the unsplit system: a sharded run of
/// [`gt_stream_2x2`] never jumps, sequential or on worker threads, at batch
/// 1 and 16 — even from a spec that asks for fast-forward. Every run
/// matches the unsplit, ticked run.
fn assert_sharded_never_jumps(dst: usize) {
    const CYCLES: u64 = 50_000;
    let (mut reference, _) = gt_stream_2x2(dst, false);
    reference.run(CYCLES);
    let ref_kernels: Vec<_> = reference.nis.iter().map(|ni| *ni.kernel.stats()).collect();
    let r = reference.raw_ip_at::<CountingSink>(dst);
    let ref_sink = (r.count(), r.last());
    for parallel in [false, true] {
        for batch in [1u64, 16] {
            let at = format!("dst {dst}, parallel {parallel}, batch {batch}");
            let (sys, topo) = gt_stream_2x2(dst, true);
            let mut sharded = ShardedSystem::new(sys, &topo, &Partition::mesh_rows(2, 2, 2));
            sharded.set_batch(batch);
            if parallel {
                sharded.run_parallel(CYCLES);
            } else {
                sharded.run(CYCLES);
            }
            assert_eq!(sharded.ff_stats(), FfStats::default(), "{at}");
            assert_eq!(sharded.merged_noc_stats(), *reference.noc.stats(), "{at}");
            assert_eq!(sharded.kernel_stats(), ref_kernels, "{at}");
            let s = sharded.raw_ip_as::<CountingSink>(dst);
            assert_eq!((s.count(), s.last()), ref_sink, "{at}");
        }
    }
}

/// A stream inside the top region, the bottom region sleeping throughout:
/// neither the sequential nor the parallel runner jumps.
#[test]
fn sharded_parallel_never_fast_forwards_and_matches() {
    assert_sharded_never_jumps(1);
}

/// A stream crossing the shard cut into the bottom region.
#[test]
fn sharded_cross_region_stream_declines_fast_forward() {
    assert_sharded_never_jumps(2);
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

/// 2x2 mesh: the endless GT stream NI 0 → NI 1 of [`gt_stream_2x2`] in
/// the top row plus a BE channel NI 2 → NI 3 in the bottom row driven by a
/// scheduled [`BurstSource`].
fn gt_with_bursts(schedule: Vec<(u64, u32)>) -> (NocSystem, usize, usize) {
    let (mut sys, topo) = gt_stream_2x2(1, false);
    configure(&mut sys, &topo, (2, 1), (3, 1), None, true);
    configure(&mut sys, &topo, (3, 1), (2, 1), None, true);
    let burst = sys.bind_raw(2, 1, vec![1], Box::new(BurstSource::new(schedule)));
    let be_sink = counting_sink(&mut sys, 3, 1);
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
