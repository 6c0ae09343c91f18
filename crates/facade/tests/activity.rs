//! Activity-proportional cycles: sleeping routers, links and NIs must be
//! invisible.
//!
//! `Noc::emit`/`absorb` visit only routers, wires and NI links with work,
//! `Ni::tick` returns early while the NI is dormant, and `NocSystem` does
//! not tick an inert NI at all, nor an idle IP bound to one. The state
//! behind those early-outs is
//! *derived* — invalidated by mutation (the kernel) or by `&mut` access
//! (the containers), never serialised — so none of it may ever show:
//!
//! * **time-shift invariance** — the same traffic injected after a longer
//!   sleep produces the same timeline, shifted, and the same counters up
//!   to the slept span's arithmetic terms;
//! * **every wake path** — poking a long-asleep component through each
//!   public mutation path has its effect on exactly the cycle it has on a
//!   twin that never slept (kept awake by snapshotting it every cycle: the
//!   persistence walk resets all derived state to "everything awake");
//! * **gated IPs** — IPs ticked only while their NI can act or their own
//!   horizon has come match, cycle for cycle, a twin whose every IP
//!   reports itself active;
//! * **derived, not carried** — a snapshot taken while components sleep
//!   restores into a fresh twin that continues byte-identically, and
//!   taking it changes nothing about the donor's future.
//!
//! Whether components actually *do* sleep is asserted next to the state
//! itself (unit tests in `noc-sim`, `aethereal-ni` and `aethereal-cfg`) and
//! measured by the benchmark; every debug build additionally asserts
//! coherence on each early-out, so the whole tier-1 matrix exercises the
//! invariant.

use aethereal::cfg::json;
use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest};
use aethereal::cfg::{presets, NocSpec, NocSystem, RuntimeConfigurator, TopologySpec};
use aethereal::ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal::ni::kernel::{
    chan_reg_addr, ext_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg, NiKernelStats,
};
use aethereal::ni::transaction::Transaction;
use aethereal::proto::ip::RawPort;
use aethereal::proto::{
    CountingSink, MasterIp, MemorySlave, PixelStage, RawIp, SlaveIp, StreamSink, StreamSource,
    Trace, TraceEntry, TraceMaster, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::{
    ClockedWith, LinkWord, NocStats, PacketHeader, StateVisit, Topology, WordClass, SLOT_WORDS,
};

const STU_SLOTS: u64 = 8;

/// A `width x height` mesh of raw streaming NIs with `channels` data
/// channels each (channel 0 is the CNIP).
fn raw_mesh(width: usize, height: usize, nis_per_router: usize, channels: usize) -> NocSpec {
    NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router,
        },
        (0..width * height * nis_per_router)
            .map(|id| presets::raw_ni(id, channels))
            .collect(),
    )
}

/// Configures channel `ch` of NI `ni` toward `(peer, peer_ch)` directly
/// through the register file, leaving it enabled unless `enable` is false.
fn configure(
    sys: &mut NocSystem,
    topo: &Topology,
    (ni, ch): (usize, usize),
    (peer, peer_ch): (usize, usize),
    gt: bool,
    enable: bool,
) {
    let route = topo.route_any(ni, peer).expect("any pair routes");
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
    if enable {
        k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), ctrl(gt))
            .expect("ctrl");
    }
}

fn ctrl(gt: bool) -> u32 {
    CTRL_ENABLE | if gt { CTRL_GT } else { 0 }
}

/// A bidirectional channel pair `src.1 → dst.2` (data) / `dst.2 → src.1`
/// (credits), GT with the given injection slots or BE.
fn connect(
    sys: &mut NocSystem,
    topo: &Topology,
    src: usize,
    dst: usize,
    gt_slots: Option<(&[usize], &[usize])>,
) {
    configure(sys, topo, (src, 1), (dst, 2), gt_slots.is_some(), true);
    configure(sys, topo, (dst, 2), (src, 1), gt_slots.is_some(), true);
    if let Some((fwd, rev)) = gt_slots {
        for &s in fwd {
            sys.nis[src]
                .kernel
                .reg_write(slot_reg_addr(s), 2)
                .expect("slot");
        }
        for &s in rev {
            sys.nis[dst]
                .kernel
                .reg_write(slot_reg_addr(s), 3)
                .expect("slot");
        }
    }
}

/// Everything observable without waking anything: network counters, every
/// kernel's counters, and per channel the flow-control registers and queue
/// levels, plus each NI's undrained inbox.
type Fingerprint = (
    NocStats,
    Vec<NiKernelStats>,
    Vec<(u32, u32, usize, usize)>,
    Vec<usize>,
);

fn fingerprint(sys: &NocSystem) -> Fingerprint {
    let mut channels = Vec::new();
    for ni in &sys.nis {
        for ch in 0..ni.kernel.channel_count() {
            let c = ni.kernel.channel(ch);
            channels.push((c.space(), c.credits_pending(), c.src_level(), c.dst_level()));
        }
    }
    (
        sys.noc.stats().clone(),
        sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        channels,
        (0..sys.nis.len())
            .map(|i| sys.noc.ni_link(i).pending())
            .collect(),
    )
}

/// Asserts equal fingerprints, naming the first differing part (the whole
/// tuple would print every link of the mesh).
fn assert_same(a: &NocSystem, b: &NocSystem, when: &str) {
    let (a, b) = (fingerprint(a), fingerprint(b));
    assert!(
        a.0.cycles == b.0.cycles
            && a.0.gt_conflicts == b.0.gt_conflicts
            && a.0.be_overflows == b.0.be_overflows
            && a.0.delivered == b.0.delivered,
        "{when}: NocStats scalars differ"
    );
    for (l, (x, y)) in a.0.links.iter().zip(&b.0.links).enumerate() {
        assert_eq!(x, y, "{when}: LinkStats of link {l}");
    }
    for (ni, (x, y)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(x, y, "{when}: kernel stats of NI {ni}");
    }
    for (i, (x, y)) in a.2.iter().zip(&b.2).enumerate() {
        assert_eq!(x, y, "{when}: (space, credits, src, dst) of channel #{i}");
    }
    assert_eq!(a.3, b.3, "{when}: NI inboxes");
}

fn snapshot_text(sys: &mut NocSystem) -> String {
    json::to_string_compact(&sys.snapshot().expect("snapshot"))
}

// ---- (a) Time-shift invariance ---------------------------------------------

/// 8x8 with two NIs per router: one BE pair over a two-segment route and
/// one GT pair owning slots in both directions.
const BE: (usize, usize) = (3, 120);
const GT: (usize, usize) = (10, 77);

fn shift_system() -> NocSystem {
    let spec = raw_mesh(8, 8, 2, 2);
    let topo = spec.topology.build();
    let mut sys = NocSystem::from_spec(&spec);
    assert!(
        !topo.route_any(BE.0, BE.1).expect("routes").is_single(),
        "the BE pair exercises gateway rewrites"
    );
    connect(&mut sys, &topo, BE.0, BE.1, None);
    connect(&mut sys, &topo, GT.0, GT.1, Some((&[0, 4], &[2, 6])));
    sys
}

/// Sleeps until `t0` (by ticking, or through `run`'s whole-fabric skip),
/// then plays a fixed burst pattern into both senders while draining both
/// receivers, ticking `span` cycles. Returns the deliveries as
/// `(cycle - t0, NI, word)` and the end state.
fn play(t0: u64, span: u64, sleep_by_run: bool) -> (Vec<(u64, usize, u32)>, NocSystem) {
    let mut sys = shift_system();
    if sleep_by_run {
        sys.run(t0);
    } else {
        for _ in 0..t0 {
            sys.tick();
        }
    }
    assert_eq!(sys.cycle(), t0);
    let mut deliveries = Vec::new();
    let mut sent = 0u32;
    for rel in 0..span {
        let now = sys.cycle();
        // Bursts of four words every 97 cycles on the BE pair and three
        // every 61 on the GT pair, with a long pause in the middle so both
        // ends fall asleep again and are woken a second time.
        let pause = (400..1_400).contains(&rel);
        for (src, period, burst) in [(BE.0, 97, 4), (GT.0, 61, 3)] {
            if !pause && rel % period < burst && sys.nis[src].kernel.src_space(1) > 0 {
                sys.nis[src]
                    .kernel
                    .push_src(1, sent, now)
                    .expect("space checked");
                sent += 1;
            }
        }
        for dst in [BE.1, GT.1] {
            if let Some(w) = sys.nis[dst].kernel.pop_dst(2, now) {
                deliveries.push((rel, dst, w));
            }
        }
        sys.tick();
    }
    (deliveries, sys)
}

#[test]
fn traffic_after_a_longer_sleep_is_the_same_timeline_shifted() {
    let (t0, span) = (1_003, 2_000);
    let k = 37;
    let shift = k * SLOT_WORDS * STU_SLOTS;
    let (base_deliveries, base) = play(t0, span, false);
    assert!(
        base_deliveries.iter().filter(|d| d.1 == BE.1).count() > 30
            && base_deliveries.iter().filter(|d| d.1 == GT.1).count() > 30,
        "both pairs delivered"
    );
    let owned = |ni: usize| -> u64 {
        base.nis[ni]
            .kernel
            .slot_table()
            .iter()
            .filter(|&&s| s != 0)
            .count() as u64
    };
    for sleep_by_run in [false, true] {
        let (deliveries, late) = play(t0 + shift, span, sleep_by_run);
        assert_eq!(
            deliveries, base_deliveries,
            "delivery cycles shift by exactly the extra sleep (run: {sleep_by_run})"
        );
        // Counters: only the slept span's arithmetic terms differ — elapsed
        // cycles, and one unused reserved slot per owned slot per rotation.
        let mut noc = late.noc.stats().clone();
        assert_eq!(noc.cycles, base.noc.stats().cycles + shift);
        noc.cycles -= shift;
        assert_eq!(noc, *base.noc.stats(), "NocStats incl. every LinkStats");
        for (ni, (l, b)) in late.nis.iter().zip(&base.nis).enumerate() {
            let mut stats = *l.kernel.stats();
            assert_eq!(
                stats.gt_slots_unused,
                b.kernel.stats().gt_slots_unused + k * owned(ni),
                "NI {ni}"
            );
            stats.gt_slots_unused = b.kernel.stats().gt_slots_unused;
            assert_eq!(stats, *b.kernel.stats(), "NI {ni}");
        }
    }
}

// ---- (b) Every wake path ---------------------------------------------------

/// Runs `sleepy` and `awake` in lockstep for `cycles`, applying `poke` to
/// both before each cycle. `awake` is snapshotted every cycle, which resets
/// all its derived sleep state — it never takes an early-out — so any
/// effect that lands a cycle late (or never) on `sleepy` shows up as a
/// fingerprint mismatch on that very cycle.
fn lockstep(
    sleepy: &mut NocSystem,
    awake: &mut NocSystem,
    cycles: u64,
    mut poke: impl FnMut(&mut NocSystem, u64),
) {
    for _ in 0..cycles {
        let cycle = sleepy.cycle();
        assert_eq!(awake.cycle(), cycle);
        poke(sleepy, cycle);
        poke(awake, cycle);
        awake.snapshot().expect("snapshot");
        sleepy.tick();
        awake.tick();
        assert_same(sleepy, awake, &format!("after cycle {cycle}"));
    }
}

/// Two 4x4 raw meshes with a BE pair 1 → 14 and a GT pair 4 → 11, slept
/// for `sleep` cycles: `sleepy` by ticking (every component dormant), its
/// twin kept awake throughout.
fn poke_pair(sleep: u64, setup: impl Fn(&mut NocSystem, &Topology)) -> (NocSystem, NocSystem) {
    let build = || {
        let spec = raw_mesh(4, 4, 1, 2);
        let topo = spec.topology.build();
        let mut sys = NocSystem::from_spec(&spec);
        connect(&mut sys, &topo, 1, 14, None);
        connect(&mut sys, &topo, 4, 11, Some((&[1, 5], &[3])));
        setup(&mut sys, &topo);
        sys
    };
    let (mut sleepy, mut awake) = (build(), build());
    lockstep(&mut sleepy, &mut awake, sleep, |_, _| {});
    (sleepy, awake)
}

fn finish(mut sleepy: NocSystem, mut awake: NocSystem) {
    assert_eq!(snapshot_text(&mut sleepy), snapshot_text(&mut awake));
}

#[test]
fn source_pushes_and_destination_pops_wake_a_sleeping_ni() {
    let (mut sleepy, mut awake) = poke_pair(700, |_, _| {});
    let before = sleepy.nis[14].kernel.stats().packets_rx;
    lockstep(&mut sleepy, &mut awake, 300, |sys, now| {
        // One burst on each pair out of the blue; the receivers are
        // drained late, so credits flow back long after everyone dozed off
        // again.
        if (5..9).contains(&(now - 700)) {
            sys.nis[1]
                .kernel
                .push_src(1, now as u32, now)
                .expect("space");
            sys.nis[4]
                .kernel
                .push_src(1, now as u32, now)
                .expect("space");
        }
        if now - 700 > 150 {
            sys.nis[14].kernel.pop_dst(2, now);
            sys.nis[11].kernel.pop_dst(2, now);
        }
    });
    assert!(sleepy.nis[14].kernel.stats().packets_rx != before);
    assert_eq!(
        sleepy.nis[1].kernel.channel(1).space(),
        8,
        "credits returned"
    );
    assert_eq!(
        sleepy.nis[4].kernel.channel(1).space(),
        8,
        "credits returned"
    );
    finish(sleepy, awake);
}

#[test]
fn enabling_a_channel_with_queued_data_wakes_a_sleeping_ni() {
    // NI 2 → NI 13 is routed and loaded but left disabled: nothing can
    // move, so NI 2 sleeps with data queued until the Ctrl write.
    let (mut sleepy, mut awake) = poke_pair(500, |sys, topo| {
        configure(sys, topo, (2, 1), (13, 2), false, false);
        configure(sys, topo, (13, 2), (2, 1), false, true);
        for w in 0..3 {
            sys.nis[2].kernel.push_src(1, w, 0).expect("space");
        }
    });
    assert_eq!(sleepy.nis[2].kernel.stats().packets_tx, [0, 0]);
    lockstep(&mut sleepy, &mut awake, 120, |sys, now| {
        if now == 541 {
            sys.nis[2]
                .kernel
                .reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl(false))
                .expect("ctrl");
        }
    });
    assert_eq!(sleepy.nis[13].kernel.channel(2).dst_level(), 3, "delivered");
    finish(sleepy, awake);
}

#[test]
fn flushes_wake_a_threshold_gated_sleeping_ni() {
    // Data below its threshold on NI 1 and credits below theirs on NI 14:
    // both NIs sleep on state only a flush can release.
    let (mut sleepy, mut awake) = poke_pair(10, |sys, _| {
        sys.nis[1]
            .kernel
            .reg_write(chan_reg_addr(1, ChanReg::DataThreshold), 6)
            .expect("threshold");
        sys.nis[14]
            .kernel
            .reg_write(chan_reg_addr(2, ChanReg::CreditThreshold), 6)
            .expect("threshold");
    });
    lockstep(&mut sleepy, &mut awake, 900, |sys, now| match now {
        20 | 21 => sys.nis[1].kernel.push_src(1, 7, now).expect("space"),
        400 => sys.nis[1].kernel.flush(1),
        500 | 501 => {
            sys.nis[14]
                .kernel
                .pop_dst(2, now)
                .expect("flushed data arrived");
        }
        800 => sys.nis[14].kernel.flush_credits(2),
        _ => {}
    });
    assert_eq!(
        sleepy.nis[1].kernel.channel(1).space(),
        8,
        "credits flushed home"
    );
    finish(sleepy, awake);
}

#[test]
fn a_word_staged_on_a_sleeping_nis_link_travels_and_wakes_its_receiver() {
    let (mut sleepy, mut awake) = poke_pair(600, |_, _| {});
    let topo = Topology::mesh(4, 4, 1);
    let header = PacketHeader {
        path: topo.route(7, 8).expect("route"),
        qid: 2,
        credits: 3,
        flush: false,
    }
    .pack();
    lockstep(&mut sleepy, &mut awake, 80, |sys, now| match now {
        // NI 8's channel 2 is disabled: the header still credits it, the
        // payload is dropped — visible state either way.
        610 => sys
            .noc
            .ni_link_mut(7)
            .send(LinkWord::header(header, WordClass::BestEffort)),
        611 => sys
            .noc
            .ni_link_mut(7)
            .send(LinkWord::payload(0xABCD, WordClass::BestEffort, true)),
        _ => {}
    });
    assert_eq!(sleepy.nis[8].kernel.stats().packets_rx, [0, 1]);
    assert_eq!(sleepy.nis[8].kernel.channel(2).space(), 3);
    finish(sleepy, awake);
}

#[test]
fn shell_submissions_and_responses_wake_sleeping_nis() {
    // Configuration module on NI 0, a master on NI 5, a slave on NI 10,
    // plain slaves elsewhere. After a long sleep the configurator opens a
    // connection (config-shell `submit`, CNIP traffic, acknowledgment
    // polls), then a traffic generator runs transactions over it (master
    // and slave shells): every cycle count must match the awake twin's.
    let build = || {
        let mut nis = vec![presets::cfg_module_ni(0, 4)];
        for id in 1..16 {
            nis.push(if id == 5 {
                presets::master_ni(id)
            } else {
                presets::slave_ni(id)
            });
        }
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 4,
                height: 4,
                nis_per_router: 1,
            },
            nis,
        );
        let cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
        (NocSystem::from_spec(&spec), cfg)
    };
    let (mut sleepy, mut sleepy_cfg) = build();
    let (mut awake, mut awake_cfg) = build();
    lockstep(&mut sleepy, &mut awake, 900, |_, _| {});
    // A local register write through the config shell of the sleeping NI.
    lockstep(&mut sleepy, &mut awake, 40, |sys, now| {
        if now == 910 {
            sys.nis[0].config_mut(0).submit(Transaction::write(
                aethereal::ni::shell::config::global_addr(0, slot_reg_addr(3)),
                vec![1],
                9,
            ));
        }
    });
    assert_eq!(sleepy.nis[0].kernel.slot_table()[3], 1);
    sleepy.nis[0].config_mut(0).submit(Transaction::write(
        aethereal::ni::shell::config::global_addr(0, slot_reg_addr(3)),
        vec![0],
        10,
    ));
    awake.nis[0].config_mut(0).submit(Transaction::write(
        aethereal::ni::shell::config::global_addr(0, slot_reg_addr(3)),
        vec![0],
        10,
    ));
    // The configurator polls with `sys.tick()`; the twin is woken before
    // and after (its polls in between run on whatever it derives itself —
    // the cycle counts still have to agree).
    let req = ConnectionRequest::guaranteed(
        ChannelEnd { ni: 5, channel: 1 },
        ChannelEnd { ni: 10, channel: 1 },
        2,
    );
    for ni in [5, 10] {
        assert!(inert(&sleepy, ni), "NI {ni} sleeps before the open");
    }
    awake.snapshot().expect("snapshot");
    let handle = sleepy_cfg
        .open_connection(&mut sleepy, &req)
        .expect("opens on the sleepy system");
    let awake_handle = awake_cfg
        .open_connection(&mut awake, &req)
        .expect("opens on the awake twin");
    assert_eq!(sleepy_cfg.stats(), awake_cfg.stats(), "incl. cycles_waited");
    assert_same(&sleepy, &awake, "after the open");
    // Sleep again, then run transactions across the new connection.
    lockstep(&mut sleepy, &mut awake, 600, |_, _| {});
    for sys in [&mut sleepy, &mut awake] {
        sys.bind_master(
            5,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 11,
                addr_base: 0,
                addr_range: 0x100,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (1, 3),
                gap_cycles: 90,
                total: Some(6),
                max_outstanding: 2,
            })),
        );
        sys.bind_slave(10, 1, Box::new(MemorySlave::new(3)));
    }
    lockstep(&mut sleepy, &mut awake, 1_500, |_, _| {});
    let g = sleepy.master_ip_as::<TrafficGenerator>(0);
    assert_eq!((g.issued(), g.completed(), g.errors()), (6, 6, 0));
    assert_eq!(sleepy.noc.gt_conflicts(), 0);
    // Closing reaches both ends through their CNIPs again (both own GT
    // slots now, so neither is inert).
    awake.snapshot().expect("snapshot");
    sleepy_cfg
        .close_connection(&mut sleepy, &handle)
        .expect("closes on the sleepy system");
    awake_cfg
        .close_connection(&mut awake, &awake_handle)
        .expect("closes on the awake twin");
    assert_eq!(sleepy_cfg.stats(), awake_cfg.stats(), "incl. cycles_waited");
    assert_same(&sleepy, &awake, "after the close");
    lockstep(&mut sleepy, &mut awake, 300, |_, _| {});
    finish(sleepy, awake);
}

/// Whether NI `ni` of `sys` sleeps so soundly that the system does not
/// even tick it.
fn inert(sys: &NocSystem, ni: usize) -> bool {
    sys.nis[ni].inert(sys.noc.ni_link(ni))
}

/// Pushes one word into its first channel at each scheduled cycle.
struct LatePush {
    at: Vec<u64>,
    next: u64,
}

impl<'a> ClockedWith<RawPort<'a>> for LatePush {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        if self.at.get(self.next as usize) == Some(&now) {
            port.kernel
                .push_src(port.channels[0], now as u32, now)
                .expect("space");
            self.next += 1;
        }
    }
}

impl RawIp for LatePush {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn idle_until(&self, now: u64) -> u64 {
        self.at
            .get(self.next as usize)
            .map_or(u64::MAX, |&at| at.max(now))
    }

    fn persist(&mut self, p: &mut dyn StateVisit) {
        p.item(&mut self.next);
    }
}

/// Runs the pair up to cycle `at`, checks that NI `ni` of `sleepy` is
/// inert there, then applies `poke` to both before cycle `at`.
fn wake_at(
    sleepy: &mut NocSystem,
    awake: &mut NocSystem,
    at: u64,
    ni: usize,
    poke: impl FnMut(&mut NocSystem, u64),
) {
    lockstep(sleepy, awake, at - sleepy.cycle(), |_, _| {});
    assert!(inert(sleepy, ni), "NI {ni} is inert before cycle {at}");
    lockstep(sleepy, awake, 1, poke);
}

#[test]
fn every_container_path_wakes_an_inert_ni() {
    // Besides the two pairs: NI 2 → NI 13 loaded but disabled, and a raw
    // IP bound to NI 7 that pushes toward NI 8 long after everything fell
    // asleep. Bound sinks drain every receiver, so each NI falls asleep
    // again after every poke.
    let (mut sleepy, mut awake) = poke_pair(600, |sys, topo| {
        configure(sys, topo, (2, 1), (13, 2), false, false);
        configure(sys, topo, (13, 2), (2, 1), false, true);
        sys.nis[2].kernel.push_src(1, 0xA, 0).expect("space");
        connect(sys, topo, 7, 8, None);
        let late = LatePush {
            at: vec![650, 651],
            next: 0,
        };
        sys.bind_raw(7, 1, vec![1], Box::new(late));
        for ni in [8, 13, 14] {
            sys.bind_raw(ni, 1, vec![2], Box::new(CountingSink::new()));
        }
    });
    wake_at(&mut sleepy, &mut awake, 610, 1, |sys, now| {
        sys.nis[1].kernel.push_src(1, 1, now).expect("space");
    });
    wake_at(&mut sleepy, &mut awake, 650, 7, |_, _| {}); // the bound IP pushes
    wake_at(&mut sleepy, &mut awake, 700, 2, |sys, _| {
        sys.nis[2]
            .kernel
            .reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl(false))
            .expect("ctrl");
    });
    wake_at(&mut sleepy, &mut awake, 800, 1, |sys, now| {
        for ni in sys.nis.iter_mut().filter(|ni| ni.id() == 1) {
            ni.kernel.push_src(1, 2, now).expect("space");
        }
    });
    wake_at(&mut sleepy, &mut awake, 900, 2, |sys, now| {
        let all = &mut sys.nis[..];
        all[2].kernel.push_src(1, 3, now).expect("space");
    });
    // A word staged on NI 5's link by hand, then arriving in NI 12's
    // inbox: neither NI is reached through the container. NI 12's channel
    // 2 is not configured: the header's credits still land.
    let header = PacketHeader {
        path: Topology::mesh(4, 4, 1).route(5, 12).expect("route"),
        qid: 2,
        credits: 3,
        flush: false,
    }
    .pack();
    assert!(inert(&sleepy, 12));
    wake_at(&mut sleepy, &mut awake, 1_000, 5, |sys, _| {
        sys.noc
            .ni_link_mut(5)
            .send(LinkWord::header_only(header, WordClass::BestEffort));
    });
    wake_at(&mut sleepy, &mut awake, 1_100, 12, |sys, _| {
        let snap = sys.snapshot().expect("snapshot");
        sys.restore(&snap).expect("restore");
    });
    lockstep(&mut sleepy, &mut awake, 200, |_, _| {});
    let received = |ni| sleepy.raw_ip_at::<CountingSink>(ni).count();
    assert_eq!([received(14), received(8), received(13)], [2, 2, 2]);
    assert_eq!(sleepy.nis[12].kernel.channel(2).space(), 3);
    finish(sleepy, awake);
}

// ---- Gated IP ticks ---------------------------------------------------------

/// An IP model that reports itself active on every cycle, so the system
/// ticks it on every port-clock edge: the dense behaviour the gate on
/// `idle_until` replaces.
struct AlwaysHot<T>(T);

impl<Ctx: ?Sized, T: ClockedWith<Ctx>> ClockedWith<Ctx> for AlwaysHot<T> {
    fn absorb(&mut self, ctx: &mut Ctx, now: u64) {
        self.0.absorb(ctx, now);
    }

    fn emit(&mut self, ctx: &mut Ctx, now: u64) {
        self.0.emit(ctx, now);
    }
}

impl<T: MasterIp> MasterIp for AlwaysHot<T> {
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn idle_until(&self, now: u64) -> u64 {
        now
    }

    fn persist(&mut self, p: &mut dyn StateVisit) {
        self.0.persist(p);
    }
}

impl<T: SlaveIp> SlaveIp for AlwaysHot<T> {
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn idle_until(&self, now: u64) -> u64 {
        now
    }

    fn persist(&mut self, p: &mut dyn StateVisit) {
        self.0.persist(p);
    }
}

impl<T: RawIp> RawIp for AlwaysHot<T> {
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn idle_until(&self, now: u64) -> u64 {
        now
    }

    fn persist(&mut self, p: &mut dyn StateVisit) {
        self.0.persist(p);
    }
}

/// Binds IP models to a system, each wrapped in [`AlwaysHot`] if `hot`.
struct Binder<'a> {
    sys: &'a mut NocSystem,
    hot: bool,
}

impl Binder<'_> {
    fn master(&mut self, ni: usize, ip: impl MasterIp + 'static) {
        let ip: Box<dyn MasterIp> = if self.hot {
            Box::new(AlwaysHot(ip))
        } else {
            Box::new(ip)
        };
        self.sys.bind_master(ni, 1, ip);
    }

    fn slave(&mut self, ni: usize, ip: impl SlaveIp + 'static) {
        let ip: Box<dyn SlaveIp> = if self.hot {
            Box::new(AlwaysHot(ip))
        } else {
            Box::new(ip)
        };
        self.sys.bind_slave(ni, 1, ip);
    }

    fn raw(&mut self, ni: usize, channels: Vec<usize>, ip: impl RawIp + 'static) {
        let ip: Box<dyn RawIp> = if self.hot {
            Box::new(AlwaysHot(ip))
        } else {
            Box::new(ip)
        };
        self.sys.bind_raw(ni, 1, channels, ip);
    }
}

/// The BE connection the configurator opens mid-run: traffic generator
/// on NI 5 → memory on NI 10.
fn generator_connection() -> ConnectionRequest {
    ConnectionRequest::best_effort(
        ChannelEnd { ni: 5, channel: 1 },
        ChannelEnd { ni: 10, channel: 1 },
    )
}

/// A 4x4 mesh with the configuration module on NI 0, a trace replayer on
/// NI 9 reading and writing a memory on NI 6 over a BE connection the
/// configurator opened, a bounded stream NI 12 → pixel stage on NI 13 →
/// sink on NI 14 on port clocks of divider 2, and a master port on NI 5
/// (divider 2) and a slave port on NI 10 for [`generator_connection`].
/// With `hot`, every IP is wrapped in [`AlwaysHot`].
fn ip_mix(hot: bool) -> (NocSystem, RuntimeConfigurator, u64) {
    let mut nis: Vec<_> = (0..16)
        .map(|id| match id {
            0 => presets::cfg_module_ni(0, 4),
            5 | 9 => presets::master_ni(id),
            12..=14 => presets::raw_ni(id, 2),
            _ => presets::slave_ni(id),
        })
        .collect();
    for id in [5, 12, 13, 14] {
        nis[id].kernel.ports[1].clock_div = 2;
    }
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 4,
            height: 4,
            nis_per_router: 1,
        },
        nis,
    );
    let topo = spec.topology.build();
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    let mut sys = NocSystem::from_spec(&spec);
    configure(&mut sys, &topo, (12, 1), (13, 1), false, true);
    configure(&mut sys, &topo, (13, 1), (12, 1), false, true);
    configure(&mut sys, &topo, (13, 2), (14, 1), false, true);
    configure(&mut sys, &topo, (14, 1), (13, 2), false, true);
    let trace_connection = ConnectionRequest::best_effort(
        ChannelEnd { ni: 9, channel: 1 },
        ChannelEnd { ni: 6, channel: 1 },
    );
    cfg.open_connection(&mut sys, &trace_connection)
        .expect("opens");
    let t0 = sys.cycle();
    let entry = |at: u64, transaction| TraceEntry {
        at_cycle: t0 + at,
        transaction,
    };
    let trace = Trace::new(vec![
        entry(100, Transaction::read(0x20, 3, 1)),
        entry(104, Transaction::acked_write(0x20, vec![7, 8], 2)),
        entry(700, Transaction::read(0x20, 2, 3)),
        entry(1_900, Transaction::write(0x30, vec![9], 4)),
        entry(1_950, Transaction::read(0x30, 1, 5)),
    ]);
    let mut bind = Binder { sys: &mut sys, hot };
    bind.master(9, TraceMaster::new(trace));
    bind.slave(6, MemorySlave::new(3));
    bind.raw(12, vec![1], StreamSource::counting(40));
    bind.raw(13, vec![1, 2], PixelStage::new(|w| w ^ 0xFF00));
    bind.raw(14, vec![1], StreamSink::new());
    (sys, cfg, t0)
}

#[test]
fn gated_ip_ticks_match_ips_ticked_on_every_edge() {
    // `sleepy` gates its IPs; `hot` ticks every IP on every edge and, by
    // a snapshot before every cycle, every NI every cycle. Both get the
    // same inputs: a configurator open and close mid-run, the bindings
    // that follow the open, and a snapshot restored into itself.
    let (mut sleepy, mut sleepy_cfg, t0) = ip_mix(false);
    let (mut hot, mut hot_cfg, hot_t0) = ip_mix(true);
    assert_eq!(t0, hot_t0);
    assert_same(&sleepy, &hot, "after the first open");
    lockstep(&mut sleepy, &mut hot, 600, |_, _| {});
    // Between trace entries, with the stream delivered: the NIs of the
    // bound IPs are inert, so neither they nor their IPs are ticked.
    for ni in [6, 9, 12, 13, 14] {
        assert!(inert(&sleepy, ni), "NI {ni} sleeps with its IP bound");
    }
    // Open the generator's connection mid-run, then bind it and its
    // memory.
    hot.snapshot().expect("snapshot");
    let handle = sleepy_cfg
        .open_connection(&mut sleepy, &generator_connection())
        .expect("opens on the gated system");
    let hot_handle = hot_cfg
        .open_connection(&mut hot, &generator_connection())
        .expect("opens on the hot twin");
    assert_eq!(sleepy_cfg.stats(), hot_cfg.stats(), "incl. cycles_waited");
    assert_same(&sleepy, &hot, "after the open");
    for (sys, hot) in [(&mut sleepy, false), (&mut hot, true)] {
        let mut bind = Binder { sys, hot };
        bind.master(
            5,
            TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 3,
                addr_base: 0,
                addr_range: 0x40,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (1, 3),
                gap_cycles: 60,
                total: Some(8),
                max_outstanding: 2,
            }),
        );
        bind.slave(10, MemorySlave::new(3));
    }
    let restore_at = sleepy.cycle() + 300;
    lockstep(&mut sleepy, &mut hot, 900, |sys, now| {
        if now == restore_at {
            let snap = sys.snapshot().expect("snapshot");
            sys.restore(&snap).expect("restore");
        }
    });
    let g = sleepy.master_ip_as::<TrafficGenerator>(1);
    assert_eq!((g.issued(), g.completed(), g.errors()), (8, 8, 0));
    hot.snapshot().expect("snapshot");
    sleepy_cfg
        .close_connection(&mut sleepy, &handle)
        .expect("closes on the gated system");
    hot_cfg
        .close_connection(&mut hot, &hot_handle)
        .expect("closes on the hot twin");
    assert_eq!(sleepy_cfg.stats(), hot_cfg.stats(), "incl. cycles_waited");
    assert_same(&sleepy, &hot, "after the close");
    let end = t0 + 2_200 - sleepy.cycle();
    lockstep(&mut sleepy, &mut hot, end, |_, _| {});
    let trace = sleepy.master_ip_as::<TraceMaster>(0);
    assert_eq!((trace.issued(), trace.completed()), (5, 5));
    let sink = sleepy.raw_ip_at::<StreamSink>(14).received();
    assert_eq!(sink.len(), 40);
    assert!(sink.iter().zip(0..).all(|(&w, i)| w == i ^ 0xFF00));
    finish(sleepy, hot);
}

// ---- (c) Derived, not carried ----------------------------------------------

#[test]
fn snapshot_of_sleeping_components_restores_and_changes_nothing() {
    let build = || {
        let spec = raw_mesh(4, 4, 1, 2);
        let topo = spec.topology.build();
        let mut sys = NocSystem::from_spec(&spec);
        connect(&mut sys, &topo, 1, 14, None);
        connect(&mut sys, &topo, 4, 11, Some((&[1, 5], &[3])));
        sys
    };
    // Bursts before and after the snapshot point; receivers drain as they
    // go, so everything is back asleep when the snapshot is taken.
    let drive = |sys: &mut NocSystem, cycles: u64| {
        for _ in 0..cycles {
            let now = sys.cycle();
            if now % 500 < 6 {
                for src in [1, 4] {
                    if sys.nis[src].kernel.src_space(1) > 0 {
                        sys.nis[src]
                            .kernel
                            .push_src(1, now as u32, now)
                            .expect("space");
                    }
                }
            }
            sys.nis[14].kernel.pop_dst(2, now);
            sys.nis[11].kernel.pop_dst(2, now);
            sys.tick();
        }
    };
    let mut donor = build();
    drive(&mut donor, 1_300);
    let snap = donor.snapshot().expect("snapshot");
    let mut restored = build();
    restored.restore(&snap).expect("restores into a fresh twin");
    let mut uninterrupted = build();
    drive(&mut uninterrupted, 1_300);
    for sys in [&mut donor, &mut restored, &mut uninterrupted] {
        drive(sys, 1_200);
    }
    let want = snapshot_text(&mut uninterrupted);
    assert_eq!(snapshot_text(&mut restored), want, "restored twin");
    assert_eq!(
        snapshot_text(&mut donor),
        want,
        "snapshotting woke nothing visible"
    );
    assert!(
        donor.nis[14].kernel.stats().packets_rx[1] >= 5,
        "traffic flowed"
    );
}
