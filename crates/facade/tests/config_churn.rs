//! Open/close churn leaves no residue.
//!
//! Connections are opened and closed *through the NoC itself*; a leak in
//! that path — a slot-table entry not zeroed, a stale `PATH` register, a
//! credit counter off by one, an allocator entry kept past `free` — would
//! silently erode the GT guarantee of every connection opened later. This
//! property drives randomized open/close storms (mixed services, slot
//! counts, interleavings) and demands the register-visible configuration
//! state of **every NI** plus the central [`SlotAllocator`] come back
//! byte-identical to the settled post-first-churn baseline — on the
//! pristine topology and again with an active link mask forcing every
//! re-plan onto detours.
//!
//! [`SlotAllocator`]: aethereal::cfg::SlotAllocator

use aethereal::cfg::runtime::ConnectionRequest;
use aethereal::cfg::{ConfigError, ConnectionHandle, NocSystem, RuntimeConfigurator};
use aethereal::ni::kernel::regs::PATH_EXT_REGS;
use aethereal::ni::kernel::{chan_reg_addr, ext_reg_addr, slot_reg_addr, ChanReg};
use aethereal::sim::topology::dir;
use aethereal::sim::{Engine, FaultReport, SuspectLink};
use aethereal_testkit::prelude::*;
use scenario::{configurable, gt, raw_mesh, with_cfg, BE};

mod scenario;

/// The register-visible configuration state of every NI: slot tables,
/// per-channel control/space/path/threshold registers and all `PATH_EXT`
/// continuation segments.
fn register_image(sys: &NocSystem) -> Vec<u32> {
    let mut image = Vec::new();
    for ni in &sys.nis {
        let k = &ni.kernel;
        for s in 0..k.spec().stu_slots {
            image.push(k.reg_read(slot_reg_addr(s)).expect("slot reg"));
        }
        for ch in 0..k.channel_count() {
            for reg in [
                ChanReg::Ctrl,
                ChanReg::Space,
                ChanReg::PathRqid,
                ChanReg::DataThreshold,
                ChanReg::CreditThreshold,
            ] {
                image.push(k.reg_read(chan_reg_addr(ch, reg)).expect("chan reg"));
            }
            for seg in 0..PATH_EXT_REGS {
                image.push(k.reg_read(ext_reg_addr(ch, seg)).expect("ext reg"));
            }
        }
    }
    image
}

/// Fixed master → slave pairings on a 2x2 mesh with two NIs per router:
/// config module NI 0 (router 0) and three connection sites whose XY
/// routes cross (router 0, SOUTH) — the link the masked variant fails.
const PAIRS: [(usize, usize); 3] = [(1, 4), (2, 5), (3, 6)];

fn request(pair: usize, gt_fwd: bool, slots: usize) -> ConnectionRequest {
    let fwd = if gt_fwd { gt(slots) } else { BE };
    scenario::request((PAIRS[pair].0, 1), (PAIRS[pair].1, 1), fwd, BE)
}

struct Bench {
    sys: NocSystem,
    cfg: RuntimeConfigurator,
}

fn bench(masked: bool) -> Bench {
    let (mut sys, mut cfg) = configurable(&with_cfg(raw_mesh(2, 2, 2, 1), 0, 16), 0);
    if masked {
        // Fail (router 0, SOUTH) before anything is routed: every plan in
        // the storm — including the configuration connections themselves —
        // must take the BFS detour around the mask.
        let report = FaultReport {
            suspects: vec![SuspectLink {
                event: 0,
                router: 0,
                port: dir::SOUTH,
                router_wide: false,
                dropped_words: 1,
                corrupted_words: 0,
                lost_credits: 0,
                active: false,
            }],
            ..FaultReport::default()
        };
        let outcome = cfg
            .heal(&mut sys, &report, Vec::new())
            .expect("mask installs");
        assert_eq!(outcome.masked, vec![(0, dir::SOUTH)]);
        assert!(cfg.topo().is_masked(0, dir::SOUTH));
    }
    Bench { sys, cfg }
}

fn settle(sys: &mut NocSystem) {
    // A drained NoC can still hide a pending credit word inside an NI
    // (it is emitted on the *next* cycle, un-draining the fabric), so a
    // single `drained` observation is not quiescence. Step a few cycles
    // past each drain until the fabric stays empty.
    for _ in 0..8 {
        assert!(
            Engine::run_until(sys, |s| s.noc.drained(), 4_000),
            "configuration traffic must drain"
        );
        Engine::run(sys, 32);
    }
    assert!(sys.noc.drained());
}

/// Opens and closes each pairing once (the first churn), settles and
/// captures the baseline: the configuration connections and CNIP routes
/// this installs are persistent by design, everything else must come back
/// to exactly this state after any storm.
fn baseline(b: &mut Bench) -> Vec<u32> {
    for pair in 0..PAIRS.len() {
        let h = b
            .cfg
            .open_connection(&mut b.sys, &request(pair, false, 1))
            .expect("baseline open");
        b.cfg
            .close_connection(&mut b.sys, &h)
            .expect("baseline close");
    }
    settle(&mut b.sys);
    assert_eq!(b.cfg.allocator().total_reserved(), 0);
    register_image(&b.sys)
}

fn storm(b: &mut Bench, ops: &[(usize, bool, usize)]) {
    let mut open: Vec<Option<ConnectionHandle>> = (0..PAIRS.len()).map(|_| None).collect();
    for &(pair, gt, slots) in ops {
        if let Some(h) = open[pair].take() {
            b.cfg.close_connection(&mut b.sys, &h).expect("storm close");
        } else {
            match b.cfg.open_connection(&mut b.sys, &request(pair, gt, slots)) {
                Ok(h) => open[pair] = Some(h),
                // Infeasible slot placement is a legitimate outcome of a
                // crowded table — but a failed open must leak nothing
                // (verified by the final image comparison).
                Err(ConfigError::Slots(_)) => {}
                Err(e) => panic!("storm open failed structurally: {e}"),
            }
        }
    }
    for h in open.into_iter().flatten() {
        b.cfg.close_connection(&mut b.sys, &h).expect("final close");
    }
    settle(&mut b.sys);
}

proptest! {
    /// Randomized storms on the pristine topology: the allocator is empty
    /// and every register byte-identical to the baseline afterwards.
    #[test]
    fn open_close_storms_leave_no_residue(
        ops in prop::collection::vec((0usize..3, any::<bool>(), 1usize..=2), 1..16),
    ) {
        let mut b = bench(false);
        let expected = baseline(&mut b);
        storm(&mut b, &ops);
        prop_assert_eq!(b.cfg.allocator().total_reserved(), 0, "allocator leaked");
        prop_assert_eq!(register_image(&b.sys), expected, "register residue");
    }

    /// The same property under an active link mask: every route in the
    /// storm is a detour, and churn on detours is just as residue-free.
    #[test]
    fn masked_open_close_storms_leave_no_residue(
        ops in prop::collection::vec((0usize..3, any::<bool>(), 1usize..=2), 1..16),
    ) {
        let mut b = bench(true);
        let expected = baseline(&mut b);
        storm(&mut b, &ops);
        prop_assert_eq!(b.cfg.allocator().total_reserved(), 0, "allocator leaked");
        prop_assert_eq!(register_image(&b.sys), expected, "register residue");
    }
}
