//! The control session: a closed loop of one client that opens a
//! connection through the NoC, uses it once, and closes it again.
//!
//! It is `control8`'s whole workload, and — shortened — the probe every
//! other workload runs after its data phase so that the connection
//! metrics exist in every process (the driver's contract wants every
//! end-to-end metric from every workload).
//!
//! The system is an idle 8x8 mesh with two NIs per router: the
//! configuration module on NI 0 with a 24-channel pool, twelve master and
//! twelve slave NIs (a `MemorySlave` behind each) spread so that routes of
//! every length from 2 to 15 hops occur, the other NIs unused. The
//! master/slave pairs are grouped into **distance classes** by route
//! length; one **round** of the session opens one connection of every
//! (class, service) combination, BE and GT alike. Rounds are therefore
//! equal pieces of work, which is what lets a quartile over rounds stand
//! for the whole; the seed picks the pair inside each class and the data
//! written.

use crate::workloads::{Built, Ips, SlaveSite};
use aethereal_cfg::runtime::{ChannelEnd, ConnectionRequest, Service};
use aethereal_cfg::{presets, NocSpec, NocSystem, RuntimeConfigurator, SlotStrategy, TopologySpec};
use aethereal_ni::transaction::{RespStatus, Transaction, TransactionResponse};
use aethereal_proto::MemorySlave;
use noc_sim::{Clocked, Engine, Rng64};
use std::time::Instant;

const MESH: usize = 8;
/// Routers whose second NI is a pool master.
const MASTER_ROUTERS: [usize; 12] = [0, 9, 18, 27, 36, 45, 54, 63, 7, 56, 3, 24];
/// Routers whose second NI is a pool slave.
const SLAVE_ROUTERS: [usize; 12] = [1, 8, 15, 22, 29, 35, 42, 49, 57, 62, 5, 40];
/// Cycles a transaction may take before the session gives up on it.
const TXN_TIMEOUT: u64 = 20_000;

fn pool_ni(router: usize) -> usize {
    2 * router + 1
}

fn control_spec() -> NocSpec {
    let nis = (0..2 * MESH * MESH)
        .map(|id| {
            if id == 0 {
                presets::cfg_module_ni(0, MASTER_ROUTERS.len() + SLAVE_ROUTERS.len())
            } else if MASTER_ROUTERS.iter().any(|&r| pool_ni(r) == id) {
                presets::master_ni(id)
            } else {
                presets::slave_ni(id)
            }
        })
        .collect();
    NocSpec::new(
        TopologySpec::Mesh {
            width: MESH,
            height: MESH,
            nis_per_router: 2,
        },
        nis,
    )
}

/// Builds the control system and opens the configuration connection to
/// every pool NI (by opening and closing one BE connection per
/// master/slave pair), so that a timed `open_connection` never pays the
/// one-off Fig. 9 steps 1-2.
pub fn build_control_system() -> Built {
    let spec = control_spec();
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.build_topology(), 0, 0, 8);
    for (&m, &s) in MASTER_ROUTERS.iter().zip(&SLAVE_ROUTERS) {
        let h = cfg
            .open_connection(&mut sys, &request(pool_ni(m), pool_ni(s), false))
            .expect("warm-up connection opens");
        cfg.close_connection(&mut sys, &h)
            .expect("warm-up connection closes");
    }
    let mut ips = Ips::default();
    for &r in &SLAVE_ROUTERS {
        ips.slaves.push(SlaveSite {
            ni: pool_ni(r),
            port: 1,
            ip: Box::new(MemorySlave::new(2)),
        });
    }
    Built {
        spec,
        sys,
        ips,
        cfg: Some(cfg),
    }
}

/// A BE connection, or a GT one with a two-slot consecutive run each way
/// (the run a three-segment route needs for header, two continuation
/// words and payload).
fn request(master: usize, slave: usize, gt: bool) -> ConnectionRequest {
    let base = ConnectionRequest::best_effort(
        ChannelEnd {
            ni: master,
            channel: 1,
        },
        ChannelEnd {
            ni: slave,
            channel: 1,
        },
    );
    if !gt {
        return base;
    }
    let svc = Service::Guaranteed {
        slots: 2,
        strategy: SlotStrategy::Consecutive,
    };
    ConnectionRequest {
        fwd: svc,
        rev: svc,
        ..base
    }
}

/// The pool's master/slave pairs grouped by route length, shortest class
/// first.
pub fn distance_classes(cfg: &RuntimeConfigurator) -> Vec<Vec<(usize, usize)>> {
    let mut by_hops: std::collections::BTreeMap<usize, Vec<(usize, usize)>> = Default::default();
    for &m in &MASTER_ROUTERS {
        for &s in &SLAVE_ROUTERS {
            let (m, s) = (pool_ni(m), pool_ni(s));
            let hops = cfg
                .topo()
                .route_any(m, s)
                .expect("any mesh pair routes")
                .total_hops();
            by_hops.entry(hops).or_default().push((m, s));
        }
    }
    by_hops.into_values().collect()
}

/// What a session measured. Per-connection vectors have one entry per
/// connection that went through; connections differ in length, so host
/// time is kept per simulated cycle, which is what makes the samples
/// alike (an open is mostly the idle mesh ticking while the client waits
/// for an acknowledgment).
#[derive(Debug, Default)]
pub struct Session {
    /// Host ns per simulated cycle inside `open_connection`.
    pub open_ns_per_cycle: Vec<f64>,
    /// Host ns per simulated cycle inside `close_connection`.
    pub close_ns_per_cycle: Vec<f64>,
    /// Host ns per simulated router-cycle from open to close.
    pub ns_per_router_cycle: Vec<f64>,
    /// Connections opened, used and closed.
    pub ops: usize,
    /// Of those, how many failed any step or check.
    pub failed: usize,
    /// Simulated cycles spent inside `open_connection`, summed.
    pub open_cycles: u64,
    /// Simulated cycles spent inside `close_connection`, summed.
    pub close_cycles: u64,
    /// Simulated cycles the session took.
    pub cycles: u64,
    /// Request-to-response latency of every transaction, cycles.
    pub txn_latency: Vec<u64>,
    /// Data words written and read back.
    pub txn_words: u64,
}

impl Session {
    /// Mean simulated cycles per `open_connection`.
    pub fn cycles_per_open(&self) -> f64 {
        self.open_cycles as f64 / self.open_ns_per_cycle.len().max(1) as f64
    }

    /// Mean simulated cycles per `close_connection`.
    pub fn cycles_per_close(&self) -> f64 {
        self.close_cycles as f64 / self.close_ns_per_cycle.len().max(1) as f64
    }
}

/// Submits `t` at `master` and ticks until its response arrives.
fn transact(
    sys: &mut NocSystem,
    master: usize,
    t: Transaction,
) -> Option<(TransactionResponse, u64)> {
    let start = sys.cycle();
    sys.nis[master].master_mut(1).submit(t);
    for _ in 0..TXN_TIMEOUT {
        if let Some(r) = sys.nis[master].master_mut(1).take_response() {
            return Some((r, sys.cycle() - start));
        }
        sys.tick();
    }
    None
}

/// Lets the last credits land: closing a connection under in-flight
/// words would drop them at a disabled queue. A drained network can still
/// hide a credit an NI is about to send, so the wait is for the whole
/// system to go quiescent.
fn settle(sys: &mut NocSystem) -> bool {
    Engine::run_until(sys, |s| s.quiescent() && s.noc.drained(), 4_000)
}

/// Opens, uses and closes one connection; the error says which step
/// failed.
fn one_connection(
    sys: &mut NocSystem,
    cfg: &mut RuntimeConfigurator,
    (master, slave): (usize, usize),
    gt: bool,
    payload: u32,
    out: &mut Session,
) -> Result<(), String> {
    let (c0, t0) = (sys.cycle(), Instant::now());
    let handle = cfg
        .open_connection(sys, &request(master, slave, gt))
        .map_err(|e| format!("open: {e}"))?;
    let open_ns = t0.elapsed().as_secs_f64() * 1e9;
    let open_cycles = sys.cycle() - c0;

    let addr = payload & 0xfc;
    let data = vec![payload, !payload];
    let write = Transaction::acked_write(addr, data.clone(), 1);
    let (ack, lat_w) = transact(sys, master, write).ok_or("write timed out")?;
    let (read, lat_r) =
        transact(sys, master, Transaction::read(addr, 2, 2)).ok_or("read timed out")?;
    let used = ack.status == RespStatus::Ok && read.status == RespStatus::Ok && read.data == data;
    let settled = settle(sys);

    let (c1, t1) = (sys.cycle(), Instant::now());
    cfg.close_connection(sys, &handle)
        .map_err(|e| format!("close: {e}"))?;
    let close_ns = t1.elapsed().as_secs_f64() * 1e9;
    let close_cycles = sys.cycle() - c1;
    if !used {
        return Err("the data read back is not the data written".into());
    }
    if !settled {
        return Err("the network did not go quiet before the close".into());
    }
    out.open_cycles += open_cycles;
    out.close_cycles += close_cycles;
    out.open_ns_per_cycle.push(open_ns / open_cycles as f64);
    out.close_ns_per_cycle.push(close_ns / close_cycles as f64);
    out.ns_per_router_cycle.push(
        t0.elapsed().as_secs_f64() * 1e9 / ((sys.cycle() - c0) as f64 * (MESH * MESH) as f64),
    );
    out.txn_latency.extend([lat_w, lat_r]);
    out.txn_words += 4;
    Ok(())
}

/// The session as a stepper, one connection per step, so the caller can
/// interleave it with other measured work. Steps walk the (class,
/// service) combinations in a fixed order; the seed picks the pair inside
/// the class and the data written.
pub struct SessionRunner {
    classes: Vec<Vec<(usize, usize)>>,
    rng: Rng64,
    start_cycle: u64,
    out: Session,
}

impl SessionRunner {
    /// Starts a session on a built and bound control system.
    pub fn new(sys: &NocSystem, cfg: &RuntimeConfigurator, seed: u64) -> Self {
        SessionRunner {
            classes: distance_classes(cfg),
            rng: Rng64::seed_from_u64(seed ^ 0xC0_47_80_15),
            start_cycle: sys.cycle(),
            out: Session::default(),
        }
    }

    /// Connections in one round: every (class, service) combination once.
    pub fn ops_per_round(&self) -> usize {
        2 * self.classes.len()
    }

    /// Opens, uses and closes the next connection.
    pub fn step(&mut self, sys: &mut NocSystem, cfg: &mut RuntimeConfigurator) {
        let class = &self.classes[self.out.ops / 2 % self.classes.len()];
        let gt = self.out.ops % 2 == 1;
        let pair = class[self.rng.below_usize(class.len())];
        let payload = self.rng.next_u64() as u32;
        self.out.ops += 1;
        if let Err(why) = one_connection(sys, cfg, pair, gt, payload, &mut self.out) {
            eprintln!("CHECK FAILED: connection {pair:?} gt={gt}: {why}");
            self.out.failed += 1;
        }
    }

    /// Ends the session.
    pub fn finish(mut self, sys: &NocSystem) -> Session {
        self.out.cycles = sys.cycle() - self.start_cycle;
        self.out
    }
}

/// Runs `rounds` whole rounds of the session back to back.
pub fn run_session(
    sys: &mut NocSystem,
    cfg: &mut RuntimeConfigurator,
    seed: u64,
    rounds: usize,
) -> Session {
    let mut runner = SessionRunner::new(sys, cfg, seed);
    for _ in 0..rounds * runner.ops_per_round() {
        runner.step(sys, cfg);
    }
    runner.finish(sys)
}

/// Binds the control system's memories, keeping system and configurator.
pub fn bind(built: Built) -> (NocSystem, RuntimeConfigurator) {
    let Built {
        mut sys, ips, cfg, ..
    } = built;
    for s in ips.slaves {
        sys.bind_slave(s.ni, s.port, s.ip);
    }
    (sys, cfg.expect("the control system has a configurator"))
}

/// Every open was followed by a close that gave everything back, and the
/// network's invariant counters never moved.
pub fn clean_after_session(sys: &NocSystem, cfg: &RuntimeConfigurator) -> bool {
    cfg.allocator().total_reserved() == 0
        && cfg.stats().connections_opened == cfg.stats().connections_closed
        && sys.noc.gt_conflicts() == 0
        && sys.noc.be_overflows() == 0
        && sys.nis.iter().all(|ni| ni.kernel.stats().rx_drops == 0)
}
