//! The assembled system: network + NIs + IP modules, ticked in lockstep.
//!
//! Tick order within one 500 MHz network cycle:
//!
//! 1. every IP module whose port clock has an edge this cycle runs against
//!    its port stack (masters submit/collect, slaves serve, raw IPs
//!    stream) — unless its NI is inert and its own horizon is still
//!    ahead, when the tick would be a no-op;
//! 2. every NI that can act runs (shells on their port clocks, then the
//!    kernel) — see [`Nis`] for which those are;
//! 3. the network moves one word per link.

use crate::spec::NocSpec;
use aethereal_ni::kernel::ChannelId;
use aethereal_ni::Ni;
use aethereal_proto::ip::RawPort;
use aethereal_proto::{MasterIp, RawIp, SlaveIp};
use noc_sim::bitset::{pop_lowest, BitSet};
use noc_sim::engine::{ClockDomain, Clocked, ClockedWith, Engine};
use noc_sim::ff::{self, FfDigest, FfOutcome, FfStats};
use noc_sim::shard::{ExchangeAttachment, ShardRegion};
use noc_sim::word::SLOT_WORDS;
use noc_sim::{Noc, Router, StateVisit};
use std::ops::{Deref, DerefMut, Index, IndexMut, RangeFull};

/// The NIs of a [`NocSystem`], indexed by NI id, together with the set of
/// those a cycle has to tick.
///
/// An NI whose tick is a no-op until something wakes it
/// ([`Ni::inert`]) is not ticked, and only three things can wake it: a
/// word arriving in its inbox, which the network tracks
/// ([`Noc::ni_touched`]); a mutation through this container; and a tick
/// of an IP bound to it, which reaches the NI past the container, so the
/// system marks the NI awake itself if the tick left it able to act (see
/// [`NocSystem`]'s `emit`). So reads wake nothing (`Deref<Target = [Ni]>`,
/// `Index`, `&` iteration), while every `&mut` path marks what it reaches
/// awake: `nis[i]` through `IndexMut` that one NI, `DerefMut` (`iter_mut`,
/// `&mut nis[..]`, a `&mut [Ni]` coercion) and `&mut` iteration every NI.
/// The kernel's own sleep horizon is still invalidated by mutation; the
/// container's set by `&mut` access.
#[derive(Debug)]
pub struct Nis {
    list: Vec<Ni>,
    /// The NIs that may not be inert: each leaves after a tick that left
    /// it inert and rejoins on `&mut` access or an IP tick that gives it
    /// work. Derived: never serialised, filled by every `&mut` walk (the
    /// state walk among them).
    awake: BitSet,
}

impl Nis {
    /// Every NI of `list` awake.
    pub(crate) fn new(list: Vec<Ni>) -> Self {
        let n = list.len();
        Nis {
            list,
            awake: BitSet::full(n),
        }
    }

    /// Ticks the NIs that can act — awake, or whose link the network
    /// touched — in ascending id order, the order of the dense loop this
    /// replaces (the others' ticks are no-ops), and retires the ones each
    /// tick leaves inert, one word of the set at a time.
    fn tick(&mut self, noc: &mut Noc, cycle: u64) {
        for w in 0..self.awake.word_count() {
            let mut members = self.awake.word(w) | noc.ni_touched().word(w);
            let mut awake = members;
            while let Some(bit) = pop_lowest(&mut members) {
                let i = 64 * w + bit;
                let (ni, link) = (&mut self.list[i], noc.ni_link_mut(i));
                ni.tick(link, cycle);
                if ni.inert(link) {
                    awake &= !(1 << bit);
                }
            }
            self.awake.set_word(w, awake);
        }
    }

    /// Whether every NI that [`Nis::tick`] would pass over is inert.
    fn sleepers_inert(&self, noc: &Noc) -> bool {
        let touched = noc.ni_touched();
        self.list.iter().enumerate().all(|(i, ni)| {
            self.awake.contains(i) || touched.contains(i) || ni.inert(noc.ni_link(i))
        })
    }
}

impl Deref for Nis {
    type Target = [Ni];

    fn deref(&self) -> &[Ni] {
        &self.list
    }
}

/// Hands out every NI, so wakes every NI.
impl DerefMut for Nis {
    fn deref_mut(&mut self) -> &mut [Ni] {
        self.awake.fill();
        &mut self.list
    }
}

impl Index<usize> for Nis {
    type Output = Ni;

    fn index(&self, ni: usize) -> &Ni {
        &self.list[ni]
    }
}

/// Hands out NI `ni`, so wakes it.
impl IndexMut<usize> for Nis {
    fn index_mut(&mut self, ni: usize) -> &mut Ni {
        let slot = &mut self.list[ni];
        self.awake.insert(ni);
        slot
    }
}

impl Index<RangeFull> for Nis {
    type Output = [Ni];

    fn index(&self, _: RangeFull) -> &[Ni] {
        self
    }
}

/// `&mut nis[..]`: hands out every NI, so wakes every NI.
impl IndexMut<RangeFull> for Nis {
    fn index_mut(&mut self, _: RangeFull) -> &mut [Ni] {
        self
    }
}

impl IntoIterator for Nis {
    type Item = Ni;
    type IntoIter = std::vec::IntoIter<Ni>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.into_iter()
    }
}

impl<'a> IntoIterator for &'a Nis {
    type Item = &'a Ni;
    type IntoIter = std::slice::Iter<'a, Ni>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

impl<'a> IntoIterator for &'a mut Nis {
    type Item = &'a mut Ni;
    type IntoIter = std::slice::IterMut<'a, Ni>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

pub(crate) struct MasterBinding {
    pub(crate) ni: usize,
    pub(crate) port: usize,
    pub(crate) clock: ClockDomain,
    pub(crate) ip: Box<dyn MasterIp>,
}

pub(crate) struct SlaveBinding {
    pub(crate) ni: usize,
    pub(crate) port: usize,
    pub(crate) clock: ClockDomain,
    pub(crate) ip: Box<dyn SlaveIp>,
}

pub(crate) struct RawBinding {
    pub(crate) ni: usize,
    pub(crate) channels: Vec<ChannelId>,
    pub(crate) clock: ClockDomain,
    pub(crate) ip: Box<dyn RawIp>,
}

/// A runnable NoC system.
pub struct NocSystem {
    /// The network.
    pub noc: Noc,
    /// The NIs, indexed by NI id.
    pub nis: Nis,
    pub(crate) masters: Vec<MasterBinding>,
    pub(crate) slaves: Vec<SlaveBinding>,
    pub(crate) raws: Vec<RawBinding>,
    /// Whether [`Clocked::fast_forward`] may certify and jump; off, every
    /// offer declines at once.
    pub(crate) ff_enabled: bool,
    pub(crate) ff_stats: FfStats,
}

impl std::fmt::Debug for NocSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NocSystem")
            .field("nis", &self.nis.len())
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("raws", &self.raws.len())
            .field("cycle", &self.noc.cycle())
            .finish()
    }
}

impl NocSystem {
    /// Builds the system from a validated spec ("generates the VHDL").
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn from_spec(spec: &NocSpec) -> Self {
        spec.validate().expect("invalid NoC spec");
        let topology = spec.topology.build();
        let noc = Noc::with_config(&topology, spec.noc_config());
        let nis = Nis::new(spec.nis.iter().cloned().map(Ni::new).collect());
        NocSystem {
            noc,
            nis,
            masters: Vec::new(),
            slaves: Vec::new(),
            raws: Vec::new(),
            ff_enabled: spec.fast_forward,
            ff_stats: FfStats::default(),
        }
    }

    /// Binds a master IP to `(ni, port)`. Returns a handle index for
    /// [`NocSystem::master_ip`].
    pub fn bind_master(&mut self, ni: usize, port: usize, ip: Box<dyn MasterIp>) -> usize {
        assert!(
            self.nis[ni].is_master(port),
            "port {port} of NI {ni} is not a master port"
        );
        let clock = ClockDomain::new(self.nis[ni].kernel.port_clock_div(port));
        self.masters.push(MasterBinding {
            ni,
            port,
            clock,
            ip,
        });
        self.masters.len() - 1
    }

    /// Binds a slave IP to `(ni, port)`.
    pub fn bind_slave(&mut self, ni: usize, port: usize, ip: Box<dyn SlaveIp>) -> usize {
        assert!(
            self.nis[ni].is_slave(port),
            "port {port} of NI {ni} is not a slave port"
        );
        let clock = ClockDomain::new(self.nis[ni].kernel.port_clock_div(port));
        self.slaves.push(SlaveBinding {
            ni,
            port,
            clock,
            ip,
        });
        self.slaves.len() - 1
    }

    /// Binds a raw streaming IP to channels of NI `ni`, ticked at the clock
    /// of `port`.
    pub fn bind_raw(
        &mut self,
        ni: usize,
        port: usize,
        channels: Vec<ChannelId>,
        ip: Box<dyn RawIp>,
    ) -> usize {
        let clock = ClockDomain::new(self.nis[ni].kernel.port_clock_div(port));
        self.raws.push(RawBinding {
            ni,
            channels,
            clock,
            ip,
        });
        self.raws.len() - 1
    }

    /// The master IP behind handle `idx`.
    pub fn master_ip(&self, idx: usize) -> &dyn MasterIp {
        self.masters[idx].ip.as_ref()
    }

    /// The raw IP behind handle `idx`.
    pub fn raw_ip(&self, idx: usize) -> &dyn RawIp {
        self.raws[idx].ip.as_ref()
    }

    /// Typed access to a master IP (e.g. to read a
    /// [`TrafficGenerator`](aethereal_proto::TrafficGenerator)'s latency
    /// statistics after a run).
    ///
    /// # Panics
    ///
    /// Panics if the IP is not of type `T`.
    pub fn master_ip_as<T: 'static>(&self, idx: usize) -> &T {
        self.masters[idx]
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("master IP type mismatch")
    }

    /// Typed access to a slave IP.
    ///
    /// # Panics
    ///
    /// Panics if the IP is not of type `T`.
    pub fn slave_ip_as<T: 'static>(&self, idx: usize) -> &T {
        self.slaves[idx]
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("slave IP type mismatch")
    }

    /// Typed access to a raw IP.
    ///
    /// # Panics
    ///
    /// Panics if the IP is not of type `T`.
    pub fn raw_ip_as<T: 'static>(&self, idx: usize) -> &T {
        self.raws[idx]
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("raw IP type mismatch")
    }

    /// Typed access to the first raw IP of type `T` bound at NI `ni` (an
    /// NI may carry several raw IPs, e.g. a stream source and a sink) —
    /// the handle-free lookup mirroring
    /// [`ShardedSystem::raw_ip_as`](crate::ShardedSystem::raw_ip_as).
    ///
    /// # Panics
    ///
    /// Panics if no raw IP of that type is bound there.
    pub fn raw_ip_at<T: 'static>(&self, ni: usize) -> &T {
        self.raws
            .iter()
            .filter(|b| b.ni == ni)
            .find_map(|b| b.ip.as_any().downcast_ref::<T>())
            .unwrap_or_else(|| panic!("no matching raw IP bound at NI {ni}"))
    }

    /// Current network cycle.
    pub fn cycle(&self) -> u64 {
        self.noc.cycle()
    }

    /// Advances the whole system by one network cycle (a thin wrapper over
    /// [`Engine::tick`]).
    pub fn tick(&mut self) {
        Engine::tick(self);
    }

    // ---- Fault injection & detection (see `noc_sim::fault`) -----------

    /// Arms a deterministic fault plan on the network (see
    /// [`Noc::arm_faults`]). While armed — even after every window expires
    /// — the system never fast-forwards: probabilistic drops are invisible
    /// to the periodicity digests, so certification is conservatively
    /// declined until [`NocSystem::disarm_faults`].
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed.
    pub fn arm_faults(&mut self, plan: &noc_sim::FaultPlan) {
        self.noc.arm_faults(plan);
    }

    /// Drops the armed fault machinery, restoring the fault-free hot path
    /// and fast-forward eligibility.
    pub fn disarm_faults(&mut self) {
        self.noc.disarm_faults();
    }

    /// Whether fault machinery is armed.
    pub fn fault_armed(&self) -> bool {
        self.noc.fault_armed()
    }

    /// The detection report: the network's suspect links and GT watchdog
    /// counters ([`Noc::fault_report`]) plus the NIs' destination-side
    /// drop counters — everything
    /// [`RuntimeConfigurator::heal`](crate::runtime::RuntimeConfigurator::heal)
    /// needs to re-plan around the failures.
    pub fn fault_report(&self) -> noc_sim::FaultReport {
        let mut report = self.noc.fault_report();
        report.ni_rx_drops = self.nis.iter().map(|ni| ni.kernel.stats().rx_drops).sum();
        report
    }

    /// Runs `n` cycles through [`Engine::run_ff`]: the quiescent fast
    /// path, plus the fast-forward backend where it is enabled
    /// ([`NocSystem::set_fast_forward`], or the spec's `fast_forward`
    /// flag) — disabled, each offer declines at its first gate.
    /// Bit-identical either way. For a predicate-driven run use
    /// `Engine::run_until(&mut sys, pred, max)`.
    pub fn run(&mut self, n: u64) {
        Engine::run_ff(self, n);
    }

    /// Whether every bound master and raw IP reports `done()`.
    pub fn all_ips_done(&self) -> bool {
        self.masters.iter().all(|b| b.ip.done()) && self.raws.iter().all(|b| b.ip.done())
    }

    // ---- Analytical GT fast-forward (see `noc_sim::ff`) ---------------

    /// Enables (or disables) the analytical fast-forward backend for
    /// subsequent [`NocSystem::run`] calls.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.ff_enabled = on;
    }

    /// Cumulative fast-forward activity (jumps applied, cycles covered).
    pub fn ff_stats(&self) -> FfStats {
        self.ff_stats
    }

    /// The gates an offer passes before its probe. The proof of
    /// periodicity is the digest, which sees every walked field; a gate
    /// only declines early, and the fallback is cycle-accurate ticking:
    /// - `ff_enabled`: the spec's `fast_forward` knob (always off in a
    ///   shard region, which is never offered a jump);
    /// - no master or slave binding: [`NocSystem::ff_walk`] does not walk
    ///   them, so the digest could not see their state. A shell workload
    ///   declines here at no cost;
    /// - [`Noc::be_quiet`]: a cost filter. BE state is walked like any
    ///   other, but a busy BE network seldom certifies, and on a BE stream
    ///   mesh the digests of each declined offer cost more than the scan
    ///   (fast-forward on over off about 1.1× at 8×8 and 1.18× at 16×16
    ///   without it, 1.0× with it).
    ///
    /// Nothing else is asked. Armed faults, thresholds, flushes, CNIP
    /// operations and responses awaited by a shell are walked, and a state
    /// that does not repeat fails certification.
    fn ff_eligible(&self) -> bool {
        self.ff_enabled && self.masters.is_empty() && self.slaves.is_empty() && self.noc.be_quiet()
    }

    /// The candidate period: every NI's slot-table rotation
    /// (`stu_slots × SLOT_WORDS` base cycles) composed with every raw
    /// IP's port-clock divider, so one period contains a whole number of
    /// rotations of every TDM table *and* a whole number of ticks of
    /// every IP.
    fn ff_period(&self) -> u64 {
        let mut p = 1u64;
        for ni in &self.nis {
            p = ff::lcm(p, ni.kernel.spec().stu_slots as u64 * SLOT_WORDS);
        }
        for b in &self.raws {
            p = ff::lcm(p, u64::from(b.clock.div()));
        }
        p
    }

    /// GT-invariant violation counters (conflicts, overflows, orphans).
    /// A broken schedule (a corrupted slot table) can be periodic, and its
    /// counters would certify like any other; any growth during the probe
    /// refuses the jump by policy, so a violating run stays cycle-accurate
    /// and each violation is observed at its true cycle.
    fn ff_violations(&self) -> u64 {
        self.noc.gt_conflicts()
            + self.noc.be_overflows()
            + self
                .noc
                .routers()
                .iter()
                .map(Router::gt_orphans)
                .sum::<u64>()
    }

    /// One deterministic traversal of the complete dynamic state, for the
    /// fast-forward visitors: the network and the NIs through the same
    /// state walk a snapshot takes, the raw IPs through their opt-in
    /// [`RawIp::ff_visit`](aethereal_proto::RawIp::ff_visit) (an unaudited
    /// model rejects). Masters and slaves are pre-gated empty. The visitor
    /// is a static type, so the network and NI walks inline its calls; it
    /// is `Sized` so the raw IPs can still take it as `&mut dyn StateVisit`.
    fn ff_walk<V: StateVisit>(&mut self, v: &mut V) {
        self.noc.walk(v);
        for ni in &mut self.nis {
            ni.walk(v);
        }
        for b in &mut self.raws {
            b.ip.ff_visit(v);
        }
    }

    /// The periodicity certificate's view of the system at this cycle:
    /// every field of the state walk, classified. Two systems of one
    /// structure are in the same state exactly when their digests are
    /// equal.
    pub fn ff_digest(&mut self) -> FfDigest {
        let mut d = FfDigest::new(self.cycle());
        self.ff_walk(&mut d);
        d
    }
}

/// Which bound IPs a cycle ticks. An IP ticks on its port-clock edge while
/// its NI can act — awake, or touched by the network — and once its own
/// horizon (`idle_until`, see [`MasterIp::idle_until`]) is reached. Any
/// other tick would be a no-op: an inert NI holds nothing for its IPs
/// ([`Ni::inert`]), and before its horizon an IP starts nothing on its own
/// — the contract every IP model keeps.
struct IpGate<'a> {
    awake: &'a mut BitSet,
    noc: &'a Noc,
    cycle: u64,
}

impl IpGate<'_> {
    /// Whether an IP bound to NI `ni`, whose horizon `idle_until` reports,
    /// ticks on this edge.
    #[inline]
    fn ticks(&self, ni: usize, idle_until: impl FnOnce(u64) -> u64) -> bool {
        self.awake.contains(ni)
            || self.noc.ni_touched().contains(ni)
            || idle_until(self.cycle) <= self.cycle
    }

    /// Wakes NI `i` if the IP that just ticked against it left it able to
    /// act: the IP reaches its NI past the container's marking. A tick that
    /// left the NI inert (a source refused by a full queue) wakes nothing.
    #[inline]
    fn ticked(&mut self, i: usize, ni: &Ni) {
        if !self.awake.contains(i) && !ni.inert(self.noc.ni_link(i)) {
            self.awake.insert(i);
        }
    }
}

/// The whole system on the engine contract. The emit phase serializes
/// exactly like the seed's hand-rolled loop: IPs tick against their port
/// stacks on their port clocks, every NI ticks against its link (shells,
/// then kernel absorb/emit), and the network's routers and staging
/// registers place this cycle's words on the wires. The absorb phase is the
/// network's: wires register into router inputs and NI inboxes, credits
/// return, the cycle completes.
impl Clocked for NocSystem {
    fn now(&self) -> u64 {
        self.noc.cycle()
    }

    fn emit(&mut self) {
        let cycle = self.noc.cycle();
        debug_assert!(
            self.nis.sleepers_inert(&self.noc),
            "an NI outside the awake and touched sets can act"
        );
        let Nis { list, awake } = &mut self.nis;
        let mut gate = IpGate {
            awake,
            noc: &self.noc,
            cycle,
        };
        for b in &mut self.masters {
            if b.clock.ticks_at(cycle) && gate.ticks(b.ni, |now| b.ip.idle_until(now)) {
                b.ip.tick(list[b.ni].master_mut(b.port), cycle);
                gate.ticked(b.ni, &list[b.ni]);
            }
        }
        for b in &mut self.slaves {
            if b.clock.ticks_at(cycle) && gate.ticks(b.ni, |now| b.ip.idle_until(now)) {
                b.ip.tick(list[b.ni].slave_mut(b.port), cycle);
                gate.ticked(b.ni, &list[b.ni]);
            }
        }
        for b in &mut self.raws {
            if b.clock.ticks_at(cycle) && gate.ticks(b.ni, |now| b.ip.idle_until(now)) {
                let port = &mut RawPort {
                    kernel: &mut list[b.ni].kernel,
                    channels: &b.channels,
                };
                b.ip.tick(port, cycle);
                gate.ticked(b.ni, &list[b.ni]);
            }
        }
        self.nis.tick(&mut self.noc, cycle);
        self.noc.emit();
    }

    fn absorb(&mut self) {
        self.noc.absorb();
    }

    /// The earliest cycle at which anything could act on its own, `now`
    /// at the first part that is active. The system is dormant while the
    /// network carries nothing except scheduled GT emissions waiting for
    /// their due cycle, every NI is dormant (shell stacks idle, kernel
    /// strictly drained or holding only GT data that cannot move before
    /// its next reserved slot) and every IP is idle
    /// ([`MasterIp::idle_until`] and friends; the horizon is rounded up to
    /// the port clock's next edge, since an IP is only ticked on edges) —
    /// then only time-derived counters (cycle, reserved-but-unused GT
    /// slots) can change before the horizon, which
    /// [`skip`](Clocked::skip) computes directly. Only awake NIs are
    /// asked: every other NI was inert after its last tick and nothing but
    /// an inbox word — which the network answers for — has reached it
    /// since.
    fn dormant_until(&self, now: u64) -> u64 {
        // An idle IP cannot act before its port clock's next edge.
        let at_edge = |clock: ClockDomain, at: u64| {
            if at > now && at != u64::MAX {
                clock.next_edge(at)
            } else {
                at
            }
        };
        let masters = self.masters.iter().map(|b| (b.clock, b.ip.idle_until(now)));
        let slaves = self.slaves.iter().map(|b| (b.clock, b.ip.idle_until(now)));
        let raws = self.raws.iter().map(|b| (b.clock, b.ip.idle_until(now)));
        let ips = masters
            .chain(slaves)
            .chain(raws)
            .map(|(clock, at)| at_edge(clock, at));
        let Nis { list, awake } = &self.nis;
        // Network first: it answers from its activity sets, and during a
        // configuration wait it is the active part. Each IP costs a
        // virtual call, so the IPs come last.
        let mut parts = std::iter::once(self.noc.dormant_until(now))
            .chain(awake.iter().map(|i| list[i].dormant_until(now)))
            .chain(ips);
        // The minimum over the parts, stopping at the first active one.
        let horizon = parts.try_fold(u64::MAX, |h, at| (at > now).then_some(h.min(at)));
        horizon.unwrap_or(now)
    }

    /// Skips the awake NIs and the network. The other NIs are inert: they
    /// have no time-derived state, and leaving them untouched keeps them
    /// asleep.
    fn skip(&mut self, cycles: u64) {
        let from = self.noc.cycle();
        let Nis { list, awake } = &mut self.nis;
        for i in awake.iter() {
            ClockedWith::skip(&mut list[i], from, cycles);
        }
        self.noc.skip(cycles);
    }

    /// The analytical GT fast-forward backend: certify-then-extrapolate.
    /// After the gates of `ff_eligible` pass, the system is ticked cycle-
    /// accurately for two full periods, capturing a state digest at each
    /// period boundary. If the three digests certify as periodic (control
    /// state repeats exactly, counters and queued values advance by
    /// identical deltas, stamps slide by exactly one period —
    /// [`ff::periodic_deltas`]), the remaining whole periods are applied
    /// arithmetically in one state walk. Anything else declines, and
    /// [`Engine::run_ff`] falls back to cycle-accurate ticking — so the
    /// backend is bit-identical by construction: it only ever skips work
    /// it has proven repetitive.
    fn fast_forward(&mut self, max: u64) -> FfOutcome {
        if !self.ff_eligible() {
            return FfOutcome::DECLINED;
        }
        let period = self.ff_period();
        if period == 0 || period > ff::FF_MAX_PERIOD || max < 3 * period {
            return FfOutcome::DECLINED;
        }
        let violations = self.ff_violations();
        let d0 = self.ff_digest();
        if d0.rejected() {
            return FfOutcome::DECLINED;
        }
        // Probe: two real rotations, digesting after each.
        Engine::run(self, period);
        let d1 = self.ff_digest();
        Engine::run(self, period);
        let d2 = self.ff_digest();
        let advanced = 2 * period;
        let ticked = FfOutcome {
            advanced,
            jumped: 0,
        };
        // Policy, not proof: a broken schedule stays cycle-accurate.
        if self.ff_violations() != violations {
            return ticked;
        }
        let Some(deltas) = ff::periodic_deltas(&d0, &d1, &d2) else {
            return ticked;
        };
        let k = (max - advanced) / period;
        if k == 0 {
            return ticked;
        }
        // Apply: replay the certified per-period deltas k times in one
        // identical traversal of the same state that produced d2.
        let mut apply = ff::FfApply::new(&deltas, k);
        self.ff_walk(&mut apply);
        debug_assert!(apply.matched(), "apply traversal diverged from digest");
        self.ff_stats.jumps += 1;
        self.ff_stats.cycles_jumped += k * period;
        FfOutcome {
            advanced: advanced + k * period,
            jumped: k * period,
        }
    }
}

/// A `NocSystem` is a shard region: a partition of a larger mesh (or a
/// whole standalone system) driven by the lockstep
/// [`ShardRunner`](noc_sim::shard::ShardRunner), whose exchange arena its
/// network's cut ports write and read.
impl ShardRegion for NocSystem {
    fn adopt_exchange(&mut self, exchange: ExchangeAttachment) {
        self.noc.attach_exchange(exchange);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::spec::TopologySpec;

    fn small_system() -> NocSystem {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            vec![presets::master_ni(0), presets::slave_ni(1)],
        );
        NocSystem::from_spec(&spec)
    }

    #[test]
    fn builds_and_ticks() {
        let mut sys = small_system();
        sys.run(10);
        assert_eq!(sys.cycle(), 10);
        assert_eq!(sys.noc.gt_conflicts(), 0);
    }

    #[test]
    fn engine_until_stops_early() {
        let mut sys = small_system();
        let met = Engine::run_until(&mut sys, |s| s.cycle() >= 5, 100);
        assert!(met);
        assert_eq!(sys.cycle(), 5);
    }

    #[test]
    fn engine_until_times_out() {
        let mut sys = small_system();
        let met = Engine::run_until(&mut sys, |_| false, 7);
        assert!(!met);
        assert_eq!(sys.cycle(), 7);
    }

    /// A 2x1 mesh of raw streaming NIs with a **GT** channel NI 0 → NI 1
    /// (4 of 8 slots reserved) and a GT credit-return channel NI 1 → NI 0
    /// (2 slots): a [`StreamSource`] of `total` words feeds a counting
    /// sink. The raw ports tick at div 4, so production (6 words per
    /// 24-cycle slot rotation) never outruns the reserved GT bandwidth —
    /// the steady state is exactly periodic.
    fn gt_stream_system(total: u64) -> NocSystem {
        use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
        use aethereal_ni::kernel::{chan_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg};
        use aethereal_proto::{CountingSink, StreamSource};

        let mut spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            (0..2).map(|id| presets::raw_ni(id, 1)).collect(),
        );
        for ni in &mut spec.nis {
            ni.kernel.ports[1].clock_div = 4;
        }
        let topo = spec.topology.build();
        let mut sys = NocSystem::from_spec(&spec);
        let p = topo.route(0, 1).unwrap();
        let rev = topo.route(1, 0).unwrap();
        for (ni, path, slots) in [(0, &p, &[0usize, 2, 4, 6][..]), (1, &rev, &[1, 5][..])] {
            let k = &mut sys.nis[ni].kernel;
            k.reg_write(chan_reg_addr(1, ChanReg::Ctrl), CTRL_ENABLE | CTRL_GT)
                .unwrap();
            k.reg_write(chan_reg_addr(1, ChanReg::Space), 8).unwrap();
            k.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(path, 1))
                .unwrap();
            for &s in slots {
                k.reg_write(slot_reg_addr(s), 2).unwrap();
            }
        }
        sys.bind_raw(0, 1, vec![1], Box::new(StreamSource::counting(total)));
        sys.bind_raw(1, 1, vec![1], Box::new(CountingSink::new()));
        sys
    }

    /// Full-state snapshot via the fast-forward visitor: every field the
    /// digest classifies, rendered through `Debug`. Two systems at the same
    /// cycle are wire-identical iff their snapshots match.
    fn ff_snapshot(sys: &mut NocSystem) -> String {
        format!("{:?}", sys.ff_digest())
    }

    #[test]
    fn fast_forward_is_bit_identical_on_pure_gt_stream() {
        use aethereal_proto::CountingSink;
        let mut ff = gt_stream_system(u64::MAX);
        let mut cc = gt_stream_system(u64::MAX);
        ff.set_fast_forward(true);
        assert!(ff.ff_enabled);
        ff.run(50_000);
        cc.run(50_000);
        assert_eq!(ff.cycle(), cc.cycle());
        assert!(ff.ff_stats().jumps > 0, "endless GT stream must certify");
        assert!(ff.ff_stats().cycles_jumped > 0);
        let (fs, cs) = (
            ff.raw_ip_at::<CountingSink>(1),
            cc.raw_ip_at::<CountingSink>(1),
        );
        assert_eq!(fs.count(), cs.count());
        assert_eq!(fs.last(), cs.last());
        assert!(fs.count() > 1_000, "stream actually flowed");
        assert_eq!(ff_snapshot(&mut ff), ff_snapshot(&mut cc));
    }

    #[test]
    fn bounded_stream_declines_but_stays_correct() {
        use aethereal_proto::CountingSink;
        let mut ff = gt_stream_system(200);
        let mut cc = gt_stream_system(200);
        ff.set_fast_forward(true);
        ff.run(5_000);
        cc.run(5_000);
        assert_eq!(
            ff.ff_stats().jumps,
            0,
            "bounded source rejects the digest: no jump may certify"
        );
        assert_eq!(
            ff.raw_ip_at::<CountingSink>(1).count(),
            cc.raw_ip_at::<CountingSink>(1).count()
        );
        assert_eq!(ff.raw_ip_at::<CountingSink>(1).count(), 200);
        assert_eq!(ff_snapshot(&mut ff), ff_snapshot(&mut cc));
    }

    #[test]
    fn fast_forward_spec_flag_propagates() {
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 2,
                height: 1,
                nis_per_router: 1,
            },
            vec![presets::master_ni(0), presets::slave_ni(1)],
        )
        .with_fast_forward(true);
        let sys = NocSystem::from_spec(&spec);
        assert!(sys.ff_enabled);
        let sys2 = NocSystem::from_spec(&NocSpec::from_json(&spec.to_json().unwrap()).unwrap());
        assert!(sys2.ff_enabled);
    }

    /// The NIs the next emit ticks, unless an IP wakes one.
    fn to_tick(sys: &NocSystem) -> Vec<usize> {
        let touched = sys.noc.ni_touched();
        (0..sys.nis.len())
            .filter(|&i| sys.nis.awake.contains(i) || touched.contains(i))
            .collect()
    }

    /// A memory that logs the cycles it ticks at, and the cycles it
    /// accepts a request and retires a response at.
    struct LoggedMemory {
        mem: aethereal_proto::MemorySlave,
        ticks: Vec<u64>,
        accepted: Vec<u64>,
        retired: Vec<u64>,
    }

    impl ClockedWith<aethereal_ni::shell::SlaveStack> for LoggedMemory {
        fn absorb(&mut self, port: &mut aethereal_ni::shell::SlaveStack, now: u64) {
            self.ticks.push(now);
            // A response whose latency has elapsed retires in this absorb.
            if self.mem.idle_until(now) == now {
                self.retired.push(now);
            }
            self.mem.absorb(port, now);
        }

        fn emit(&mut self, port: &mut aethereal_ni::shell::SlaveStack, now: u64) {
            let reads = self.mem.reads();
            self.mem.emit(port, now);
            if self.mem.reads() != reads {
                self.accepted.push(now);
            }
        }
    }

    impl SlaveIp for LoggedMemory {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn idle_until(&self, now: u64) -> u64 {
            self.mem.idle_until(now)
        }
    }

    /// Ticks `sys` until no NI is left to tick and nothing can ever act
    /// on its own.
    fn settle(sys: &mut NocSystem) {
        let settled =
            |s: &NocSystem| to_tick(s).is_empty() && s.dormant_until(s.cycle()) == u64::MAX;
        for _ in 0..100 {
            if settled(sys) {
                return;
            }
            sys.tick();
        }
        panic!("not settled after 100 cycles");
    }

    #[test]
    fn an_idle_bound_memory_ticks_neither_its_ni_nor_itself_until_a_request_comes() {
        use crate::runtime::{ChannelEnd, ConnectionRequest, RuntimeConfigurator};
        use aethereal_ni::transaction::Transaction;
        use aethereal_proto::{MemorySlave, Trace, TraceEntry, TraceMaster};
        let spec = NocSpec::new(
            TopologySpec::Mesh {
                width: 8,
                height: 8,
                nis_per_router: 2,
            },
            (0..128)
                .map(|id| match id {
                    0 => presets::cfg_module_ni(0, 4),
                    _ if id % 2 == 1 => presets::master_ni(id),
                    _ => presets::slave_ni(id),
                })
                .collect(),
        );
        let mut sys = NocSystem::from_spec(&spec);
        assert_eq!(to_tick(&sys).len(), 128, "born awake");
        // The first tick ends with everything moved, the second settles.
        sys.tick();
        sys.tick();
        for _ in 0..100 {
            assert_eq!(to_tick(&sys), Vec::<usize>::new());
            sys.tick();
        }
        // Reads wake nothing; `&mut` access wakes what it reaches.
        assert_eq!(sys.nis[9].kernel.stats().packets_tx, [0, 0]);
        let configurable = sys
            .nis
            .iter()
            .filter(|ni| ni.kernel.spec().cnip_channel.is_some());
        assert_eq!(configurable.count(), 127);
        assert_eq!(to_tick(&sys), Vec::<usize>::new());
        let _ = &mut sys.nis[9];
        assert_eq!(to_tick(&sys), vec![9]);
        sys.tick();
        assert_eq!(to_tick(&sys), Vec::<usize>::new(), "asleep again");
        let _ = sys.nis.iter_mut();
        assert_eq!(to_tick(&sys).len(), 128);
        sys.tick();
        assert_eq!(to_tick(&sys), Vec::<usize>::new());
        // A BE connection from the master on NI 5 to the slave on NI 6,
        // then a memory on NI 6 and, on NI 5, a trace that reads once at
        // cycle `at`.
        let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
        let req = ConnectionRequest::best_effort(
            ChannelEnd { ni: 5, channel: 1 },
            ChannelEnd { ni: 6, channel: 1 },
        );
        cfg.open_connection(&mut sys, &req).expect("opens");
        // The open's last posted write lands; then nothing can ever act.
        settle(&mut sys);
        let at = sys.cycle() + 200;
        let memory = LoggedMemory {
            mem: MemorySlave::new(3),
            ticks: Vec::new(),
            accepted: Vec::new(),
            retired: Vec::new(),
        };
        sys.bind_slave(6, 1, Box::new(memory));
        let read = TraceEntry {
            at_cycle: at,
            transaction: Transaction::read(0x10, 2, 1),
        };
        sys.bind_master(5, 1, Box::new(TraceMaster::new(Trace::new(vec![read]))));
        let log = |sys: &NocSystem| sys.slave_ip_as::<LoggedMemory>(0).ticks.clone();
        // Idle and bound: neither the NIs nor their IPs tick.
        while sys.cycle() < at {
            assert_eq!(to_tick(&sys), Vec::<usize>::new());
            sys.tick();
        }
        assert!(log(&sys).is_empty(), "the memory slept");
        // The trace's horizon wakes the master and NI 5.
        sys.tick();
        assert_eq!(to_tick(&sys), vec![5]);
        // The request reaching NI 6 wakes the NI and, that cycle, the memory.
        while !to_tick(&sys).contains(&6) {
            assert!(log(&sys).is_empty() && sys.cycle() < at + 100);
            sys.tick();
        }
        let arrival = sys.cycle();
        sys.tick();
        assert_eq!(log(&sys), vec![arrival]);
        let done = Engine::run_until(&mut sys, |s| s.all_ips_done(), 1_000);
        assert!(done, "the read completed");
        let m = sys.slave_ip_as::<LoggedMemory>(0);
        assert_eq!(m.accepted.len(), 1);
        assert_eq!(
            m.retired,
            vec![m.accepted[0] + 3],
            "picked up exactly at its ready cycle"
        );
        let tm = sys.master_ip_as::<TraceMaster>(0);
        assert_eq!(tm.completed(), 1);
        // Everything falls asleep again.
        settle(&mut sys);
        let ticked = log(&sys).len();
        for _ in 0..50 {
            sys.tick();
            assert_eq!(to_tick(&sys), Vec::<usize>::new());
        }
        assert_eq!(log(&sys).len(), ticked, "bound, yet not ticked");
        assert!(sys.nis[6].inert(sys.noc.ni_link(6)));
        assert!(Clocked::quiescent(&sys));
    }

    #[test]
    #[should_panic(expected = "not a master port")]
    fn bind_master_to_slave_port_panics() {
        let mut sys = small_system();
        struct Dummy;
        impl ClockedWith<aethereal_ni::shell::MasterStack> for Dummy {
            fn absorb(&mut self, _: &mut aethereal_ni::shell::MasterStack, _: u64) {}
            fn emit(&mut self, _: &mut aethereal_ni::shell::MasterStack, _: u64) {}
        }
        impl MasterIp for Dummy {
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        sys.bind_master(1, 1, Box::new(Dummy));
    }
}
