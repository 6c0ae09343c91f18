//! Deterministic, seedable fault injection.
//!
//! A [`FaultPlan`] is a schedule of fault events — link stuck/flaky windows,
//! router stalls, credit loss, slot-table bit corruption — that a [`Noc`]
//! arms via [`Noc::arm_faults`]. Armed faults hook the **emit** phase: after
//! each router produces its cycle's emissions, the active events filter (or
//! corrupt) the words and best-effort credit returns crossing the faulty
//! port, before they reach a wire, boundary register or exchange-arena ring.
//! Because the filter acts at the emission site — keyed by the router's
//! *global* id, which survives [`Noc::split`] — a fault on a cut wire
//! produces exactly the same word stream whether the network runs
//! monolithically or sharded: the arena ring simply never sees the dropped
//! word.
//!
//! [`Noc`]: crate::Noc
//! [`Noc::arm_faults`]: crate::Noc::arm_faults
//! [`Noc::split`]: crate::Noc::split
//!
//! Everything is deterministic. Probabilistic events ([`FaultKind::LinkFlaky`])
//! roll a per-event [`Rng64`] seeded from the plan seed and the event's plan
//! index, and the generator advances once per **word** crossing the faulty
//! port — never per cycle — so quiescent skips, batched shard epochs and
//! fast-forward-free replays all see the identical drop pattern. The dynamic
//! remainder (generator states, health counters, the next-activation cache)
//! rides the state walk ([`crate::persist`]), so a snapshot taken
//! mid-fault restores onto an identically-armed network and replays
//! bit-identically.
//!
//! Detection is surfaced through [`FaultReport`]: per-link health counters
//! (words dropped, words corrupted, credits lost — maintained by the
//! injection filter itself, standing in for the CRC/timeout machinery a
//! physical link would have) plus the routers' GT-violation watchdog
//! counters, which are genuine symptom counters independent of the plan.
//! The `aethereal-cfg` crate consumes the report: `Topology` link masks,
//! `RuntimeConfigurator::heal`, and re-certification live there.

use crate::path::PortIdx;
use crate::rng::Rng64;
use crate::router::EmitResult;
use crate::topology::RouterId;

/// Denominator of the [`FaultKind::LinkFlaky`] drop probability: a
/// `drop_ppm` of `1_000_000` drops every word.
pub const PPM_SCALE: u64 = 1_000_000;

/// What a scheduled fault does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The directed link leaving `(router, port)` is stuck: every word
    /// emitted through the port is dropped.
    LinkStuck,
    /// The directed link drops each word independently with probability
    /// `drop_ppm` / [`PPM_SCALE`], rolled on the event's own deterministic
    /// generator (advanced once per word, never per cycle).
    LinkFlaky {
        /// Per-word drop probability in parts per million (≥ `1_000_000`
        /// drops everything).
        drop_ppm: u32,
    },
    /// The whole router's output stage is stalled: every emission on every
    /// port is dropped for the window. The event's `port` is ignored.
    RouterStall,
    /// Link-level BE credit returns earned by dequeues at input `port` are
    /// swallowed (up to `max` in total), starving the upstream producer's
    /// credit window — the flow-control half of a degrading link.
    CreditLoss {
        /// Total credits the event may swallow across its window.
        max: u32,
    },
    /// Every word crossing the port has `xor` XOR-ed into its 32-bit data —
    /// the wire-visible effect of slot-table/payload bit corruption
    /// (control bits stay intact; a corrupted *header* misroutes or
    /// misaddresses downstream, which the NI surfaces as `rx_drops`).
    SlotCorrupt {
        /// Bit pattern XOR-ed into each word.
        xor: u32,
    },
}

/// One scheduled fault: a kind, a location and a half-open cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What happens.
    pub kind: FaultKind,
    /// Router whose emissions are affected (**global** id — stable across
    /// [`Noc::split`](crate::Noc::split)).
    pub router: RouterId,
    /// Output port ([`FaultKind::CreditLoss`]: input port; ignored for
    /// [`FaultKind::RouterStall`]).
    pub port: PortIdx,
    /// First faulty cycle (inclusive).
    pub from: u64,
    /// First healthy cycle again (exclusive end of the window).
    pub until: u64,
}

impl FaultEvent {
    /// Whether the window covers `cycle`.
    #[inline]
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// A deterministic, seedable schedule of fault events.
///
/// Build one with the fluent helpers and arm it on a network (or on every
/// shard of a sharded system) — identical plans with identical seeds yield
/// bit-identical fault timelines on every platform and shard layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan. Arming it injects nothing but still marks the network
    /// faulted (fast-forward declines; useful for measuring hook overhead).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Rebuilds a plan from its parts (the JSON decoder's entry point).
    pub fn from_parts(seed: u64, events: Vec<FaultEvent>) -> Self {
        FaultPlan { seed, events }
    }

    /// The seed all per-event generators derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in plan order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds a raw event.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Schedules a stuck link: all words out of `(router, port)` dropped
    /// for cycles `[from, until)`.
    pub fn link_stuck(
        &mut self,
        router: RouterId,
        port: PortIdx,
        from: u64,
        until: u64,
    ) -> &mut Self {
        self.push(FaultEvent {
            kind: FaultKind::LinkStuck,
            router,
            port,
            from,
            until,
        })
    }

    /// Schedules a flaky link: each word out of `(router, port)` dropped
    /// with probability `drop_ppm` / [`PPM_SCALE`] for cycles `[from, until)`.
    pub fn link_flaky(
        &mut self,
        router: RouterId,
        port: PortIdx,
        from: u64,
        until: u64,
        drop_ppm: u32,
    ) -> &mut Self {
        self.push(FaultEvent {
            kind: FaultKind::LinkFlaky { drop_ppm },
            router,
            port,
            from,
            until,
        })
    }

    /// Schedules a router output stall: all emissions of `router` dropped
    /// for cycles `[from, until)`.
    pub fn router_stall(&mut self, router: RouterId, from: u64, until: u64) -> &mut Self {
        self.push(FaultEvent {
            kind: FaultKind::RouterStall,
            router,
            port: 0,
            from,
            until,
        })
    }

    /// Schedules credit loss: up to `max` BE credit returns earned at input
    /// `(router, port)` are swallowed during `[from, until)`.
    pub fn credit_loss(
        &mut self,
        router: RouterId,
        port: PortIdx,
        from: u64,
        until: u64,
        max: u32,
    ) -> &mut Self {
        self.push(FaultEvent {
            kind: FaultKind::CreditLoss { max },
            router,
            port,
            from,
            until,
        })
    }

    /// Schedules bit corruption: `xor` XOR-ed into every word crossing
    /// `(router, port)` during `[from, until)`.
    pub fn slot_corrupt(
        &mut self,
        router: RouterId,
        port: PortIdx,
        from: u64,
        until: u64,
        xor: u32,
    ) -> &mut Self {
        self.push(FaultEvent {
            kind: FaultKind::SlotCorrupt { xor },
            router,
            port,
            from,
            until,
        })
    }
}

/// One armed event: the scheduled [`FaultEvent`] plus its dynamic state —
/// the per-event generator and the health counters the injection filter
/// maintains. The event and plan index are structural (they come from the
/// armed plan); the generator and counters ride the state walk.
#[derive(Debug, Clone)]
struct ArmedFault {
    event: FaultEvent,
    /// Position in the original plan: seeds the generator and keys the
    /// report entry, stable across shard distribution.
    index: usize,
    rng: Rng64,
    dropped_words: u64,
    corrupted_words: u64,
    lost_credits: u64,
}

impl ArmedFault {
    fn arm(plan_seed: u64, index: usize, event: FaultEvent) -> Self {
        // An injective per-event seed derivation (golden-ratio stride, the
        // SplitMix64 increment) keeps sibling event streams decorrelated.
        let seed = plan_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ArmedFault {
            event,
            index,
            rng: Rng64::seed_from_u64(seed),
            dropped_words: 0,
            corrupted_words: 0,
            lost_credits: 0,
        }
    }

    /// Whether the event has affected any traffic yet.
    fn touched(&self) -> bool {
        self.dropped_words > 0 || self.corrupted_words > 0 || self.lost_credits > 0
    }
}

/// The armed fault machinery a [`Noc`] carries: the plan's events with
/// their dynamic state, plus a next-activation cache that keeps the
/// armed-but-idle emit path to a single comparison per cycle.
///
/// [`Noc`]: crate::Noc
#[derive(Debug, Clone)]
pub struct FaultState {
    events: Vec<ArmedFault>,
    /// Earliest upcoming cycle at which any event window is open; `0`
    /// forces the first [`FaultState::begin_cycle`] to compute it.
    next_active: u64,
}

impl FaultState {
    /// Arms every event of `plan`.
    pub fn arm(plan: &FaultPlan) -> Self {
        Self::arm_filtered(plan, |_| true)
    }

    /// Arms only the events whose router is in the **sorted** `owned` list —
    /// the shard-distribution entry point. Original plan indices (and thus
    /// generator seeds and report keys) are preserved.
    pub fn arm_for(plan: &FaultPlan, owned: &[RouterId]) -> Self {
        Self::arm_filtered(plan, |r| owned.binary_search(&r).is_ok())
    }

    fn arm_filtered(plan: &FaultPlan, keep: impl Fn(RouterId) -> bool) -> Self {
        FaultState {
            events: plan
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| keep(e.router))
                .map(|(i, e)| ArmedFault::arm(plan.seed, i, *e))
                .collect(),
            next_active: 0,
        }
    }

    /// Splits off the events owned by the **sorted** router list, moving
    /// their dynamic state (generator position, counters) unchanged — the
    /// [`Noc::split`](crate::Noc::split) distribution step.
    pub fn extract_owned(&mut self, owned: &[RouterId]) -> FaultState {
        let mut taken = Vec::new();
        self.events.retain_mut(|a| {
            if owned.binary_search(&a.event.router).is_ok() {
                taken.push(a.clone());
                false
            } else {
                true
            }
        });
        self.next_active = 0;
        FaultState {
            events: taken,
            next_active: 0,
        }
    }

    /// Whether any armed event is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Called once at the top of each emit phase. Returns whether any event
    /// window covers `cycle`; off the active windows this is a single
    /// comparison against the cached next activation cycle.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) -> bool {
        if cycle < self.next_active {
            return false;
        }
        let mut any = false;
        let mut next = u64::MAX;
        for a in &self.events {
            if a.event.active_at(cycle) {
                any = true;
            }
            if a.event.until > cycle + 1 {
                next = next.min(a.event.from.max(cycle + 1));
            }
        }
        self.next_active = next;
        any
    }

    /// Applies every event active at `cycle` and located at `router`
    /// (global id) to the router's freshly-produced emissions and BE
    /// dequeues, in plan order. Drops and corruptions are tallied into the
    /// per-event health counters. Allocation-free: filtering retains in
    /// place on the caller's reusable buffers.
    pub fn filter(&mut self, router: RouterId, cycle: u64, result: &mut EmitResult) {
        for a in &mut self.events {
            if a.event.router != router || !a.event.active_at(cycle) {
                continue;
            }
            match a.event.kind {
                FaultKind::RouterStall => {
                    a.dropped_words += result.emissions.len() as u64;
                    result.emissions.clear();
                }
                FaultKind::LinkStuck => {
                    let port = a.event.port;
                    let before = result.emissions.len();
                    result.emissions.retain(|e| e.port != port);
                    a.dropped_words += (before - result.emissions.len()) as u64;
                }
                FaultKind::LinkFlaky { drop_ppm } => {
                    let port = a.event.port;
                    let rng = &mut a.rng;
                    let mut dropped = 0u64;
                    result.emissions.retain(|e| {
                        if e.port != port {
                            return true;
                        }
                        if rng.below(PPM_SCALE) < u64::from(drop_ppm) {
                            dropped += 1;
                            false
                        } else {
                            true
                        }
                    });
                    a.dropped_words += dropped;
                }
                FaultKind::SlotCorrupt { xor } => {
                    for e in &mut result.emissions {
                        if e.port == a.event.port {
                            e.word = e.word.with_word(e.word.word() ^ xor);
                            a.corrupted_words += 1;
                        }
                    }
                }
                FaultKind::CreditLoss { max } => {
                    let port = a.event.port;
                    let budget = u64::from(max).saturating_sub(a.lost_credits);
                    if budget == 0 {
                        continue;
                    }
                    let mut lost = 0u64;
                    result.be_dequeues.retain(|&p| {
                        if p == port && lost < budget {
                            lost += 1;
                            false
                        } else {
                            true
                        }
                    });
                    a.lost_credits += lost;
                }
            }
        }
    }

    /// Folds each event's location, window state and health counters into
    /// `report`. `cycle` decides the `active` flag; `upstream_of` maps a
    /// [`FaultKind::CreditLoss`] input port to the directed link actually
    /// harmed (the upstream producer's output toward it) — `None` leaves the
    /// event's own location in place.
    pub fn report_into(
        &self,
        cycle: u64,
        report: &mut FaultReport,
        upstream_of: impl Fn(RouterId, PortIdx) -> Option<(RouterId, PortIdx)>,
    ) {
        for a in &self.events {
            if !a.touched() && !a.event.active_at(cycle) {
                continue;
            }
            let router_wide = matches!(a.event.kind, FaultKind::RouterStall);
            let (router, port) = match a.event.kind {
                FaultKind::CreditLoss { .. } => upstream_of(a.event.router, a.event.port)
                    .unwrap_or((a.event.router, a.event.port)),
                _ => (a.event.router, a.event.port),
            };
            report.suspects.push(SuspectLink {
                event: a.index,
                router,
                port,
                router_wide,
                dropped_words: a.dropped_words,
                corrupted_words: a.corrupted_words,
                lost_credits: a.lost_credits,
                active: a.event.active_at(cycle),
            });
        }
    }
}

impl FaultState {
    /// Walks the dynamic remainder through a state visitor — per-event
    /// generator positions, health counters and the activation cache. The
    /// schedule itself (kinds, locations, windows) is structural: a
    /// snapshot restores onto a network armed with the identical plan,
    /// exactly like topology wiring restores onto an identically-built
    /// network.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        p.item(&mut self.next_active);
        for a in &mut self.events {
            a.rng.walk(p);
            p.counter(&mut a.dropped_words);
            p.counter(&mut a.corrupted_words);
            p.counter(&mut a.lost_credits);
        }
    }
}

/// One suspected directed link in a [`FaultReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectLink {
    /// Index of the originating event in the armed plan (stable across
    /// shard distribution and report merging).
    pub event: usize,
    /// Router whose output is suspect.
    pub router: RouterId,
    /// Suspect output port (meaningless when `router_wide`).
    pub port: PortIdx,
    /// Whether the whole router's output stage is suspect (a stall): the
    /// healer should mask every link leaving the router.
    pub router_wide: bool,
    /// Words dropped on the link so far.
    pub dropped_words: u64,
    /// Words bit-corrupted on the link so far.
    pub corrupted_words: u64,
    /// BE credit returns swallowed so far.
    pub lost_credits: u64,
    /// Whether the fault window is still open at the report cycle.
    pub active: bool,
}

/// What detection surfaced: suspect links with their health counters, plus
/// the network-level GT watchdog counters (contention violations and
/// orphaned GT words — genuine symptoms, counted by the routers themselves)
/// and, when assembled by the NI layer, destination-side drop counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Suspect directed links, in plan-event order.
    pub suspects: Vec<SuspectLink>,
    /// GT contention violations observed network-wide (router watchdog).
    pub gt_conflicts: u64,
    /// GT words that arrived with no scheduled calendar entry (router
    /// watchdog; a corrupted slot table manifests here).
    pub gt_orphans: u64,
    /// Words the NIs dropped at the destination (unknown/disabled queue or
    /// a flow-control-violating overflow — see `aethereal-ni`). Filled in
    /// by the system layer; zero at the `Noc` level.
    pub ni_rx_drops: u64,
}

impl FaultReport {
    /// Whether anything at all was detected.
    pub fn is_clean(&self) -> bool {
        self.suspects.is_empty()
            && self.gt_conflicts == 0
            && self.gt_orphans == 0
            && self.ni_rx_drops == 0
    }

    /// Folds another shard's report in: suspects concatenate (each event is
    /// armed on exactly one shard) and watchdog counters sum. Suspects are
    /// re-sorted by plan-event index so merged reports are shard-count
    /// independent.
    pub fn merge(&mut self, other: &FaultReport) {
        self.suspects.extend_from_slice(&other.suspects);
        self.suspects.sort_by_key(|s| s.event);
        self.gt_conflicts += other.gt_conflicts;
        self.gt_orphans += other.gt_orphans;
        self.ni_rx_drops += other.ni_rx_drops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Emission;
    use crate::word::{LinkWord, WordClass};

    fn emissions(ports: &[PortIdx]) -> EmitResult {
        let mut r = EmitResult::default();
        for &p in ports {
            r.emissions.push(Emission {
                port: p,
                word: LinkWord::payload(0xAB, WordClass::Guaranteed, false),
            });
        }
        r
    }

    #[test]
    fn begin_cycle_caches_next_activation() {
        let mut plan = FaultPlan::new(1);
        plan.link_stuck(0, 1, 100, 110);
        let mut f = FaultState::arm(&plan);
        assert!(!f.begin_cycle(0));
        assert_eq!(f.next_active, 100);
        assert!(!f.begin_cycle(50));
        assert!(f.begin_cycle(100));
        assert!(f.begin_cycle(109));
        assert!(!f.begin_cycle(110));
        assert_eq!(f.next_active, u64::MAX);
    }

    #[test]
    fn stuck_drops_only_its_port() {
        let mut plan = FaultPlan::new(1);
        plan.link_stuck(3, 2, 0, 10);
        let mut f = FaultState::arm(&plan);
        let mut r = emissions(&[1, 2, 3]);
        f.filter(3, 5, &mut r);
        assert_eq!(
            r.emissions.iter().map(|e| e.port).collect::<Vec<_>>(),
            vec![1, 3]
        );
        f.filter(4, 5, &mut emissions(&[2])); // other router untouched
        let mut rep = FaultReport::default();
        f.report_into(5, &mut rep, |_, _| None);
        assert_eq!(rep.suspects.len(), 1);
        assert_eq!(rep.suspects[0].dropped_words, 1);
        assert!(rep.suspects[0].active);
    }

    #[test]
    fn stall_blacks_out_every_port() {
        let mut plan = FaultPlan::new(1);
        plan.router_stall(0, 0, 4);
        let mut f = FaultState::arm(&plan);
        let mut r = emissions(&[0, 1, 2]);
        f.filter(0, 1, &mut r);
        assert!(r.emissions.is_empty());
        let mut rep = FaultReport::default();
        f.report_into(1, &mut rep, |_, _| None);
        assert!(rep.suspects[0].router_wide);
        assert_eq!(rep.suspects[0].dropped_words, 3);
    }

    #[test]
    fn flaky_is_deterministic_and_word_driven() {
        let mut plan = FaultPlan::new(99);
        plan.link_flaky(0, 1, 0, u64::MAX, 500_000);
        let run = |gaps: &[u64]| {
            let mut f = FaultState::arm(&plan);
            let mut survived = Vec::new();
            let mut cycle = 0;
            for &g in gaps {
                cycle += g;
                let mut r = emissions(&[1]);
                f.filter(0, cycle, &mut r);
                survived.push(!r.emissions.is_empty());
            }
            survived
        };
        // Same word count, different cycle spacing: identical drop pattern
        // (the generator is word-driven, so time skips cannot desync it).
        let a = run(&[1; 64]);
        let b = run(&[7; 64]);
        assert_eq!(a, b);
        assert!(a.iter().any(|&s| s) && a.iter().any(|&s| !s));
    }

    #[test]
    fn corrupt_xors_data_and_keeps_flags() {
        let mut plan = FaultPlan::new(1);
        plan.slot_corrupt(2, 0, 0, 10, 0xFF);
        let mut f = FaultState::arm(&plan);
        let mut r = emissions(&[0]);
        f.filter(2, 0, &mut r);
        assert_eq!(r.emissions[0].word.word(), 0xAB ^ 0xFF);
        assert!(!r.emissions[0].word.is_header());
        assert_eq!(r.emissions[0].word.class(), WordClass::Guaranteed);
    }

    #[test]
    fn credit_loss_respects_budget_and_remaps_upstream() {
        let mut plan = FaultPlan::new(1);
        plan.credit_loss(1, 0, 0, 100, 2);
        let mut f = FaultState::arm(&plan);
        for _ in 0..3 {
            let mut r = EmitResult::default();
            r.be_dequeues.push(0);
            f.filter(1, 0, &mut r);
        }
        let mut rep = FaultReport::default();
        f.report_into(0, &mut rep, |r, p| {
            assert_eq!((r, p), (1, 0));
            Some((7, 3))
        });
        assert_eq!(rep.suspects[0].lost_credits, 2, "budget caps at max");
        assert_eq!((rep.suspects[0].router, rep.suspects[0].port), (7, 3));
    }

    #[test]
    fn shard_distribution_preserves_indices_and_state() {
        let mut plan = FaultPlan::new(5);
        plan.link_stuck(0, 1, 0, 10)
            .link_flaky(2, 0, 0, 10, 250_000)
            .router_stall(1, 0, 10);
        let mut whole = FaultState::arm(&plan);
        let part = FaultState::arm_for(&plan, &[2]);
        assert_eq!(part.events.len(), 1);
        assert_eq!(part.events[0].index, 1);
        // Same seed derivation either way.
        assert_eq!(part.events[0].rng, whole.events[1].rng);
        let moved = whole.extract_owned(&[0, 1]);
        assert_eq!(moved.events.len(), 2);
        assert_eq!(whole.events.len(), 1);
        assert_eq!(whole.events[0].index, 1);
    }

    #[test]
    fn report_merge_is_shard_count_independent() {
        let mut plan = FaultPlan::new(5);
        plan.link_stuck(0, 1, 0, 10).link_stuck(3, 2, 0, 10);
        let mut whole = FaultState::arm(&plan);
        let mut a = FaultState::arm_for(&plan, &[0]);
        let mut b = FaultState::arm_for(&plan, &[3]);
        for f in [&mut whole, &mut a, &mut b] {
            let mut r0 = emissions(&[1]);
            f.filter(0, 0, &mut r0);
            let mut r3 = emissions(&[2]);
            f.filter(3, 0, &mut r3);
        }
        let mut mono = FaultReport::default();
        whole.report_into(0, &mut mono, |_, _| None);
        // Merge in the "wrong" order: sorting by event index restores it.
        let mut merged = FaultReport::default();
        let mut rb = FaultReport::default();
        b.report_into(0, &mut rb, |_, _| None);
        merged.merge(&rb);
        let mut ra = FaultReport::default();
        a.report_into(0, &mut ra, |_, _| None);
        merged.merge(&ra);
        assert_eq!(mono, merged);
    }

    #[test]
    fn persist_round_trips_dynamic_state() {
        use crate::persist::{StateLoader, StateSaver};
        let mut plan = FaultPlan::new(42);
        plan.link_flaky(0, 1, 0, u64::MAX, 500_000);
        let mut f = FaultState::arm(&plan);
        for c in 0..32 {
            let mut r = emissions(&[1]);
            f.begin_cycle(c);
            f.filter(0, c, &mut r);
        }
        let mut saver = StateSaver::new();
        f.walk(&mut saver);
        let words = saver.finish().expect("clean save");
        let mut g = FaultState::arm(&plan);
        let mut loader = StateLoader::new(words);
        g.walk(&mut loader);
        loader.finish().expect("clean restore");
        // Continue both: identical decisions.
        for c in 32..64 {
            let mut rf = emissions(&[1]);
            let mut rg = emissions(&[1]);
            f.filter(0, c, &mut rf);
            g.filter(0, c, &mut rg);
            assert_eq!(rf.emissions.len(), rg.emissions.len());
        }
    }
}
