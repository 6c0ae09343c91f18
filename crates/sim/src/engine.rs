//! The workspace-wide simulation engine: one two-phase cycle contract and
//! one generic driver for everything that ticks.
//!
//! # The contract
//!
//! The Æthereal NoC is only race-free because every cycle is split into two
//! globally ordered phases (see [`crate::noc`]):
//!
//! 1. **emit** — every producer places at most one word on each outgoing
//!    wire, using only state registered in previous cycles;
//! 2. **absorb** — every consumer registers the word on its incoming wire.
//!
//! This discipline is what makes the GT slot-alignment arithmetic (slot `s`
//! on hop `h` ⇒ slot `s + h` on hop `h + 1`) exact regardless of iteration
//! order. The seed code re-implemented the split, the clock division and
//! the run loops separately in `sim::Noc`, `aethereal_ni::NiKernel`,
//! `aethereal_cfg::NocSystem` and the `aethereal_proto` IP traits; this
//! module is the single definition they all now share.
//!
//! Two traits express the contract at the two levels that exist in the
//! system:
//!
//! * [`Clocked`] — a **self-contained fabric** (a [`Noc`](crate::Noc), a
//!   whole `NocSystem`) that owns its cycle counter. Its phases run in
//!   *emit-then-absorb* order: emission must globally precede absorption so
//!   wires stay race-free.
//! * [`ClockedWith`] — an **endpoint ticked against a context** (an NI
//!   kernel against its [`NiLink`](crate::NiLink), an IP model against its
//!   port stack). Endpoints run *absorb-then-emit* within the fabric's emit
//!   phase: they first drain what the previous cycle delivered, then stage
//!   this cycle's word.
//!
//! [`ClockDomain`] centralizes integer clock division (each NI port "can
//! have a different clock frequency", §4.1 of the paper), replacing the
//! inline `cycle % div == 0` checks that were scattered across the crates.
//!
//! # The driver and the one idleness question
//!
//! [`Engine::run`], [`Engine::run_until`], [`Engine::run_until_horizon`] and
//! the fast-forwarding `Engine::run_ff` are four thin callers of one
//! private stepping loop, the only sequential run loop in the workspace: the
//! shard runner's `run` is `run_ff` over the runner and its regions taken
//! as one [`Clocked`] fabric (see [`crate::shard`]); only its worker-thread
//! body steps regions on its own.
//!
//! The paper's NI owns a TDM slot table, so "is it idle?" is really "*until
//! when* is it idle?" — the next reserved slot with sendable data. A driver
//! therefore asks one question, once per decision, and the same question
//! is asked at all three levels of the system:
//!
//! * an IP model answers `idle_until(now)` (`aethereal_proto`: a paced
//!   source's next submission, a trace entry's timestamp);
//! * an endpoint answers [`ClockedWith::dormant_until`] (the NI kernel: the
//!   next reserved slot at which queued GT data becomes sendable);
//! * a fabric answers [`Clocked::dormant_until`], the minimum over its
//!   parts (IP horizons rounded up to their port clock's
//!   [`ClockDomain::next_edge`], NI horizons, the network's earliest
//!   scheduled GT emission), returning `now` at the first active part.
//!
//! The answer is the earliest cycle ≥ `now` at which the thing could act
//! without external input: `now` while active, `u64::MAX` when fully
//! drained. Every tick strictly before it can change nothing except
//! time-derived counters, so the driver replaces those ticks by one
//! [`skip`](Clocked::skip), exactly up to the horizon and never past it.
//! Implementors of `skip` account for per-slot effects arithmetically
//! (e.g. the NI kernel adds one unused-slot event per reserved slot
//! crossed, walking its slot table instead of the clock).
//!
//! [`Clocked::quiescent`] and [`Clocked::next_event`] are the two names the
//! question used to be asked under. They survive as provided views of
//! `dormant_until` — no impl overrides them (`xtask lint`,
//! `one-idleness-question`) and no driver calls them — only because
//! `benchmark/` and the tests still read them.
//!
//! `run_until` observes every cycle boundary: the predicate is evaluated
//! before each cycle, and while the fabric is dormant the tick itself is
//! replaced by the (state-identical, by the dormancy contract) `skip(1)`.
//! [`Engine::run_until_horizon`] is the explicit opt-in for *cycle-driven*
//! predicates, batching whole dormant stretches up to the horizon between
//! predicate checks.

use crate::ff::FfOutcome;
use crate::word::SLOT_WORDS;

/// Integer clock divider against the 500 MHz base network clock.
///
/// A domain with divisor `d` has a clock edge on every base cycle that is a
/// multiple of `d`; components in the domain tick only on edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    div: u32,
}

impl ClockDomain {
    /// The base (network) clock domain: an edge every cycle.
    pub const BASE: ClockDomain = ClockDomain { div: 1 };

    /// Creates a domain dividing the base clock by `div`.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero.
    pub fn new(div: u32) -> Self {
        assert!(div >= 1, "clock divisor must be ≥ 1");
        ClockDomain { div }
    }

    /// The divisor.
    #[inline]
    pub fn div(self) -> u32 {
        self.div
    }

    /// Whether this domain has a clock edge at base cycle `cycle`. The
    /// base domain — nearly every port — answers without dividing.
    #[inline]
    pub fn ticks_at(self, cycle: u64) -> bool {
        self.div == 1 || cycle.is_multiple_of(u64::from(self.div))
    }

    /// The first edge at or after `cycle`; the base domain answers
    /// without dividing here too.
    #[inline]
    pub fn next_edge(self, cycle: u64) -> u64 {
        if self.div == 1 {
            return cycle;
        }
        let d = u64::from(self.div);
        cycle.div_ceil(d) * d
    }

    /// Number of edges in the half-open base-cycle window
    /// `[start, start + len)`.
    #[inline]
    pub fn edges_in(self, start: u64, len: u64) -> u64 {
        let d = u64::from(self.div);
        // Edges in [0, n) is ceil(n / d).
        (start + len).div_ceil(d) - start.div_ceil(d)
    }

    /// Completed local cycles after `cycle` base cycles.
    #[inline]
    pub fn local_now(self, cycle: u64) -> u64 {
        cycle / u64::from(self.div)
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::BASE
    }
}

/// A self-contained fabric advancing under the two-phase cycle contract.
///
/// Phase order is **emit then absorb**: all producers place words on wires
/// from previous-cycle state, then all consumers register them. `absorb`
/// completes the cycle and must advance [`now`](Clocked::now) by one.
pub trait Clocked {
    /// The current base cycle (number of completed cycles).
    fn now(&self) -> u64;

    /// Phase 1: place at most one word on every outgoing wire, based on
    /// state from previous cycles.
    fn emit(&mut self);

    /// Phase 2: register arriving words, return credits, advance the cycle
    /// counter.
    fn absorb(&mut self);

    /// The one idleness question: the earliest base cycle ≥ `now` at which
    /// the fabric could act without external input — `now` itself while
    /// active, `u64::MAX` when nothing can ever happen on its own. Every
    /// tick strictly before the answer changes nothing but time-derived
    /// counters (no words in flight, no sendable data, no pending credits;
    /// a paced generator's next submission, a scheduled GT emission or a
    /// reserved slot with queued data bound it), which licenses
    /// [`Engine::run`] and the shard scheduler ([`crate::shard`]) to
    /// replace those ticks with one [`skip`](Clocked::skip) that ends at or
    /// before it. The default is `now`: never skip.
    fn dormant_until(&self, now: u64) -> u64 {
        now
    }

    /// Advances time-derived state by `cycles` cycles as if ticked while
    /// dormant — the span ends at or before
    /// [`dormant_until`](Clocked::dormant_until); must be overridden
    /// (together with `dormant_until`) to make the fast path effective.
    /// The default simply ticks, which is always correct.
    fn skip(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.emit();
            self.absorb();
        }
    }

    /// Derived view, not to be overridden: whether the fabric is dormant
    /// right now. Kept for `benchmark/` and tests; drivers ask
    /// [`dormant_until`](Clocked::dormant_until).
    fn quiescent(&self) -> bool {
        let now = self.now();
        self.dormant_until(now) > now
    }

    /// Derived view, not to be overridden: [`dormant_until`](Clocked::dormant_until)
    /// under its old name (it used to be meaningful only while
    /// [`quiescent`](Clocked::quiescent)).
    fn next_event(&self, now: u64) -> u64 {
        self.dormant_until(now)
    }

    /// Attempts an analytical fast-forward (see [`crate::ff`]): advances
    /// the fabric by at most `max` cycles — by real ticks, an arithmetic
    /// jump, or both — and reports what it did. The implementor owns all
    /// eligibility checking; when its state is not provably periodic it
    /// must either decline outright or advance by real ticks only
    /// (`jumped == 0`), never extrapolate. Only `Engine::run_ff` offers.
    /// The default declines: never fast-forward.
    fn fast_forward(&mut self, max: u64) -> FfOutcome {
        let _ = max;
        FfOutcome::DECLINED
    }
}

/// An endpoint ticked against an external context: an NI kernel against its
/// router link, an IP model against its port stack.
///
/// Phase order is **absorb then emit**, the mirror of [`Clocked`]: within
/// the fabric's emit phase an endpoint first drains what the previous
/// cycle's absorb delivered to it, then stages this cycle's word.
pub trait ClockedWith<Ctx: ?Sized> {
    /// Drain phase: consume everything the previous cycle delivered.
    fn absorb(&mut self, ctx: &mut Ctx, cycle: u64);

    /// Produce phase: stage at most one word per output toward `ctx`.
    fn emit(&mut self, ctx: &mut Ctx, cycle: u64);

    /// One endpoint cycle: absorb, then emit.
    fn tick(&mut self, ctx: &mut Ctx, cycle: u64) {
        self.absorb(ctx, cycle);
        self.emit(ctx, cycle);
    }

    /// Endpoint analogue of [`Clocked::skip`]: advance time-derived state
    /// across `[from_cycle, from_cycle + cycles)` without ticking. Only
    /// called over a span that ends at or before
    /// [`dormant_until`](ClockedWith::dormant_until); implementors
    /// overriding that must override this accordingly.
    fn skip(&mut self, from_cycle: u64, cycles: u64) {
        let _ = (from_cycle, cycles);
    }

    /// Endpoint analogue of [`Clocked::dormant_until`]: the earliest base
    /// cycle ≥ `now` at which this endpoint could act without external
    /// input — `now` itself while active (the default). An endpoint that
    /// still holds state may report a *bounded* horizon, as long as every
    /// tick strictly before it is a no-op: the NI kernel reports the next
    /// reserved slot at which queued GT data becomes sendable, so a region
    /// draining a GT stream can sleep between its slots instead of ticking
    /// through them. Containers (an NI over its shells, a system over its
    /// NIs) compose their horizon as the minimum over their parts.
    fn dormant_until(&self, now: u64) -> u64 {
        now
    }
}

/// The single generic cycle driver.
///
/// Every `run`/`run_until` loop in the workspace routes through these
/// associated functions; no component carries its own driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Advances `fabric` by exactly one cycle: emit, then absorb.
    #[inline]
    pub fn tick<C: Clocked + ?Sized>(fabric: &mut C) {
        fabric.emit();
        fabric.absorb();
    }

    /// The one stepping loop behind every public driver: until `pred`
    /// holds or `max_cycles` elapse, replace a dormant stretch by a
    /// [`Clocked::skip`], else let `offer` advance the fabric by other
    /// means (fast-forward; it returns the cycles it covered, `0` to
    /// pass), else tick. Returns whether the predicate was met.
    ///
    /// A skip reaches the fabric's [`Clocked::dormant_until`] horizon —
    /// asked once per decision — and is not attempted below a slot, unless
    /// `every_cycle`, where it covers one cycle, so that `pred` sees every
    /// cycle boundary.
    pub(crate) fn drive<C: Clocked + ?Sized>(
        fabric: &mut C,
        max_cycles: u64,
        every_cycle: bool,
        mut pred: impl FnMut(&C) -> bool,
        mut offer: impl FnMut(&mut C, u64) -> u64,
    ) -> bool {
        let floor = if every_cycle { 1 } else { SLOT_WORDS };
        let mut remaining = max_cycles;
        while remaining > 0 {
            if pred(fabric) {
                return true;
            }
            if remaining >= floor {
                let now = fabric.now();
                let idle = fabric.dormant_until(now).saturating_sub(now);
                let chunk = idle.min(if every_cycle { 1 } else { remaining });
                if chunk >= floor {
                    fabric.skip(chunk);
                    remaining -= chunk;
                    continue;
                }
            }
            let advanced = offer(fabric, remaining);
            if advanced > 0 {
                remaining -= advanced;
                continue;
            }
            Self::tick(fabric);
            remaining -= 1;
        }
        pred(fabric)
    }

    /// Runs `cycles` cycles.
    ///
    /// When the fabric reports itself dormant and at least one whole slot
    /// remains, the cycles up to its [`Clocked::dormant_until`] horizon are
    /// batched into one [`Clocked::skip`] — dormancy cannot end before
    /// that horizon without external input, so the skip is exact, not
    /// approximate. A fully drained fabric (horizon `u64::MAX`) skips
    /// everything that remains in one call.
    pub fn run<C: Clocked + ?Sized>(fabric: &mut C, cycles: u64) {
        Self::drive(fabric, cycles, false, |_| false, |_, _| 0);
    }

    /// Runs until `pred` holds or `max_cycles` elapse; returns whether the
    /// predicate was met.
    ///
    /// The predicate observes **every** cycle boundary, so the stopping
    /// cycle is exact for any predicate. While the fabric is dormant the
    /// tick is replaced by a `skip(1)` — state-identical by the dormancy
    /// contract, but without the per-cycle emit/absorb walk — so long waits
    /// on an idle system no longer pay for full ticks. For cycle-driven
    /// predicates that tolerate coarser stopping points, see
    /// [`Engine::run_until_horizon`].
    pub fn run_until<C, P>(fabric: &mut C, pred: P, max_cycles: u64) -> bool
    where
        C: Clocked + ?Sized,
        P: FnMut(&C) -> bool,
    {
        Self::drive(fabric, max_cycles, true, pred, |_, _| 0)
    }

    /// Like [`Engine::run_until`], but batches dormant stretches up to the
    /// [`Clocked::dormant_until`] horizon between predicate checks — the
    /// explicit opt-in for predicates that cannot turn true while the
    /// fabric is dormant (a response arriving, a workload finishing) or
    /// that tolerate a coarser stopping point ("enough cycles elapsed").
    ///
    /// While the fabric is dormant the predicate is *not* evaluated at
    /// every intermediate cycle, so the stopping cycle may overshoot the
    /// predicate's first-true cycle — by at most the distance to the
    /// horizon (or `max_cycles`). A predicate that only activity can
    /// satisfy is still stopped at exactly: every active cycle is ticked
    /// and checked. State-inspecting predicates that can turn true in a
    /// dormant stretch belong on [`Engine::run_until`].
    pub fn run_until_horizon<C, P>(fabric: &mut C, pred: P, max_cycles: u64) -> bool
    where
        C: Clocked + ?Sized,
        P: FnMut(&C) -> bool,
    {
        Self::drive(fabric, max_cycles, false, pred, |_, _| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A fabric that counts phase calls and can pretend to be quiescent.
    struct Probe {
        cycle: u64,
        emits: u64,
        absorbs: u64,
        skipped: u64,
        skip_calls: u64,
        /// How often a driver asked the idleness question.
        asks: Cell<u64>,
        quiescent_after: u64,
        /// Spontaneous-event schedule: while quiescent, the next event is
        /// the first entry after the current cycle (`u64::MAX` beyond).
        events: Vec<u64>,
    }

    impl Probe {
        fn new(quiescent_after: u64) -> Self {
            Probe {
                cycle: 0,
                emits: 0,
                absorbs: 0,
                skipped: 0,
                skip_calls: 0,
                asks: Cell::new(0),
                quiescent_after,
                events: Vec::new(),
            }
        }

        fn horizon(&self, now: u64) -> u64 {
            if now < self.quiescent_after {
                return now;
            }
            let events = self.events.iter().copied();
            events.filter(|&e| e >= now).min().unwrap_or(u64::MAX)
        }
    }

    impl Clocked for Probe {
        fn now(&self) -> u64 {
            self.cycle
        }

        fn emit(&mut self) {
            assert_eq!(self.emits, self.absorbs, "emit must precede absorb");
            self.emits += 1;
        }

        fn absorb(&mut self) {
            assert_eq!(self.emits, self.absorbs + 1, "absorb follows emit");
            self.absorbs += 1;
            self.cycle += 1;
        }

        fn dormant_until(&self, now: u64) -> u64 {
            self.asks.set(self.asks.get() + 1);
            self.horizon(now)
        }

        fn skip(&mut self, cycles: u64) {
            let horizon = self.horizon(self.cycle);
            assert!(self.cycle + cycles <= horizon, "skipped past the horizon");
            self.skipped += cycles;
            self.skip_calls += 1;
            self.cycle += cycles;
        }
    }

    #[test]
    fn tick_orders_phases() {
        let mut p = Probe::new(u64::MAX);
        Engine::tick(&mut p);
        assert_eq!((p.emits, p.absorbs, p.now()), (1, 1, 1));
    }

    #[test]
    fn run_ticks_until_quiescent_then_skips() {
        let mut p = Probe::new(5);
        Engine::run(&mut p, 100);
        assert_eq!(p.now(), 100);
        assert_eq!(p.emits, 5, "ticked only while active");
        assert_eq!(p.skipped, 95, "rest batched into one skip");
    }

    #[test]
    fn run_never_skips_below_a_slot() {
        let mut p = Probe::new(0);
        Engine::run(&mut p, SLOT_WORDS - 1);
        assert_eq!(p.skipped, 0);
        assert_eq!(p.emits, SLOT_WORDS - 1);
    }

    #[test]
    fn run_skips_only_to_the_next_event_horizon() {
        let mut p = Probe::new(0);
        p.events = vec![40, 80];
        Engine::run(&mut p, 100);
        assert_eq!(p.now(), 100);
        // Three quiescent stretches ([0,40), [41,80), [81,100)), one skip
        // each, plus one real tick at each event cycle.
        assert_eq!(p.skip_calls, 3, "one batched skip per idle stretch");
        assert_eq!(p.emits, 2, "ticked exactly at the event cycles");
        assert_eq!(p.skipped, 98);
    }

    #[test]
    fn run_asks_the_idleness_question_once_per_decision() {
        let mut p = Probe::new(3);
        p.events = vec![40, 80];
        Engine::run(&mut p, 100);
        assert_eq!(p.now(), 100);
        // One ask before every tick (3 active cycles + 2 event cycles) and
        // one before every skip — `Probe::skip` itself asserts that no
        // skip ends past the cycle that ask reported.
        assert_eq!((p.emits, p.skip_calls), (5, 3));
        assert_eq!(p.asks.get(), p.emits + p.skip_calls);
        // The derived views are the same question under its old names.
        assert!(p.quiescent());
        assert_eq!((p.next_event(40), p.next_event(50)), (40, 80));
    }

    #[test]
    fn until_pred_stops_exactly_and_replaces_idle_ticks_with_unit_skips() {
        let mut p = Probe::new(0); // quiescent from the start
        let met = Engine::run_until(&mut p, |f| f.now() >= 7, 100);
        assert!(met);
        assert_eq!(p.now(), 7, "stops on the exact cycle");
        assert_eq!(p.emits, 0, "quiescent cycles never pay for a full tick");
        assert_eq!(p.skipped, 7, "advanced by unit skips instead");
        assert_eq!(p.skip_calls, 7, "…observing every cycle boundary");
    }

    #[test]
    fn until_pred_times_out() {
        let mut p = Probe::new(u64::MAX);
        let met = Engine::run_until(&mut p, |_| false, 9);
        assert!(!met);
        assert_eq!(p.now(), 9);
        assert_eq!(p.emits, 9, "active fabric is fully ticked");
    }

    #[test]
    fn until_horizon_batches_idle_stretches() {
        let mut p = Probe::new(0);
        p.events = vec![50];
        let met = Engine::run_until_horizon(&mut p, |f| f.now() >= 80, 1_000);
        assert!(met);
        // One batch to the event at 50, a tick there, then one batch that
        // overshoots the predicate's first-true cycle — stopping at the
        // horizon bound (here: max_cycles), as documented.
        assert!(p.now() >= 80);
        assert_eq!(p.emits, 1, "only the event cycle is ticked");
        assert!(
            p.skip_calls <= 2,
            "idle stretches batched: {}",
            p.skip_calls
        );
    }

    #[test]
    fn until_horizon_checks_pred_between_batches() {
        let mut p = Probe::new(0);
        p.events = vec![30];
        // Predicate becomes true exactly at the event cycle: the batch ends
        // there, the check fires before any further work.
        let met = Engine::run_until_horizon(&mut p, |f| f.now() >= 30, 1_000);
        assert!(met);
        assert_eq!(p.now(), 30, "stops at the horizon boundary");
        assert_eq!(p.emits, 0);
    }

    #[test]
    fn clock_domain_edges() {
        let d = ClockDomain::new(3);
        assert!(d.ticks_at(0) && d.ticks_at(3) && !d.ticks_at(4));
        assert_eq!(d.next_edge(0), 0);
        assert_eq!(d.next_edge(1), 3);
        assert_eq!(d.next_edge(3), 3);
        assert_eq!(d.edges_in(0, 9), 3);
        assert_eq!(d.edges_in(1, 3), 1); // only cycle 3
        assert_eq!(d.edges_in(4, 2), 0);
        assert_eq!(d.local_now(8), 2);
        assert_eq!(ClockDomain::BASE.edges_in(17, 5), 5);
    }

    #[test]
    #[should_panic(expected = "divisor")]
    fn zero_divisor_panics() {
        let _ = ClockDomain::new(0);
    }
}
