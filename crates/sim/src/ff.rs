//! Analytical GT fast-forward: periodic steady-state certification and
//! closed-form extrapolation behind the engine seam.
//!
//! The paper's guaranteed-throughput class is deterministic by construction
//! — slot tables plus fixed per-hop latency — so a fabric carrying only
//! contention-free GT streams revisits the same control state every
//! calendar rotation. This module turns that property into a second
//! backend: instead of ticking through a predictable phase, the fabric is
//! *probed* for two real rotations, certified periodic against a structural
//! state digest, and then advanced `k` whole rotations in one arithmetic
//! step — flit positions, calendar phase, FIFO occupancies, credits and
//! statistics all reconstructed exactly.
//!
//! The contract is deliberately conservative — **certify, then
//! extrapolate**:
//!
//! 1. The fabric walks its complete dynamic state through the one state
//!    walk ([`StateVisit`], the same declaration that produces snapshots —
//!    see [`crate::persist`] for the class table): every field is an
//!    [`item`](StateVisit::item) or [`len`](StateVisit::len) (control
//!    state that must repeat exactly each period), a
//!    [`stamp`](StateVisit::stamp) (an absolute cycle number that slides
//!    with time), a [`counter`](StateVisit::counter) (a 64-bit statistic
//!    advancing by a fixed amount per period), a
//!    [`value`](StateVisit::value) (a 32-bit payload word advancing by a
//!    fixed increment per period — constant payloads, and in particular
//!    route-continuation words, are the zero-increment special case) or a
//!    [`word`](StateVisit::word) in flight (control bits and headers
//!    exact, payload a `value`). State the traversal cannot prove
//!    periodic calls [`reject`](StateVisit::reject).
//! 2. Two probe rotations (real ticks — always safe) yield three digests;
//!    the state is certified periodic only if every item repeats its
//!    per-period delta across both rotations ([`periodic_deltas`]).
//! 3. The certified deltas are applied `k` times in a single walk
//!    ([`FfApply`]). This is exact, not approximate: the exact items *are*
//!    the control state that drives the dynamics, so identical control
//!    state at `t` and `t + R` makes the whole trajectory `R`-periodic,
//!    and linear extrapolation of the sliding items reproduces the state
//!    the cycle-accurate backend would have reached at `t + kR`.
//!
//! Stamps are compared *relative to the capture cycle* (a wrapping
//! difference, so spent stamps keep their distinct negative offsets) and
//! certified only if the offset is identical at every period boundary —
//! the entry holding the stamp recycles with the period, its timestamp
//! sliding in lockstep with time. The jump then shifts every certified
//! stamp by the jumped cycles, exactly reproducing the stamp the ticked
//! trajectory would carry. A *frozen* timestamp (an entry parked across
//! whole periods with a constant absolute stamp) drifts one period of
//! relative offset per rotation and fails certification — conservatively
//! declining rather than guessing whether it may slide.
//!
//! Anything non-trivial — BE traffic, threshold gates, blocking, an
//! aperiodic source — either fails the structural pre-gates of the
//! [`Clocked::fast_forward`] implementor or breaks the delta
//! certification, and the attempt falls back to the cycle-accurate
//! backend. The acceptance bar is bit-identical state, never approximate
//! stats.

use crate::engine::{Clocked, Engine};
use crate::persist::StateVisit;
use crate::word::LinkWord;

/// Largest period (in base cycles) worth certifying: beyond this the probe
/// cost (two full rotations of real ticks) stops paying for itself.
pub const FF_MAX_PERIOD: u64 = 4096;

/// Minimum cool-down (in base cycles) after a declined fast-forward
/// attempt before the next one. Declines are cheap but not free (the
/// structural pre-gates scan the fabric), so a fabric that keeps declining
/// — a mixed GT/BE workload — must not pay the scan on every cycle.
pub const FF_COOLDOWN: u64 = 256;

/// Result of one [`Clocked::fast_forward`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FfOutcome {
    /// Total cycles the fabric advanced (probe ticks + the jump). Zero
    /// means the attempt was declined before any state change.
    pub advanced: u64,
    /// Cycles covered by the arithmetic jump (`advanced - jumped` were
    /// real probe ticks). Zero means no extrapolation happened.
    pub jumped: u64,
}

impl FfOutcome {
    /// An attempt declined before any state change.
    pub const DECLINED: FfOutcome = FfOutcome {
        advanced: 0,
        jumped: 0,
    };
}

/// Cumulative fast-forward activity of a fabric (exposed by systems that
/// embed the backend, summed across shard regions by sharded drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfStats {
    /// Certified extrapolations applied.
    pub jumps: u64,
    /// Cycles covered arithmetically instead of by ticking.
    pub cycles_jumped: u64,
}

impl FfStats {
    /// Accumulates another fabric's counters (shard-region roll-up).
    pub fn merge(&mut self, other: &FfStats) {
        self.jumps += other.jumps;
        self.cycles_jumped += other.cycles_jumped;
    }
}

/// The class a walk declared a digest item with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `item` or `len`: must repeat exactly.
    Exact,
    Stamp,
    Counter,
    Value,
    Word,
}

/// One classified state item. In a digest `v` is the captured value — a
/// `Stamp` *relative* to the capture cycle as a wrapping difference
/// (spent stamps keep distinct negative offsets; see the module docs for
/// why only a constant relative offset certifies), a `Word` in its
/// [`LinkWord::pack_u64`] form. In certified deltas it is the per-period
/// increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FfItem {
    class: Class,
    v: u64,
}

/// A captured state digest: the classified item sequence of one state
/// walk at a fixed cycle. Two digests of one structure are equal exactly
/// when every walked field is.
#[derive(Debug, PartialEq, Eq)]
pub struct FfDigest {
    now: u64,
    items: Vec<FfItem>,
    rejected: bool,
}

impl FfDigest {
    /// Creates an empty digest capturing at cycle `now`.
    pub fn new(now: u64) -> Self {
        FfDigest {
            now,
            items: Vec::new(),
            rejected: false,
        }
    }

    /// Whether any visited component rejected the attempt.
    pub fn rejected(&self) -> bool {
        self.rejected
    }

    #[inline]
    fn push(&mut self, class: Class, v: u64) {
        self.items.push(FfItem { class, v });
    }
}

impl StateVisit for FfDigest {
    #[inline]
    fn item(&mut self, v: &mut u64) {
        self.push(Class::Exact, *v);
    }

    #[inline]
    fn len(&mut self, cur: usize) -> usize {
        self.push(Class::Exact, cur as u64);
        cur
    }

    #[inline]
    fn fail(&mut self, _why: &str) {
        self.rejected = true;
    }

    #[inline]
    fn stamp(&mut self, v: &mut u64) {
        self.push(Class::Stamp, v.wrapping_sub(self.now));
    }

    #[inline]
    fn counter(&mut self, v: &mut u64) {
        self.push(Class::Counter, *v);
    }

    #[inline]
    fn value(&mut self, v: &mut u32) {
        self.push(Class::Value, u64::from(*v));
    }

    #[inline]
    fn word(&mut self, packed: &mut u64) {
        self.push(Class::Word, *packed);
    }

    #[inline]
    fn reject(&mut self) {
        self.rejected = true;
    }
}

/// Certified per-period deltas: the proof object produced by
/// [`periodic_deltas`] and consumed by [`FfApply`] — the digest's class
/// sequence with every item's per-period increment (zero for the classes
/// that must repeat).
#[derive(Debug)]
pub struct FfDeltas {
    items: Vec<FfItem>,
    /// The certified period in base cycles.
    period: u64,
}

/// Whether a packed wire register holds a payload word — the one kind of
/// word whose data bits may slide.
fn slides(packed: u64) -> bool {
    LinkWord::unpack_u64(packed).is_some_and(|w| !w.is_header())
}

/// Certifies periodicity from three equally spaced digests (`d1` one
/// period after `d0`, `d2` one period after `d1`) and derives the
/// per-period deltas.
///
/// Returns `None` — fall back to ticking — unless every structural
/// condition holds: no rejections, identical item count and class
/// sequence, exact items and (relative) stamps equal across all three
/// captures, counters and values advancing by the same (wrapping) delta in
/// both intervals, and words keeping their control bits while payload data
/// advances like a value and everything else (headers, empty registers)
/// stays put.
pub fn periodic_deltas(d0: &FfDigest, d1: &FfDigest, d2: &FfDigest) -> Option<FfDeltas> {
    if d0.rejected || d1.rejected || d2.rejected {
        return None;
    }
    if d0.items.len() != d1.items.len() || d1.items.len() != d2.items.len() {
        return None;
    }
    let period = d1.now.checked_sub(d0.now)?;
    if period == 0 || d2.now.checked_sub(d1.now)? != period {
        return None;
    }
    let mut items = Vec::with_capacity(d0.items.len());
    for ((&a, &b), &c) in d0.items.iter().zip(&d1.items).zip(&d2.items) {
        if a.class != b.class || b.class != c.class {
            return None;
        }
        let (d01, d12) = (b.v.wrapping_sub(a.v), c.v.wrapping_sub(b.v));
        let periodic = match a.class {
            Class::Exact | Class::Stamp => d01 == 0 && d12 == 0,
            Class::Counter => d01 == d12,
            // Both are sums of 32-bit data: compare the deltas modulo 2^32
            // (a borrow out of the data bits is not a change of the word's
            // control bits, which are compared on their own).
            Class::Value => d01 as u32 == d12 as u32,
            Class::Word => {
                a.v >> 32 == b.v >> 32
                    && b.v >> 32 == c.v >> 32
                    && d01 as u32 == d12 as u32
                    && (d01 as u32 == 0 || slides(a.v))
            }
        };
        if !periodic {
            return None;
        }
        let v = match a.class {
            Class::Value | Class::Word => u64::from(d01 as u32),
            _ => d01,
        };
        items.push(FfItem { class: a.class, v });
    }
    Some(FfDeltas { items, period })
}

/// The jump applier: replays the certified deltas `k` times in one
/// state walk over the same state that produced the last digest.
///
/// The walk is deterministic, so the class sequence matches the deltas by
/// construction; a mismatch is a traversal bug, checked via
/// [`FfApply::matched`] (and debug assertions).
#[derive(Debug)]
pub struct FfApply<'a> {
    deltas: &'a FfDeltas,
    /// Number of periods to jump.
    k: u64,
    i: usize,
    mismatched: bool,
}

impl<'a> FfApply<'a> {
    /// Creates an applier jumping `k` periods.
    pub fn new(deltas: &'a FfDeltas, k: u64) -> Self {
        FfApply {
            deltas,
            k,
            i: 0,
            mismatched: false,
        }
    }

    /// The cycles covered by the jump.
    pub fn jump(&self) -> u64 {
        self.k * self.deltas.period
    }

    /// Whether the walk consumed exactly the certified item sequence.
    pub fn matched(&self) -> bool {
        !self.mismatched && self.i == self.deltas.items.len()
    }

    /// The certified delta of the next item, `k` periods' worth, provided
    /// the walk declares it with the certified class.
    #[inline]
    fn next(&mut self, class: Class) -> u64 {
        match self.deltas.items.get(self.i) {
            Some(item) if item.class == class => {
                self.i += 1;
                self.k.wrapping_mul(item.v)
            }
            _ => {
                debug_assert!(false, "ff apply walk diverged from certified digest");
                self.mismatched = true;
                0
            }
        }
    }
}

impl StateVisit for FfApply<'_> {
    #[inline]
    fn item(&mut self, _v: &mut u64) {
        self.next(Class::Exact);
    }

    #[inline]
    fn len(&mut self, cur: usize) -> usize {
        self.next(Class::Exact);
        cur
    }

    #[inline]
    fn fail(&mut self, _why: &str) {
        self.reject();
    }

    #[inline]
    fn stamp(&mut self, v: &mut u64) {
        self.next(Class::Stamp);
        if !self.mismatched {
            *v = v.wrapping_add(self.jump());
        }
    }

    #[inline]
    fn counter(&mut self, v: &mut u64) {
        *v = v.wrapping_add(self.next(Class::Counter));
    }

    #[inline]
    fn value(&mut self, v: &mut u32) {
        *v = v.wrapping_add(self.next(Class::Value) as u32);
    }

    #[inline]
    fn word(&mut self, packed: &mut u64) {
        let data = (*packed as u32).wrapping_add(self.next(Class::Word) as u32);
        *packed = (*packed >> 32 << 32) | u64::from(data);
    }

    #[inline]
    fn reject(&mut self) {
        debug_assert!(false, "rejection after certification");
        self.mismatched = true;
    }
}

/// Least common multiple (saturating), for composing the fabric period
/// from slot-table rotations and port clock divisors.
pub fn lcm(a: u64, b: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    if a == 0 || b == 0 {
        return a.max(b);
    }
    (a / gcd(a, b)).saturating_mul(b)
}

impl Engine {
    /// Runs `cycles` cycles with the fast-forward backend enabled.
    ///
    /// Extends [`Engine::run`]: the quiescent skip fast path is identical,
    /// and on top of it the fabric is periodically offered the remaining
    /// window via [`Clocked::fast_forward`]. An attempt without a jump arms
    /// a cool-down from the cycle it ended at, proportional to the work it
    /// did — [`FF_COOLDOWN`] at minimum — so a fabric that declines (the
    /// default, a disabled backend, a mixed workload) pays one comparison
    /// per cycle and a bounded, amortized cost per attempt instead of a
    /// per-cycle scan. This is the only offer and the only cool-down
    /// rule.
    pub fn run_ff<C: Clocked + ?Sized>(fabric: &mut C, cycles: u64) {
        let mut cooldown_until = 0u64;
        let offer = |fabric: &mut C, remaining: u64| {
            if fabric.now() < cooldown_until {
                return 0;
            }
            let out = fabric.fast_forward(remaining);
            debug_assert!(out.advanced <= remaining && out.jumped <= out.advanced);
            if out.jumped == 0 {
                cooldown_until = fabric
                    .now()
                    .saturating_add((out.advanced * 4).max(FF_COOLDOWN));
            }
            out.advanced
        };
        Self::drive(fabric, cycles, false, |_| false, offer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy fabric: a phase counter mod `period` (exact control state), a
    /// beat counter (counter), a sliding next-due stamp and a data word
    /// advancing by a fixed increment per beat.
    struct Metro {
        cycle: u64,
        period: u64,
        beats: u64,
        next_due: u64,
        word: u32,
        ramp: u32,
        ff_attempts: u64,
    }

    impl Metro {
        fn new(period: u64, ramp: u32) -> Self {
            Metro {
                cycle: 0,
                period,
                beats: 0,
                next_due: period,
                word: 0,
                ramp,
                ff_attempts: 0,
            }
        }

        fn walk(&mut self, v: &mut dyn StateVisit) {
            v.item(&mut (self.cycle % self.period));
            v.counter(&mut self.beats);
            v.stamp(&mut self.next_due);
            v.value(&mut self.word);
        }
    }

    impl Clocked for Metro {
        fn now(&self) -> u64 {
            self.cycle
        }

        fn emit(&mut self) {}

        fn absorb(&mut self) {
            self.cycle += 1;
            if self.cycle == self.next_due {
                self.beats += 1;
                self.word = self.word.wrapping_add(self.ramp);
                self.next_due += self.period;
            }
        }

        fn fast_forward(&mut self, max: u64) -> FfOutcome {
            self.ff_attempts += 1;
            let period = self.period;
            if 3 * period > max {
                return FfOutcome::DECLINED;
            }
            let mut d0 = FfDigest::new(self.now());
            self.walk(&mut d0);
            Engine::run(self, period);
            let mut d1 = FfDigest::new(self.now());
            self.walk(&mut d1);
            Engine::run(self, period);
            let mut d2 = FfDigest::new(self.now());
            self.walk(&mut d2);
            let advanced = 2 * period;
            let Some(deltas) = periodic_deltas(&d0, &d1, &d2) else {
                return FfOutcome {
                    advanced,
                    jumped: 0,
                };
            };
            let k = (max - advanced) / period;
            if k == 0 {
                return FfOutcome {
                    advanced,
                    jumped: 0,
                };
            }
            let mut apply = FfApply::new(&deltas, k);
            let jump = apply.jump();
            self.walk(&mut apply);
            assert!(apply.matched());
            self.cycle += jump;
            FfOutcome {
                advanced: advanced + jump,
                jumped: jump,
            }
        }
    }

    fn state(m: &Metro) -> (u64, u64, u64, u32) {
        (m.cycle, m.beats, m.next_due, m.word)
    }

    #[test]
    fn run_ff_matches_ticked_run_bit_for_bit() {
        for cycles in [1, 7, 24, 100, 1001, 9999] {
            let mut ticked = Metro::new(24, 3);
            let mut ffed = Metro::new(24, 3);
            Engine::run(&mut ticked, cycles);
            Engine::run_ff(&mut ffed, cycles);
            assert_eq!(state(&ticked), state(&ffed), "cycles={cycles}");
        }
    }

    #[test]
    fn long_runs_actually_jump() {
        let mut m = Metro::new(24, 1);
        Engine::run_ff(&mut m, 1_000_000);
        assert_eq!(m.cycle, 1_000_000);
        assert_eq!(m.beats, 1_000_000 / 24);
        assert!(m.ff_attempts < 10, "jump must cover almost everything");
    }

    #[test]
    fn declined_attempts_are_rate_limited() {
        // A fabric whose fast_forward always declines: run_ff must not
        // attempt once per cycle.
        struct Stubborn {
            cycle: u64,
            attempts: u64,
        }
        impl Clocked for Stubborn {
            fn now(&self) -> u64 {
                self.cycle
            }
            fn emit(&mut self) {}
            fn absorb(&mut self) {
                self.cycle += 1;
            }
            fn fast_forward(&mut self, _max: u64) -> FfOutcome {
                self.attempts += 1;
                FfOutcome::DECLINED
            }
        }
        let mut s = Stubborn {
            cycle: 0,
            attempts: 0,
        };
        Engine::run_ff(&mut s, 10_000);
        assert_eq!(s.cycle, 10_000);
        assert!(
            s.attempts <= 1 + 10_000 / FF_COOLDOWN,
            "attempts: {}",
            s.attempts
        );
    }

    #[test]
    fn aperiodic_counter_refuses_certification() {
        let mut d0 = FfDigest::new(0);
        let mut d1 = FfDigest::new(10);
        let mut d2 = FfDigest::new(20);
        for (d, mut v) in [(&mut d0, 5u64), (&mut d1, 8), (&mut d2, 12)] {
            d.counter(&mut v); // deltas 3 then 4: not periodic
        }
        assert!(periodic_deltas(&d0, &d1, &d2).is_none());
    }

    #[test]
    fn changed_exact_state_refuses_certification() {
        let mut d0 = FfDigest::new(0);
        let mut d1 = FfDigest::new(10);
        let mut d2 = FfDigest::new(20);
        d0.item(&mut 1);
        d1.item(&mut 1);
        d2.item(&mut 2);
        assert!(periodic_deltas(&d0, &d1, &d2).is_none());
    }

    #[test]
    fn structure_change_refuses_certification() {
        let mut d0 = FfDigest::new(0);
        let mut d1 = FfDigest::new(10);
        let mut d2 = FfDigest::new(20);
        for d in [&mut d0, &mut d1, &mut d2] {
            d.item(&mut 7);
        }
        let mut extra = 1u64;
        d2.counter(&mut extra); // d2 grew an item: not the same structure
        assert!(periodic_deltas(&d0, &d1, &d2).is_none());
        // Kind swap at the same position is also a structure change.
        let mut a = FfDigest::new(0);
        let mut b = FfDigest::new(10);
        let mut c = FfDigest::new(20);
        a.item(&mut 7);
        b.item(&mut 7);
        let mut x = 7u64;
        c.counter(&mut x);
        assert!(periodic_deltas(&a, &b, &c).is_none());
    }

    #[test]
    fn rejection_poisons_the_attempt() {
        let mut d0 = FfDigest::new(0);
        let mut d1 = FfDigest::new(10);
        let mut d2 = FfDigest::new(20);
        d1.reject();
        assert!(d1.rejected());
        d0.item(&mut 0);
        d1.item(&mut 0);
        d2.item(&mut 0);
        assert!(periodic_deltas(&d0, &d1, &d2).is_none());
    }

    #[test]
    fn recycling_stamps_slide_and_frozen_stamps_decline() {
        // A stamp whose offset to the capture cycle is constant — the
        // queue entry holding it recycles with the period — certifies and
        // slides by the jump, whether spent (negative offset) or pending.
        let mut d0 = FfDigest::new(100);
        let mut d1 = FfDigest::new(110);
        let mut d2 = FfDigest::new(120);
        let (mut p0, mut p1, mut p2) = (95u64, 105, 115); // spent 5 ago
        let (mut f0, mut f1, mut f2) = (103u64, 113, 123); // due in 3
        d0.stamp(&mut p0);
        d0.stamp(&mut f0);
        d1.stamp(&mut p1);
        d1.stamp(&mut f1);
        d2.stamp(&mut p2);
        d2.stamp(&mut f2);
        let deltas = periodic_deltas(&d0, &d1, &d2).expect("periodic");
        let mut apply = FfApply::new(&deltas, 5);
        apply.stamp(&mut p2);
        apply.stamp(&mut f2);
        assert!(apply.matched());
        assert_eq!(p2, 115 + 5 * 10, "spent recycling stamp slides too");
        assert_eq!(f2, 123 + 5 * 10, "pending stamp slides by the jump");
        // A frozen absolute stamp drifts in relative offset and declines.
        let mut d0 = FfDigest::new(100);
        let mut d1 = FfDigest::new(110);
        let mut d2 = FfDigest::new(120);
        let (mut g0, mut g1, mut g2) = (40u64, 40, 40);
        d0.stamp(&mut g0);
        d1.stamp(&mut g1);
        d2.stamp(&mut g2);
        assert!(
            periodic_deltas(&d0, &d1, &d2).is_none(),
            "frozen stamp must fail certification"
        );
    }

    #[test]
    fn wrapping_values_extrapolate_modulo_2_32() {
        let mut m_ticked = Metro::new(8, 0x2000_0001);
        let mut m_ffed = Metro::new(8, 0x2000_0001);
        Engine::run(&mut m_ticked, 80_000);
        Engine::run_ff(&mut m_ffed, 80_000);
        assert_eq!(state(&m_ticked), state(&m_ffed));
    }

    #[test]
    fn lcm_composes_periods() {
        assert_eq!(lcm(3, 8), 24);
        assert_eq!(lcm(24, 1), 24);
        assert_eq!(lcm(0, 5), 5);
        assert_eq!(lcm(6, 4), 12);
    }

    #[test]
    fn visit_word_classifies_header_vs_payload() {
        use crate::persist::{persist_opt_word, persist_word};
        let header = LinkWord::header_only(0xABCD, crate::WordClass::Guaranteed);
        let payload = LinkWord::payload(7, crate::WordClass::Guaranteed, true);
        // A payload word slides through the walk like a value, a header
        // and an empty register do not: apply a +1-per-period delta and
        // check only the payload moved.
        let digest = |now, h: LinkWord, p: LinkWord| {
            let mut d = FfDigest::new(now);
            persist_word(&mut { h }, &mut d);
            persist_word(&mut { p }, &mut d);
            persist_opt_word(&mut None, &mut d);
            assert!(!d.rejected());
            d
        };
        let d0 = digest(0, header, payload);
        let d1 = digest(10, header, payload.with_word(8));
        let d2 = digest(20, header, payload.with_word(9));
        let deltas = periodic_deltas(&d0, &d1, &d2).expect("periodic");
        let (mut h, mut p, mut none) = (header, payload.with_word(9), None);
        let mut apply = FfApply::new(&deltas, 3);
        persist_word(&mut h, &mut apply);
        persist_word(&mut p, &mut apply);
        persist_opt_word(&mut none, &mut apply);
        assert!(apply.matched());
        assert_eq!((h, p, none), (header, payload.with_word(12), None));
        // A header whose contents move, a register that fills, and a word
        // whose control bits change all refuse certification.
        let moved = digest(20, header.with_word(0xABCE), payload.with_word(9));
        assert!(periodic_deltas(&d0, &d1, &moved).is_none());
        let mut filled = FfDigest::new(20);
        persist_word(&mut { header }, &mut filled);
        persist_word(&mut payload.with_word(9), &mut filled);
        persist_opt_word(&mut Some(payload), &mut filled);
        assert!(periodic_deltas(&d0, &d1, &filled).is_none());
        let retagged = LinkWord::payload(9, crate::WordClass::Guaranteed, false);
        assert!(periodic_deltas(&d0, &d1, &digest(20, header, retagged)).is_none());
    }
}
