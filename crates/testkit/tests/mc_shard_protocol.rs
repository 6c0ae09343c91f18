//! Model-checking the pipelined shard exchange protocol of
//! `noc_sim::shard`.
//!
//! The bounded-interleaving explorer (`aethereal_testkit::mc`) drives the
//! *production* protocol code — `WireRing` send/publish/wait/take and the
//! full barrier-less `run_worker` loop — on instrumented [`ModelSync`]
//! cells, exhaustively within the documented bounds (preemption budget,
//! single-entry store buffers). The overlap invariants are asserted across
//! every explored schedule:
//!
//! * **never absorb before due** — a consumer takes a ring slot at exactly
//!   its stamped cycle (`WireRing::take_due`'s missed-cycle assertion and
//!   the slot-index aliasing are both live under the model, so a violation
//!   panics the schedule);
//! * **never compute past an unpublished watermark** — a consumer that
//!   proceeds into cycle `t` before every inbound producer published past
//!   `t` observes a missing entry and panics (and a producer that outruns
//!   the reverse-direction watermark overruns the ring's slot capacity,
//!   which `WireRing::occupy` asserts);
//! * **no lost wakeups** — every parked spin wait is eventually released
//!   (a lost wakeup surfaces as a model deadlock).
//!
//! The seeded-mutant suite then weakens the protocol in five separate ways
//! (publish-before-send, watermark off-by-one in both directions, a
//! producer skipping the reverse watermark wait, a consumer skipping the
//! forward watermark wait) and shows the checker catches each one —
//! evidence the exploration actually covers the orderings the pipelined
//! exchange relies on.

use aethereal_testkit::mc::{self, Config, Failure, ModelSync, Outcome};
use noc_sim::shard::{run_worker, CachePadded, ExchangeSlice, RegionSched, WireRing, RING_SLOTS};
use noc_sim::{Clocked, LinkWord, WordClass};
use std::sync::{Arc, Mutex};

fn assert_pass(outcome: &Outcome) {
    match outcome {
        Outcome::Pass { .. } => {}
        Outcome::Fail { failure, .. } => {
            panic!(
                "model check failed: {failure:?}\ntrace:\n  {}",
                failure.trace().join("\n  ")
            );
        }
    }
}

fn assert_caught(outcome: &Outcome, what: &str) {
    assert!(
        matches!(outcome, Outcome::Fail { .. }),
        "{what}: mutant survived the model checker: {outcome:?}"
    );
}

// ---------------------------------------------------------------------------
// WireRing: the pipelined watermark protocol on one wire pair.
// ---------------------------------------------------------------------------

/// How a participant orders its per-cycle protocol steps. `Correct` is the
/// production order of `run_worker`: emit (send) → publish own cycle →
/// wait on the peer's watermark → absorb (take).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The production ordering.
    Correct,
    /// M1: the producer publishes cycle `t` *before* placing `t`'s word in
    /// the ring — the watermark claims the cycle final while its slot is
    /// still in flight.
    PublishBeforeSend,
    /// M2: the producer's publish stores `t` instead of `t + 1` — the
    /// consumer can never observe the last cycle as final and starves.
    PublishBehind,
    /// M3: the producer's publish stores `t + 2` — cycle `t + 1` is
    /// claimed final a cycle early, letting the consumer absorb ahead of
    /// the ring's contents.
    PublishAhead,
    /// M4: the producer never waits on the reverse-direction watermark —
    /// the skew bound is gone and the producer laps the ring's slot
    /// capacity while old cycles are still unconsumed.
    ProducerSkipsReverseWait,
    /// M5: the consumer absorbs cycle `t` without waiting for the forward
    /// watermark to pass `t` — it computes past an unpublished cycle and
    /// observes a missing entry.
    ConsumerSkipsWait,
}

/// One directed wire pair between a producer region and a consumer region,
/// reduced to the protocol skeleton of `run_worker`: the producer stamps a
/// credit bundle for every cycle of `0..cycles` into the forward ring; the
/// consumer absorbs each cycle at its exact due stamp and publishes its
/// own progress on the reverse ring, which is what bounds the producer's
/// lead (the wire-adjacency skew rule).
fn explore_wire_pair(cycles: u64, variant: Variant) -> Outcome {
    mc::explore(&Config::default(), move |exec| {
        let fwd = Arc::new(WireRing::<ModelSync>::new(0));
        let rev = Arc::new(WireRing::<ModelSync>::new(0));
        {
            let (fwd, rev) = (Arc::clone(&fwd), Arc::clone(&rev));
            exec.spawn(move || {
                for t in 0..cycles {
                    match variant {
                        Variant::PublishBeforeSend => {
                            fwd.publish(t);
                            fwd.send_credits(t, t as u32 + 1);
                        }
                        Variant::PublishBehind => {
                            fwd.send_credits(t, t as u32 + 1);
                            // publish(t - 1): first unpublished stays at t.
                            if let Some(p) = t.checked_sub(1) {
                                fwd.publish(p);
                            }
                        }
                        Variant::PublishAhead => {
                            fwd.send_credits(t, t as u32 + 1);
                            fwd.publish(t + 1);
                        }
                        _ => {
                            fwd.send_credits(t, t as u32 + 1);
                            fwd.publish(t);
                        }
                    }
                    if variant != Variant::ProducerSkipsReverseWait {
                        rev.wait_published(t);
                    }
                }
            });
        }
        exec.spawn(move || {
            for t in 0..cycles {
                rev.publish(t);
                if variant != Variant::ConsumerSkipsWait {
                    fwd.wait_published(t);
                }
                let (word, credits) = fwd
                    .take_due(t)
                    .unwrap_or_else(|| panic!("cycle {t}'s entry not due at its stamp"));
                assert!(word.is_none());
                assert_eq!(credits, t as u32 + 1, "entry absorbed off schedule");
            }
        });
    })
}

#[test]
fn wire_ring_passes_model_check() {
    assert_pass(&explore_wire_pair(3, Variant::Correct));
}

#[test]
fn wire_ring_passes_model_check_across_slot_reuse() {
    // More cycles than slots: the watermark chain alone must keep slot
    // reuse safe across the wrap-around.
    assert_pass(&explore_wire_pair(RING_SLOTS as u64 + 2, Variant::Correct));
}

#[test]
fn mutant_publish_before_send_is_caught() {
    assert_caught(
        &explore_wire_pair(3, Variant::PublishBeforeSend),
        "M1 publish/send reorder",
    );
}

#[test]
fn mutant_watermark_behind_is_caught() {
    let outcome = explore_wire_pair(2, Variant::PublishBehind);
    assert_caught(&outcome, "M2 watermark off-by-one (behind)");
    assert!(
        matches!(outcome.failure(), Some(Failure::Deadlock { .. })),
        "expected the consumer to starve: {outcome:?}"
    );
}

#[test]
fn mutant_watermark_ahead_is_caught() {
    assert_caught(
        &explore_wire_pair(3, Variant::PublishAhead),
        "M3 watermark off-by-one (ahead)",
    );
}

#[test]
fn mutant_producer_skipping_reverse_wait_is_caught() {
    // Needs more cycles than slots so the unchecked lead actually laps the
    // ring; `WireRing::occupy`'s overrun assertion is the tripwire.
    assert_caught(
        &explore_wire_pair(RING_SLOTS as u64 + 2, Variant::ProducerSkipsReverseWait),
        "M4 producer skips the reverse watermark wait",
    );
}

#[test]
fn mutant_consumer_skipping_wait_is_caught() {
    assert_caught(
        &explore_wire_pair(3, Variant::ConsumerSkipsWait),
        "M5 consumer computes past an unpublished watermark",
    );
}

// ---------------------------------------------------------------------------
// The full pipelined loop: run_worker over regions that reach the rings from
// inside their own phases.
// ---------------------------------------------------------------------------

type Rings = Arc<Vec<CachePadded<WireRing<ModelSync>>>>;

/// Wire 0 carries the producer's words to the consumer, wire 1 the
/// consumer's credits back: the two directions of one cut edge.
const FWD: usize = 0;
const REV: usize = 1;

/// What one region observed, checked by the finale.
#[derive(Debug, Default, PartialEq, Eq)]
struct Observed {
    /// Cycles at which `absorb` took a due slot off the inbound ring.
    taken_at: Vec<u64>,
    /// Whether the wake branch under test fired (see the two regions).
    woken: bool,
    /// The region's final cycle.
    now: u64,
}

/// The producing side of the edge, shaped like `Noc`: `emit` writes the
/// outbound ring in place, `absorb` takes the inbound ring's due slot.
/// At each cycle of `events` it sends a word carrying that cycle plus
/// `cycle + 1` credits, and sleeps to the next event in between — so the
/// worker has to wake it at its `dormant_until` horizon.
struct Producer {
    rings: Rings,
    cycle: u64,
    events: &'static [u64],
    /// Where the latest `skip` landed.
    skipped_to: Option<u64>,
    seen: Observed,
}

fn stamped(t: u64) -> LinkWord {
    LinkWord::payload(t as u32, WordClass::BestEffort, true)
}

impl Clocked for Producer {
    fn now(&self) -> u64 {
        self.cycle
    }

    fn emit(&mut self) {
        let t = self.cycle;
        if self.events.contains(&t) {
            // Woken by the horizon: the worker skipped straight here.
            self.seen.woken |= self.skipped_to == Some(t);
            self.rings[FWD].0.send_word(t, stamped(t));
            self.rings[FWD].0.send_credits(t, t as u32 + 1);
        }
    }

    fn absorb(&mut self) {
        let t = self.cycle;
        if let Some((word, credits)) = self.rings[REV].0.take_due(t) {
            assert_eq!((word, credits), (None, t as u32 + 1), "slot off its stamp");
            self.seen.taken_at.push(t);
        }
        self.cycle += 1;
    }

    fn dormant_until(&self, now: u64) -> u64 {
        let due = self.events.iter().copied().filter(|&e| e >= now);
        due.min().unwrap_or(u64::MAX)
    }

    fn skip(&mut self, cycles: u64) {
        let to = self.cycle + cycles;
        assert!(
            !self.events.iter().any(|e| (self.cycle..to).contains(e)),
            "skipped over an event in {}..{to}",
            self.cycle
        );
        self.cycle = to;
        self.skipped_to = Some(to);
    }
}

/// The consuming side: takes each word at its stamp and answers with
/// credits one cycle later. It has no horizon of its own, so once asleep
/// only a due slot on its inbound ring (`has_due`) can wake it.
struct Consumer {
    rings: Rings,
    cycle: u64,
    /// A word was taken last cycle and is still to be answered.
    owes_credit: bool,
    skipped_to: Option<u64>,
    seen: Observed,
}

impl Clocked for Consumer {
    fn now(&self) -> u64 {
        self.cycle
    }

    fn emit(&mut self) {
        if std::mem::take(&mut self.owes_credit) {
            let t = self.cycle;
            self.rings[REV].0.send_credits(t, t as u32 + 1);
        }
    }

    fn absorb(&mut self) {
        let t = self.cycle;
        if let Some((word, credits)) = self.rings[FWD].0.take_due(t) {
            assert_eq!(
                (word, credits),
                (Some(stamped(t)), t as u32 + 1),
                "slot off its stamp"
            );
            // Woken by input: the worker skipped here for this very slot.
            self.seen.woken |= self.skipped_to == Some(t);
            self.seen.taken_at.push(t);
            self.owes_credit = true;
        }
        self.cycle += 1;
    }

    fn dormant_until(&self, now: u64) -> u64 {
        if self.owes_credit {
            now
        } else {
            u64::MAX
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.skipped_to = Some(self.cycle);
    }
}

/// Model-checks `run_worker` itself — the production pipelined loop over
/// arena rings and published-cycle watermarks, with **no barrier**
/// anywhere — driving the shape production runs: regions that write ring
/// slots from inside `emit` and take them from inside `absorb`, while the
/// worker only publishes, waits and decides who sleeps. Every explored
/// schedule must deliver each slot at exactly its stamp (asserted in the
/// regions) and end in the one observation a lockstep run produces, with
/// all three scheduling branches taken: both regions sleep, the producer
/// is woken by its `dormant_until` horizon, the consumer by `has_due`.
fn explore_run_worker(batch: u64) {
    // Two bursts far enough apart for both regions to fall asleep in
    // between, at batch 1 and 2 alike.
    const EVENTS: &[u64] = &[0, 3];
    const CYCLES: u64 = 5;
    // One involuntary context switch is enough to surface every known
    // ordering bug in this protocol (the mutants above all fail within
    // one); the full-loop state space with two is out of test budget.
    let config = Config {
        preemptions: 1,
        ..Config::default()
    };
    let outcome = mc::explore(&config, move |exec| {
        let rings: Rings = Arc::new((0..2).map(|_| CachePadded(WireRing::new(0))).collect());
        let seen: Arc<Mutex<[Option<Observed>; 2]>> = Arc::new(Mutex::new([None, None]));
        {
            let (rings, seen) = (Arc::clone(&rings), Arc::clone(&seen));
            exec.spawn(move || {
                let mut region = Producer {
                    rings: Arc::clone(&rings),
                    cycle: 0,
                    events: EVENTS,
                    skipped_to: None,
                    seen: Observed::default(),
                };
                let slice = ExchangeSlice {
                    rings: &rings,
                    out_list: &[FWD],
                    in_list: &[REV],
                };
                run_worker(&mut region, &slice, 0, CYCLES, batch, RegionSched::AWAKE);
                region.seen.now = region.cycle;
                seen.lock().expect("seen lock")[0] = Some(region.seen);
            });
        }
        {
            let seen = Arc::clone(&seen);
            exec.spawn(move || {
                let mut region = Consumer {
                    rings: Arc::clone(&rings),
                    cycle: 0,
                    owes_credit: false,
                    skipped_to: None,
                    seen: Observed::default(),
                };
                let slice = ExchangeSlice {
                    rings: &rings,
                    out_list: &[REV],
                    in_list: &[FWD],
                };
                run_worker(&mut region, &slice, 0, CYCLES, batch, RegionSched::AWAKE);
                region.seen.now = region.cycle;
                seen.lock().expect("seen lock")[1] = Some(region.seen);
            });
        }
        exec.finale(move || {
            let seen = seen.lock().expect("seen lock");
            let observed = |taken_at: &[u64]| {
                Some(Observed {
                    taken_at: taken_at.to_vec(),
                    woken: true,
                    now: CYCLES,
                })
            };
            assert_eq!(
                seen[0],
                observed(&[1, 4]),
                "producer: credits and horizon wake"
            );
            assert_eq!(seen[1], observed(EVENTS), "consumer: words and input wake");
        });
    });
    assert_pass(&outcome);
}

#[test]
fn run_worker_passes_model_check_batch_1() {
    explore_run_worker(1);
}

#[test]
fn run_worker_passes_model_check_batch_2() {
    explore_run_worker(2);
}
