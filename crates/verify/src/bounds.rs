//! Closed-form service bounds of certified GT connections.
//!
//! §2 of the paper: "the slot reservations determine the throughput and
//! the latency of a connection". For a certified flow (see
//! [`crate::schedule`]) every quantity below is computed from the slot
//! table, the route length and the NI's packet ceiling alone — no
//! simulation — by replaying the packetizer's arithmetic over one
//! slot-table revolution:
//!
//! * at every slot boundary it owns (and is not still draining a
//!   previous packet), the kernel builds one packet of
//!   `min(run × SLOT_WORDS, max_packet_words)` words — one header, one
//!   continuation word per gateway, the rest payload — where `run` is the
//!   consecutive owned-slot run starting there;
//! * the packet drains one word per cycle with absolute priority;
//! * every word then takes one slot per hop plus one whole slot per
//!   slot-aligned gateway rewrite to reach the destination.
//!
//! [`gt_bounds`] gives the steady-state guarantees (throughput per
//! revolution, delivery jitter); [`worst_case_latency`] bounds the
//! header-to-last-word latency of a finite message by maximizing the
//! same replay over every possible arrival cycle within a revolution.
//! Cycle-accurate cross-validation lives in this crate's tests:
//! measured latency never exceeds the bound, and a saturated stream's
//! measured throughput equals the bound exactly.

use crate::schedule::CertifiedFlow;
use aethereal_ni::fifo::DEFAULT_CROSSING_CYCLES;
use noc_sim::SLOT_WORDS;

/// Margin added to delivery-time bounds for the fixed pipeline stages the
/// slot arithmetic does not model: NI-link absorption and destination
/// depacketization, including a destination-queue crossing of up to
/// [`DEFAULT_CROSSING_CYCLES`] (at most one slot in total).
pub const DELIVERY_MARGIN: u64 = SLOT_WORDS;

/// Closed-form guarantees of one GT flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtBounds {
    /// Cycles per slot-table revolution (`stu_slots x SLOT_WORDS`).
    pub revolution_cycles: u64,
    /// Guaranteed payload words delivered per revolution for a saturated
    /// source (exact, not just a lower bound).
    pub payload_per_revolution: u64,
    /// Guaranteed payload throughput in words per cycle
    /// (`payload_per_revolution / revolution_cycles`).
    pub throughput: f64,
    /// Upper bound on the gap between consecutive payload-word deliveries
    /// of a saturated stream, in cycles.
    pub jitter_cycles: u64,
    /// Fixed route traversal: one slot per hop plus one slot per gateway
    /// rewrite.
    pub path_cycles: u64,
}

/// Owned-slot mask of a flow within a table of `stu` slots.
fn owned_mask(stu: usize, slots: &[usize]) -> Vec<bool> {
    let mut owned = vec![false; stu];
    for &s in slots {
        owned[s] = true;
    }
    owned
}

/// Circular consecutive owned run starting at `slot`, capped at `stu`.
fn run_from(owned: &[bool], slot: usize) -> usize {
    let stu = owned.len();
    let mut run = 0;
    while run < stu && owned[(slot + run) % stu] {
        run += 1;
    }
    run
}

/// Replays one revolution of the packetizer for a saturated source:
/// returns `(payload words emitted, max gap between payload emissions)`.
///
/// The replay walks slot boundaries `0..stu` with carry-over drain state,
/// which is exact whenever a packet never outlives its run (always true:
/// the budget is capped at `run x SLOT_WORDS`).
fn replay_revolution(owned: &[bool], max_packet_words: usize, ext: usize) -> (u64, u64) {
    let stu = owned.len();
    let w = SLOT_WORDS as usize;
    let mut payload = 0u64;
    let mut max_gap = 0u64;
    let mut last_payload_at: Option<u64> = None;
    let mut first_payload_at: Option<u64> = None;
    let mut busy_until = 0usize; // absolute cycle the current packet drains at
    for k in 0..stu {
        let c = k * w;
        if c < busy_until || !owned[k] {
            continue;
        }
        let run = run_from(owned, k);
        let p = usize::min(run * w, max_packet_words);
        if p < 2 + ext {
            continue; // packet_fits fails: the slot passes unused
        }
        let pay = p - 1 - ext;
        // Header at `c`, continuations next, payload words contiguous.
        let first = (c + 1 + ext) as u64;
        if let Some(last) = last_payload_at {
            max_gap = max_gap.max(first - last);
        } else {
            first_payload_at = Some(first);
        }
        last_payload_at = Some(first + pay as u64 - 1);
        payload += pay as u64;
        busy_until = c + p;
    }
    // Close the circle: gap from the last payload of this revolution to
    // the first payload of the next.
    if let (Some(last), Some(first)) = (last_payload_at, first_payload_at) {
        max_gap = max_gap.max(first + (stu * w) as u64 - last);
    }
    (payload, max_gap.max(1))
}

/// Closed-form guarantees of a certified GT flow within a table of
/// `stu_slots` slots.
///
/// # Panics
///
/// Panics if the flow is best-effort or owns no slots — the certificate
/// only admits GT flows with at least one slot.
pub fn gt_bounds(stu_slots: usize, flow: &CertifiedFlow) -> GtBounds {
    assert!(flow.gt, "bounds are defined for GT flows");
    assert!(
        !flow.injection_slots.is_empty(),
        "certified GT flows own at least one slot"
    );
    let owned = owned_mask(stu_slots, &flow.injection_slots);
    let (payload, jitter) = replay_revolution(&owned, flow.max_packet_words, flow.gateways);
    let revolution_cycles = (stu_slots as u64) * SLOT_WORDS;
    GtBounds {
        revolution_cycles,
        payload_per_revolution: payload,
        throughput: payload as f64 / revolution_cycles as f64,
        jitter_cycles: jitter,
        path_cycles: (flow.hops as u64 + flow.gateways as u64) * SLOT_WORDS,
    }
}

/// Worst-case cycles from `message_words` payload words entering an
/// empty, immediately-eligible source queue (thresholds 0, credits
/// available, same clock domain) until the last of them is readable at
/// the destination queue.
///
/// Exact replay maximized over every arrival cycle within one
/// revolution: the source handoff (a pushed word is visible to the
/// packetizer only after the source queue's clock-domain crossing, so a
/// word that arrives less than that before an owned slot boundary waits
/// for the next one), slot wait, packet emission (header + continuations +
/// payload at one word per cycle, possibly over several packets), route
/// traversal at one slot per hop and per gateway rewrite, plus
/// [`DELIVERY_MARGIN`] and whatever the destination queue's crossing
/// exceeds [`DEFAULT_CROSSING_CYCLES`] by.
///
/// On a single-segment route with default crossings the worst start phase
/// reaches the bound. A route with gateway rewrites keeps one cycle of
/// slack per gateway: each gateway turns the next continuation word into
/// the packet's header, so the worm that reaches the destination is one
/// word shorter per gateway and its last word lands that much sooner than
/// the replay, which counts every continuation word at the source.
///
/// # Panics
///
/// Panics if `message_words` is 0, the flow is best-effort, it owns no
/// slots, or its budget can never carry a payload word.
pub fn worst_case_latency(stu_slots: usize, flow: &CertifiedFlow, message_words: usize) -> u64 {
    assert!(message_words > 0, "a message has at least one word");
    assert!(flow.gt, "bounds are defined for GT flows");
    let owned = owned_mask(stu_slots, &flow.injection_slots);
    let w = SLOT_WORDS as usize;
    let revolution = stu_slots * w;
    let ext = flow.gateways;
    let tail = DELIVERY_MARGIN + flow.dst_crossing.saturating_sub(DEFAULT_CROSSING_CYCLES);
    let mut worst = 0u64;
    for arrival in 0..revolution {
        let mut remaining = message_words;
        let mut busy_until = arrival;
        let mut k = (arrival + flow.src_crossing as usize).div_ceil(w);
        // Any schedule that makes progress emits at least one payload
        // word per revolution, plus two revolutions of slack.
        let deadline = arrival + (2 + message_words) * revolution;
        let last_emit = loop {
            let c = k * w;
            assert!(c <= deadline, "flow's budget can never carry the message");
            let slot = k % stu_slots;
            if c >= busy_until && owned[slot] {
                let run = run_from(&owned, slot);
                let p = usize::min(run * w, flow.max_packet_words);
                if p >= 2 + ext {
                    let pay = usize::min(p - 1 - ext, remaining);
                    busy_until = c + 1 + ext + pay;
                    remaining -= pay;
                    if remaining == 0 {
                        break c + ext + pay; // header at c, payload follows
                    }
                }
            }
            k += 1;
        };
        let path = (flow.hops + flow.gateways) * w;
        worst = worst.max((last_emit + path - arrival) as u64 + tail);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FlowId;

    fn flow(slots: &[usize], hops: usize, gateways: usize, mp: usize) -> CertifiedFlow {
        CertifiedFlow {
            flow: FlowId { ni: 0, channel: 1 },
            gt: true,
            dst_ni: 1,
            remote_qid: 1,
            hops,
            gateways,
            injection_slots: slots.to_vec(),
            space: 8,
            max_packet_words: mp,
            src_crossing: DEFAULT_CROSSING_CYCLES,
            dst_crossing: DEFAULT_CROSSING_CYCLES,
        }
    }

    #[test]
    fn spread_slots_give_two_payload_words_each() {
        // One spread slot: one 3-word packet (header + 2 payload) per
        // revolution — the §2 guarantee the facade tests measure.
        let b = gt_bounds(8, &flow(&[2], 3, 0, 12));
        assert_eq!(b.revolution_cycles, 24);
        assert_eq!(b.payload_per_revolution, 2);
        assert!((b.throughput - 2.0 / 24.0).abs() < 1e-12);
        let b4 = gt_bounds(8, &flow(&[0, 2, 4, 6], 3, 0, 12));
        assert_eq!(b4.payload_per_revolution, 8);
    }

    #[test]
    fn consecutive_run_amortizes_the_header() {
        // Slots {0,1,2}: one 9-word packet (1 header + 8 payload) instead
        // of three 3-word packets (6 payload).
        let b = gt_bounds(8, &flow(&[0, 1, 2], 3, 0, 12));
        assert_eq!(b.payload_per_revolution, 8);
    }

    #[test]
    fn packet_ceiling_splits_long_runs() {
        // Slots {0..5}, max packet 12: a 12-word packet drains over four
        // slots, then a 6-word packet covers the rest: 11 + 5 payload.
        let b = gt_bounds(8, &flow(&[0, 1, 2, 3, 4, 5], 3, 0, 12));
        assert_eq!(b.payload_per_revolution, 16);
    }

    #[test]
    fn gateway_continuations_consume_budget() {
        // One gateway: each 3-word packet is header + continuation + 1
        // payload word.
        let b = gt_bounds(8, &flow(&[1, 5], 9, 1, 12));
        assert_eq!(b.payload_per_revolution, 2);
        assert_eq!(b.path_cycles, 30);
    }

    #[test]
    fn full_table_is_all_payload_minus_headers() {
        let b = gt_bounds(8, &flow(&(0..8).collect::<Vec<_>>(), 1, 0, 12));
        // 24 cycles, packets of 12 words: 2 headers per revolution.
        assert_eq!(b.payload_per_revolution, 22);
        assert!((b.throughput - 22.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn latency_covers_slot_wait_and_path() {
        // Single slot 0 of 8, 3 hops: worst arrival just misses slot 0
        // once the source handoff is counted.
        let f = flow(&[0], 3, 0, 12);
        let l = worst_case_latency(8, &f, 1);
        // Worst arrival cycle 23: visible at 25, wait to cycle 48, header
        // 48, payload 49, path 9 -> 58 - 23 = 35 cycles + margin.
        assert_eq!(l, 35 + DELIVERY_MARGIN);
        // Two more cycles of crossing at each end: visible at 27 from
        // arrival 23 (and the worst arrival moves to 21), readable two
        // cycles later.
        let slow = CertifiedFlow {
            src_crossing: 4,
            dst_crossing: 4,
            ..f
        };
        assert_eq!(worst_case_latency(8, &slow, 1), l + 4);
    }

    #[test]
    fn latency_of_multi_packet_messages_spans_revolutions() {
        // 5 payload words through a single spread slot: 3 packets of 2,
        // 2, 1 words over three revolutions.
        let f = flow(&[0], 3, 0, 12);
        let l5 = worst_case_latency(8, &f, 5);
        assert!(l5 > worst_case_latency(8, &f, 1) + 24);
    }

    #[test]
    fn jitter_bounded_by_slot_gap() {
        let b = gt_bounds(8, &flow(&[0, 4], 3, 0, 12));
        // Last payload of slot 0's packet at cycle 2, first of slot 4's
        // at 13: gap 11; the wrap (14 -> 25) matches it.
        assert_eq!(b.jitter_cycles, 11);
    }
}
