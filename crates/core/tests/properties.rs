//! Property-based tests of the NI's data structures and flow-control
//! invariants.

use aethereal_ni::fifo::HwFifo;
use aethereal_ni::kernel::regs::{CTRL_ENABLE, CTRL_GT};
use aethereal_ni::kernel::{chan_reg_addr, pack_path_rqid, slot_reg_addr, ChanReg};
use aethereal_ni::message::{
    decode_request, decode_response, encode_request, encode_response, MessageAssembler, MsgKind,
};
use aethereal_ni::transaction::{Cmd, RespStatus, Transaction, TransactionResponse};
use aethereal_ni::{NiKernel, NiKernelSpec};
use aethereal_testkit::prelude::*;
use noc_sim::engine::ClockedWith;
use noc_sim::{Noc, Topology};
use std::collections::VecDeque;

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        Just(Cmd::Read),
        Just(Cmd::Write),
        Just(Cmd::AckedWrite),
        Just(Cmd::ReadLinked),
        Just(Cmd::WriteConditional),
    ]
}

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        arb_cmd(),
        any::<u32>(),
        prop::collection::vec(any::<u32>(), 0..20),
        0u8..32,
        0u16..4096,
        any::<bool>(),
    )
        .prop_map(|(cmd, addr, mut data, mut read_len, trans_id, flush)| {
            // The wire format carries one length field: the write burst for
            // data-carrying commands, the read length otherwise.
            if cmd.carries_data() {
                read_len = 0;
            } else {
                data.clear();
            }
            Transaction {
                cmd,
                addr,
                data,
                read_len,
                trans_id,
                flush,
            }
        })
}

fn arb_response() -> impl Strategy<Value = TransactionResponse> {
    (
        0u16..4096,
        prop::collection::vec(any::<u32>(), 0..20),
        prop_oneof![
            Just(RespStatus::Ok),
            Just(RespStatus::DecodeError),
            Just(RespStatus::SlaveError),
            Just(RespStatus::Unsupported),
            Just(RespStatus::ConditionalFail),
        ],
    )
        .prop_map(|(trans_id, data, status)| TransactionResponse {
            trans_id,
            status,
            data,
        })
}

proptest! {
    #[test]
    fn request_message_roundtrip(t in arb_transaction()) {
        let words = encode_request(&t);
        // Fig. 7: header + address + write data, nothing else.
        prop_assert_eq!(words.len(), 2 + t.data.len());
        prop_assert_eq!(decode_request(&words).expect("well-formed"), t);
    }

    #[test]
    fn response_message_roundtrip(r in arb_response()) {
        let words = encode_response(&r);
        // Fig. 7: header + read data, nothing else.
        prop_assert_eq!(words.len(), 1 + r.data.len());
        prop_assert_eq!(decode_response(&words).expect("well-formed"), r);
    }

    #[test]
    fn assembler_reframes_any_concatenation(
        ts in prop::collection::vec(arb_transaction(), 1..8),
    ) {
        let mut stream = Vec::new();
        for t in &ts {
            stream.extend(encode_request(t));
        }
        let mut asm = MessageAssembler::new(MsgKind::Request);
        for w in stream {
            asm.push_word(w);
        }
        let mut got = Vec::new();
        while let Some(t) = asm.next_request() {
            got.push(t);
        }
        prop_assert_eq!(got, ts);
        prop_assert_eq!(asm.errors(), 0);
        // Nothing is left half-framed: one more message reframes alone.
        for w in encode_request(&ts[0]) {
            asm.push_word(w);
        }
        prop_assert_eq!(asm.next_request(), Some(ts[0].clone()));
        prop_assert_eq!(asm.next_request(), None);
    }

    /// Model-based FIFO check: HwFifo behaves as a bounded queue whose
    /// reader lags the writer by the crossing latency.
    #[test]
    fn fifo_matches_reference_model(
        capacity in 1usize..16,
        crossing in 0u64..4,
        ops in prop::collection::vec((any::<bool>(), any::<u32>()), 1..120),
    ) {
        let mut fifo = HwFifo::new(capacity, crossing);
        let mut model: VecDeque<(u32, u64)> = VecDeque::new();
        let mut now = 0u64;
        for (is_push, w) in ops {
            now += 1;
            if is_push {
                let ok = fifo.push(w, now).is_ok();
                prop_assert_eq!(ok, model.len() < capacity);
                if ok {
                    model.push_back((w, now + crossing));
                }
            } else {
                let expect = match model.front() {
                    Some(&(v, t)) if t <= now => {
                        model.pop_front();
                        Some(v)
                    }
                    _ => None,
                };
                prop_assert_eq!(fifo.pop(now), expect);
            }
            prop_assert_eq!(fifo.level(), model.len());
            let visible = model.iter().take_while(|&&(_, t)| t <= now).count();
            prop_assert_eq!(fifo.sync_level(now), visible);
        }
    }

    /// End-to-end flow-control invariant: however the producer pushes and
    /// the consumer pops, the destination queue never overflows, nothing is
    /// lost and order is preserved.
    #[test]
    fn credit_flow_control_never_overflows(
        push_pattern in prop::collection::vec(any::<bool>(), 40..160),
        pop_period in 1u64..9,
        gt in any::<bool>(),
        queue_words in 2usize..9,
    ) {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let mut spec0 = NiKernelSpec::reference(0);
        let mut spec1 = NiKernelSpec::reference(1);
        for spec in [&mut spec0, &mut spec1] {
            for p in &mut spec.ports {
                p.queue_words = queue_words;
            }
        }
        let mut k0 = NiKernel::new(spec0);
        let mut k1 = NiKernel::new(spec1);
        let ctrl = CTRL_ENABLE | if gt { CTRL_GT } else { 0 };
        let p01 = topo.route(0, 1).expect("route");
        let p10 = topo.route(1, 0).expect("route");
        k0.reg_write(chan_reg_addr(1, ChanReg::Space), queue_words as u32).expect("reg");
        k0.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(&p01, 1)).expect("reg");
        k0.reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl).expect("reg");
        k1.reg_write(chan_reg_addr(1, ChanReg::Space), queue_words as u32).expect("reg");
        k1.reg_write(chan_reg_addr(1, ChanReg::PathRqid), pack_path_rqid(&p10, 1)).expect("reg");
        k1.reg_write(chan_reg_addr(1, ChanReg::Ctrl), ctrl).expect("reg");
        if gt {
            for s in 0..4 {
                k0.reg_write(slot_reg_addr(s), 2).expect("reg");
                k1.reg_write(slot_reg_addr(s + 4), 2).expect("reg");
            }
        }
        let mut next = 0u32;
        let mut got = Vec::new();
        let total_pushes = push_pattern.iter().filter(|&&p| p).count() as u32;
        let horizon = 40 * push_pattern.len() as u64 + 2_000;
        let mut pushes = push_pattern.into_iter();
        for _ in 0..horizon {
            let cycle = noc.cycle();
            if let Some(true) = pushes.next() {
                if k0.src_space(1) > 0 {
                    k0.push_src(1, next, cycle).expect("space checked");
                    next += 1;
                } else {
                    // Producer stalled by back-pressure: word not lost,
                    // just retried later — reinsert logically by pushing
                    // on a later cycle below.
                    next += 0;
                }
            }
            if cycle.is_multiple_of(pop_period) {
                if let Some(w) = k1.pop_dst(1, cycle) {
                    got.push(w);
                }
            }
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(1);
                k1.tick(link, cycle);
            }
            noc.tick();
            // Invariant: the destination queue never exceeds its capacity
            // (push inside the kernel would have panicked otherwise), and
            // the network never records violations.
            prop_assert_eq!(noc.gt_conflicts(), 0);
            prop_assert_eq!(noc.be_overflows(), 0);
        }
        // Drain the tail.
        for _ in 0..3_000 {
            let cycle = noc.cycle();
            if let Some(w) = k1.pop_dst(1, cycle) {
                got.push(w);
            }
            {
                let link = noc.ni_link_mut(0);
                k0.tick(link, cycle);
            }
            {
                let link = noc.ni_link_mut(1);
                k1.tick(link, cycle);
            }
            noc.tick();
        }
        // Everything that entered the source queue arrives, in order.
        prop_assert_eq!(got.len() as u32, next);
        for (i, &w) in got.iter().enumerate() {
            prop_assert_eq!(w, i as u32);
        }
        prop_assert!(next <= total_pushes);
    }

    /// Register file: every channel register written through the map reads
    /// back identically; unknown addresses error; disable resets dynamics.
    #[test]
    fn register_file_write_read_consistency(
        ch in 0usize..8,
        space in any::<u32>(),
        path_rqid in 0u32..(1 << 26),
        dt in any::<u32>(),
        ct in any::<u32>(),
    ) {
        let mut k = NiKernel::new(NiKernelSpec::reference(0));
        k.reg_write(chan_reg_addr(ch, ChanReg::Space), space).expect("reg");
        k.reg_write(chan_reg_addr(ch, ChanReg::PathRqid), path_rqid).expect("reg");
        k.reg_write(chan_reg_addr(ch, ChanReg::DataThreshold), dt).expect("reg");
        k.reg_write(chan_reg_addr(ch, ChanReg::CreditThreshold), ct).expect("reg");
        prop_assert_eq!(k.reg_read(chan_reg_addr(ch, ChanReg::Space)).expect("reg"), space);
        prop_assert_eq!(
            k.reg_read(chan_reg_addr(ch, ChanReg::PathRqid)).expect("reg"),
            path_rqid
        );
        prop_assert_eq!(k.reg_read(chan_reg_addr(ch, ChanReg::DataThreshold)).expect("reg"), dt);
        prop_assert_eq!(
            k.reg_read(chan_reg_addr(ch, ChanReg::CreditThreshold)).expect("reg"),
            ct
        );
        // Closing resets the dynamic state but keeps the static registers.
        k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), CTRL_ENABLE).expect("reg");
        k.reg_write(chan_reg_addr(ch, ChanReg::Ctrl), 0).expect("reg");
        prop_assert_eq!(k.reg_read(chan_reg_addr(ch, ChanReg::Ctrl)).expect("reg"), 0);
        prop_assert_eq!(
            k.reg_read(chan_reg_addr(ch, ChanReg::PathRqid)).expect("reg"),
            path_rqid
        );
        prop_assert_eq!(k.reg_read(chan_reg_addr(ch, ChanReg::Space)).expect("reg"), 0);
    }
}
