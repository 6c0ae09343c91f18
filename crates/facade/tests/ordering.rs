//! Ordering-semantics integration tests: the §2 "transaction ordering"
//! service — in-order response delivery across narrowcast slaves of very
//! different speeds, multicast ack merging with stragglers, and pipelined
//! outstanding transactions on a single connection.

use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest};
use aethereal::cfg::{presets, NocSpec, NocSystem, RuntimeConfigurator, TopologySpec};
use aethereal::ni::shell::AddrRange;
use aethereal::ni::{RespStatus, Transaction};
use aethereal::proto::MemorySlave;

fn collect_responses(
    sys: &mut NocSystem,
    ni: usize,
    n: usize,
) -> Vec<aethereal::ni::TransactionResponse> {
    let mut out = Vec::new();
    for _ in 0..200_000 {
        sys.tick();
        while let Some(r) = sys.nis[ni].master_mut(1).take_response() {
            out.push(r);
        }
        if out.len() >= n {
            break;
        }
    }
    assert_eq!(out.len(), n, "expected {n} responses");
    out
}

#[test]
fn narrowcast_preserves_submission_order_across_slave_speeds() {
    // Three memories with latencies 1, 9 and 27 cycles behind one
    // narrowcast master; an interleaved read pattern must come back in
    // submission order regardless of which memory answers faster.
    let ranges = vec![
        AddrRange {
            base: 0x0000,
            size: 0x100,
        },
        AddrRange {
            base: 0x0100,
            size: 0x100,
        },
        AddrRange {
            base: 0x0200,
            size: 0x100,
        },
    ];
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 2,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 8),
            presets::narrowcast_master_ni(1, ranges),
            presets::slave_ni(2),
            presets::slave_ni(3),
            presets::slave_ni(4),
            presets::slave_ni(5),
            presets::slave_ni(6),
            presets::slave_ni(7),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    let slaves = [2usize, 4, 6];
    for (ch, &slave) in (1..=3).zip(&slaves) {
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: ch },
                ChannelEnd {
                    ni: slave,
                    channel: 1,
                },
            ),
        )
        .expect("leg opens");
    }
    for (k, &slave) in slaves.iter().enumerate() {
        let mut mem = MemorySlave::new(27 / 3u64.pow(2 - k as u32)); // 3, 9, 27... reversed below
        mem.poke(0x10, 100 + k as u32);
        sys.bind_slave(slave, 1, Box::new(mem));
    }
    // Interleave reads hitting slow and fast memories alternately; range 3
    // is unmapped, so the shell answers that read itself, and its decode
    // error must still wait its turn behind the slow reads before it.
    let pattern = [2u32, 0, 1, 3, 2, 1, 0, 2, 0];
    for (i, &range) in pattern.iter().enumerate() {
        while !sys.nis[1].master_mut(1).can_submit() {
            sys.tick();
        }
        sys.nis[1]
            .master_mut(1)
            .submit(Transaction::read(range * 0x100 + 0x10, 1, i as u16));
    }
    let responses = collect_responses(&mut sys, 1, pattern.len());
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.trans_id, i as u16, "response {i} out of order");
        if pattern[i] == 3 {
            assert_eq!(r.status, RespStatus::DecodeError, "unmapped read {i}");
            continue;
        }
        assert_eq!(
            r.data,
            vec![100 + pattern[i]],
            "response {i} from the right memory"
        );
    }
}

#[test]
fn multicast_waits_for_the_slowest_slave() {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 4),
            presets::multicast_master_ni(1, 2),
            presets::slave_ni(2),
            presets::slave_ni(3),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    for (ch, slave) in [(1usize, 2usize), (2, 3)] {
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: ch },
                ChannelEnd {
                    ni: slave,
                    channel: 1,
                },
            ),
        )
        .expect("leg opens");
    }
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    sys.bind_slave(3, 1, Box::new(MemorySlave::new(60))); // the straggler
    let t0 = sys.cycle();
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x4, vec![1], 1));
    let r = collect_responses(&mut sys, 1, 1).remove(0);
    assert_eq!(r.status, RespStatus::Ok);
    assert!(
        sys.cycle() - t0 >= 60,
        "the merged ack cannot beat the slowest slave ({} cycles)",
        sys.cycle() - t0
    );
}

#[test]
fn pipelined_transactions_on_one_connection_stay_ordered() {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 4),
            presets::master_ni(1),
            presets::slave_ni(2),
            presets::slave_ni(3),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 2, channel: 1 },
        ),
    )
    .expect("opens");
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(3)));
    // Submit a write+read pair per location without waiting: the connection
    // pipeline must serialize them correctly (read-after-write hazard).
    let n = 6u16;
    for i in 0..n {
        while !sys.nis[1].master_mut(1).can_submit() {
            sys.tick();
        }
        sys.nis[1].master_mut(1).submit(Transaction::write(
            u32::from(i) * 4,
            vec![u32::from(i) + 50],
            i,
        ));
        while !sys.nis[1].master_mut(1).can_submit() {
            sys.tick();
        }
        sys.nis[1]
            .master_mut(1)
            .submit(Transaction::read(u32::from(i) * 4, 1, 100 + i));
    }
    let responses = collect_responses(&mut sys, 1, n as usize);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.trans_id, 100 + i as u16);
        assert_eq!(
            r.data,
            vec![i as u32 + 50],
            "read {i} observes the preceding write (RAW ordering)"
        );
    }
}
