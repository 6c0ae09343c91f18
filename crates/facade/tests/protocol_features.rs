//! Integration tests of the protocol-level features the paper names for
//! "full-fledged" shells: read-linked / write-conditional, multi-connection
//! slave ports, the AXI adapter, trace replay, clock-domain divisors, and
//! remote introspection.

use aethereal::cfg::inspect::dump_ni;
use aethereal::cfg::{presets, NocSystem};
use aethereal::ni::shell::axi::{ArBeat, AwBeat, AxiResp, WBeat};
use aethereal::ni::{Cmd, RespStatus, Transaction};
use aethereal::proto::{
    MemorySlave, Trace, TraceMaster, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::Engine;
use scenario::{configurable, configured_pair, mesh, open, pair_spec, BE};

mod scenario;

fn poll_master(sys: &mut NocSystem, ni: usize) -> aethereal::ni::TransactionResponse {
    for _ in 0..40_000 {
        sys.tick();
        if let Some(r) = sys.nis[ni].master_mut(1).take_response() {
            return r;
        }
    }
    panic!("no response");
}

#[test]
fn read_linked_write_conditional_over_the_network() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    // Seed the location.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x50, vec![7], 1));
    assert_eq!(poll_master(&mut sys, 1).status, RespStatus::Ok);
    // LL: plant a reservation.
    let mut ll = Transaction::read(0x50, 1, 2);
    ll.cmd = Cmd::ReadLinked;
    sys.nis[1].master_mut(1).submit(ll);
    let r = poll_master(&mut sys, 1);
    assert_eq!(r.data, vec![7]);
    // SC: succeeds because nothing intervened.
    let mut sc = Transaction::acked_write(0x50, vec![8], 3);
    sc.cmd = Cmd::WriteConditional;
    sys.nis[1].master_mut(1).submit(sc);
    assert_eq!(poll_master(&mut sys, 1).status, RespStatus::Ok);
    // LL again, then an ordinary write breaks the reservation → SC fails.
    let mut ll = Transaction::read(0x50, 1, 4);
    ll.cmd = Cmd::ReadLinked;
    sys.nis[1].master_mut(1).submit(ll);
    let _ = poll_master(&mut sys, 1);
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x50, vec![9], 5));
    assert_eq!(poll_master(&mut sys, 1).status, RespStatus::Ok);
    let mut sc = Transaction::acked_write(0x50, vec![10], 6);
    sc.cmd = Cmd::WriteConditional;
    sys.nis[1].master_mut(1).submit(sc);
    assert_eq!(poll_master(&mut sys, 1).status, RespStatus::ConditionalFail);
    // The failed SC must not have written.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x50, 1, 7));
    assert_eq!(poll_master(&mut sys, 1).data, vec![9]);
}

#[test]
fn multi_connection_slave_serves_two_masters() {
    // Two masters on different NIs share one slave port with two channels:
    // the multi-connection shell (Fig. 4) schedules between the
    // connections and routes responses back correctly.
    let spec = mesh(
        2,
        1,
        2,
        vec![
            presets::cfg_module_ni(0, 4),
            presets::master_ni(1),
            presets::multi_slave_ni(2, 2),
            presets::master_ni(3),
        ],
    );
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    open(&mut cfg, &mut sys, (3, 1), (2, 2), BE, BE);
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    // Both masters write to disjoint locations and read back concurrently.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x10, vec![0xA], 1));
    sys.nis[3]
        .master_mut(1)
        .submit(Transaction::acked_write(0x20, vec![0xB], 2));
    let mut acks = 0;
    for _ in 0..40_000 {
        sys.tick();
        if sys.nis[1].master_mut(1).take_response().is_some() {
            acks += 1;
        }
        if sys.nis[3].master_mut(1).take_response().is_some() {
            acks += 1;
        }
        if acks == 2 {
            break;
        }
    }
    assert_eq!(acks, 2, "both masters acknowledged");
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x20, 1, 3));
    let r = poll_master(&mut sys, 1);
    assert_eq!(
        r.data,
        vec![0xB],
        "shared memory is coherent across masters"
    );
}

#[test]
fn axi_adapter_bridges_to_the_noc() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    let mut axi = aethereal::ni::shell::AxiMasterAdapter::new();
    // AXI write burst.
    axi.put_aw(AwBeat {
        addr: 0x80,
        len: 2,
        id: 11,
    });
    axi.put_w(WBeat {
        data: 0x1111,
        last: false,
    });
    axi.put_w(WBeat {
        data: 0x2222,
        last: true,
    });
    let mut b = None;
    for _ in 0..40_000 {
        {
            let ni = &mut sys.nis[1];
            // Split borrow: the adapter needs the stack and kernel; obtain
            // the stack's channel data through the Ni API.
            let (stack, kernel) = ni.master_and_kernel_mut(1);
            axi.tick(stack, kernel, sys.noc.cycle());
        }
        sys.tick();
        if let Some(beat) = axi.take_b() {
            b = Some(beat);
            break;
        }
    }
    let b = b.expect("B beat arrives");
    assert_eq!(b.id, 11);
    assert_eq!(b.resp, AxiResp::Okay);
    // AXI read burst.
    axi.put_ar(ArBeat {
        addr: 0x80,
        len: 2,
        id: 12,
    });
    let mut beats = Vec::new();
    for _ in 0..40_000 {
        {
            let ni = &mut sys.nis[1];
            let (stack, kernel) = ni.master_and_kernel_mut(1);
            axi.tick(stack, kernel, sys.noc.cycle());
        }
        sys.tick();
        while let Some(r) = axi.take_r() {
            beats.push(r);
        }
        if beats.len() == 2 {
            break;
        }
    }
    assert_eq!(beats.len(), 2);
    assert_eq!(beats[0].data, 0x1111);
    assert_eq!(beats[1].data, 0x2222);
    assert!(beats[1].last && !beats[0].last);
    assert_eq!(beats[0].id, 12);
}

#[test]
fn trace_master_replays_with_timing() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    let trace = Trace::periodic(10, 50, |i| {
        if i % 2 == 0 {
            Transaction::acked_write(i as u32 * 4, vec![i as u32], i as u16)
        } else {
            Transaction::read((i as u32 - 1) * 4, 1, i as u16)
        }
    });
    let h = sys.bind_master(1, 1, Box::new(TraceMaster::new(trace)));
    let done = Engine::run_until(&mut sys, |s| s.all_ips_done(), 100_000);
    assert!(done, "trace must complete");
    let m = sys.master_ip_as::<TraceMaster>(h);
    assert_eq!(m.issued(), 10);
    assert_eq!(m.completed(), 10);
    let lat = m.latency().expect("latencies recorded");
    assert!(lat.count == 10);
    assert!(lat.min >= 4, "NI overhead bounds the latency floor");
}

#[test]
fn slow_port_clock_still_delivers() {
    // The master's data port runs at a quarter of the network clock; the
    // dual-clock FIFOs bridge the domains (§4.1/§5).
    let mut spec = pair_spec();
    spec.nis[1].kernel.ports[1].clock_div = 4;
    let (mut sys, mut cfg) = configurable(&spec, 0);
    open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x8, vec![3, 4], 1));
    let r = poll_master(&mut sys, 1);
    assert_eq!(r.status, RespStatus::Ok);
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x8, 2, 2));
    assert_eq!(poll_master(&mut sys, 1).data, vec![3, 4]);
}

#[test]
fn traffic_generator_under_mixed_load_keeps_invariants() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(2)));
    let h = sys.bind_master(
        1,
        1,
        Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
            seed: 5,
            mix: TrafficMix::Mixed { read_fraction: 0.3 },
            burst: (1, 6),
            total: Some(120),
            max_outstanding: 3,
            ..Default::default()
        })),
    );
    assert!(Engine::run_until(&mut sys, |s| s.all_ips_done(), 400_000));
    let g = sys.master_ip_as::<TrafficGenerator>(h);
    assert_eq!(g.issued(), 120);
    assert_eq!(g.errors(), 0);
    assert!(g.words_moved() > 0);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    assert_eq!(sys.noc.be_overflows(), 0);
}

#[test]
fn remote_dump_sees_the_configuration() {
    let (mut sys, mut cfg) = configured_pair();
    let dump = dump_ni(&mut cfg, &mut sys, 0, 0, 1).expect("dump");
    assert_eq!(dump.ni_id, 1);
    assert!(
        dump.channels[1].enabled,
        "opened connection visible remotely"
    );
}
