//! Cross-crate integration tests: the full stack from IP-level transactions
//! through shells, NI kernels, routers and back — including the paper's
//! Fig. 9 run-time configuration flow executed over the NoC itself.

use aethereal::ni::{Cmd, RespStatus, Transaction};
use aethereal::proto::{MemorySlave, TrafficGenerator, TrafficGeneratorConfig, TrafficMix};
use aethereal::sim::Engine;
use scenario::{configurable, configured_pair, gt, master_slave, open, pair_spec, BE};

mod scenario;

#[test]
fn fig9_connection_setup_succeeds_through_the_noc() {
    let (_sys, cfg) = configured_pair();
    let s = cfg.stats();
    assert_eq!(s.connections_opened, 1);
    // Config connections to NI1 and NI2 were opened on demand (steps 1-2).
    assert_eq!(s.config_connections_opened, 2);
    // Register-write accounting: per config connection 3 local + 3 remote;
    // per user connection 3 at the slave NI + 5 at the master NI (§3: "5
    // and 3 registers written at the master and slave network interfaces").
    assert_eq!(s.reg_writes, 2 * (3 + 3) + 3 + 5);
    // Everything except the 6 local step-1 writes crossed the NoC.
    assert_eq!(s.remote_writes, s.reg_writes - 6);
    assert!(
        s.acks >= 4,
        "each remote group ends in an acknowledged write"
    );
    assert!(s.cycles_waited > 0, "configuration takes time (§2)");
}

#[test]
fn acked_write_and_read_roundtrip_over_the_connection() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(2)));
    // Acked write then read-back through the shared-memory abstraction.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x20, vec![0xAB, 0xCD], 1));
    let mut ack = None;
    for _ in 0..5_000 {
        sys.tick();
        if let Some(r) = sys.nis[1].master_mut(1).take_response() {
            ack = Some(r);
            break;
        }
    }
    let ack = ack.expect("write acknowledged");
    assert_eq!(ack.trans_id, 1);
    assert_eq!(ack.status, RespStatus::Ok);

    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x20, 2, 2));
    let mut resp = None;
    for _ in 0..5_000 {
        sys.tick();
        if let Some(r) = sys.nis[1].master_mut(1).take_response() {
            resp = Some(r);
            break;
        }
    }
    let resp = resp.expect("read answered");
    assert_eq!(resp.data, vec![0xAB, 0xCD]);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    assert_eq!(sys.noc.be_overflows(), 0);
}

#[test]
fn traffic_generator_completes_against_memory() {
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    let gen = TrafficGenerator::new(TrafficGeneratorConfig {
        seed: 42,
        addr_base: 0,
        addr_range: 256,
        mix: TrafficMix::Mixed { read_fraction: 0.5 },
        burst: (1, 4),
        gap_cycles: 0,
        total: Some(50),
        max_outstanding: 2,
    });
    let h = sys.bind_master(1, 1, Box::new(gen));
    let done = Engine::run_until(&mut sys, |s| s.all_ips_done(), 200_000);
    assert!(done, "all 50 transactions must complete");
    let lat = {
        let ip = sys.master_ip(h);
        // Downcast-free check via trait: use done() + the noc invariants.
        ip.done()
    };
    assert!(lat);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    assert_eq!(sys.noc.be_overflows(), 0);
}

#[test]
fn gt_connection_opens_with_slot_reservations() {
    let (mut sys, mut cfg) = configurable(&pair_spec(), 0);
    let handle = open(&mut cfg, &mut sys, (1, 1), (2, 1), gt(2), gt(1));
    assert_eq!(handle.fwd_slots().unwrap().injection_slots.len(), 2);
    assert_eq!(handle.rev_slots().unwrap().injection_slots.len(), 1);
    // The master NI's slot table now carries channel 1 in two slots.
    let table = sys.nis[1].kernel.slot_table();
    assert_eq!(table.iter().filter(|&&e| e == 2).count(), 2);
    // Traffic flows as GT without conflicts.
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0, vec![1, 2, 3], 9));
    let mut acked = false;
    for _ in 0..5_000 {
        sys.tick();
        if sys.nis[1].master_mut(1).take_response().is_some() {
            acked = true;
            break;
        }
    }
    assert!(acked);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    // Closing releases the slots and disables the channels.
    cfg.close_connection(&mut sys, &handle).expect("closes");
    assert!(sys.nis[1].kernel.slot_table().iter().all(|&e| e == 0));
    assert!(!sys.nis[1].kernel.channel(1).is_enabled());
    assert!(!sys.nis[2].kernel.channel(1).is_enabled());
}

#[test]
fn connection_retarget_after_close() {
    // Partial reconfiguration (§3): close the master's connection to NI2,
    // then reopen the same master channel toward NI3.
    let (mut sys, mut cfg) = configurable(&pair_spec(), 0);
    let handle = open(&mut cfg, &mut sys, (1, 1), (2, 1), BE, BE);
    cfg.close_connection(&mut sys, &handle).expect("closes");
    assert!(!sys.nis[1].kernel.channel(1).is_enabled());
    open(&mut cfg, &mut sys, (1, 1), (3, 1), BE, BE); // toward NI3
    sys.bind_slave(3, 1, Box::new(MemorySlave::new(1)));
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x8, vec![5], 3));
    let mut acked = false;
    for _ in 0..5_000 {
        sys.tick();
        if sys.nis[1].master_mut(1).take_response().is_some() {
            acked = true;
            break;
        }
    }
    assert!(acked, "traffic reaches the re-targeted slave");
}

#[test]
fn multi_slave_system_with_posted_writes() {
    // A 2x2 mesh, one NI per router: the master reaches the slave on NI 3
    // over two hops.
    let (mut sys, _cfg) = master_slave(2, 2, 1, 4, 3);
    let mem = MemorySlave::new(0);
    sys.bind_slave(3, 1, Box::new(mem));
    for i in 0..10u32 {
        // Posted writes: fire and forget.
        while !sys.nis[1].master_mut(1).can_submit() {
            sys.tick();
        }
        sys.nis[1]
            .master_mut(1)
            .submit(Transaction::write(i * 4, vec![i], i as u16));
    }
    sys.run(20_000);
    assert_eq!(sys.noc.gt_conflicts(), 0);
    // The writes landed: spot-check via a read.
    sys.nis[1].master_mut(1).submit(Transaction::read(4, 1, 99));
    let mut resp = None;
    for _ in 0..5_000 {
        sys.tick();
        if let Some(r) = sys.nis[1].master_mut(1).take_response() {
            resp = Some(r);
            break;
        }
    }
    assert_eq!(resp.expect("read answered").data, vec![1]);
}

#[test]
fn posted_write_commands_have_no_response_invariant() {
    // Protocol-level check across the stack: Cmd::Write produces no
    // response message anywhere.
    assert!(!Cmd::Write.has_response());
    let (mut sys, _cfg) = configured_pair();
    sys.bind_slave(2, 1, Box::new(MemorySlave::new(0)));
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::write(0, vec![1], 1));
    sys.run(3_000);
    assert!(sys.nis[1].master_mut(1).take_response().is_none());
}
