//! Pins the zero-allocation property of the steady-state cycle paths.
//!
//! The engine refactor replaced the growable `VecDeque` transport in
//! `NiLink` and the routers with fixed-capacity rings and gave the `Noc`
//! reusable per-tick scratch buffers. With `LinkWord: Copy`, every word now
//! moves by value through preallocated storage — so after warm-up, ticking
//! a loaded network must hit the allocator exactly zero times. A counting
//! global allocator enforces that here; `benchmark/`'s `uniform8`
//! workload tracks the same path's speed.
//!
//! The pipelined shard exchange extends the property across region cuts:
//! boundary words and credits move through the preallocated
//! [`aethereal::sim::shard::WireRing`] arena — written in place at emit,
//! consumed in place at absorb — so a sharded run must be exactly as
//! allocation-free as the monolithic one.
//!
//! The whole-system cases extend it up the stack: IP models, NI kernels
//! (packetization, BE arbitration) and the activity sets that let idle
//! routers, links and NIs cost nothing all work out of storage sized at
//! construction.
//!
//! Off the cycle path, rendering a snapshot as text allocates per
//! document, not per number.
//!
//! Allocations are counted **per thread**: `cargo test` runs the cases of
//! this binary on parallel threads, so a process-wide counter would charge
//! one case for another's set-up. The one case that spawns threads of its
//! own (`run_parallel`'s workers) enrolls them explicitly — see
//! [`Enrolling`].

// The counting allocator implements `GlobalAlloc`, which is unsafe: the one
// exception to the workspace's `unsafe_code` lint.
#![allow(unsafe_code)]

use aethereal::cfg::json::{self, Value};
use aethereal::cfg::NocSystem;
use aethereal::proto::CountingSink;
use aethereal::sim::shard::{
    wires_of, ExchangeAttachment, NocShard, Partition, ShardRegion, ShardRunner,
};
use aethereal::sim::{Clocked, LinkWord, Noc, PacketHeader, Topology, WordClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use scenario::{connect, counting_sink, raw_mesh, source, ENDLESS};

mod scenario;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so reading or bumping it never allocates itself.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's calls are also charged to [`ENROLLED_ALLOCS`].
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Allocator calls made by enrolled threads (see [`Enrolling`]).
static ENROLLED_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_call() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    if ENROLLED.try_with(Cell::get).unwrap_or(false) {
        ENROLLED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocator calls made so far by the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counters are a thread-local cell and a relaxed atomic with no aliasing of
// their own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_noc_tick_allocates_nothing() {
    // Saturate a 2x2 mesh with BE single-word packets plus a periodic GT
    // flit so both datapaths (wormhole queues and the GT calendar) are hot.
    let topo = Topology::mesh(2, 2, 1);
    let mut noc = Noc::new(&topo);
    let be_path = topo.route(0, 3).expect("route");
    let gt_path = topo.route(1, 2).expect("route");
    let be = PacketHeader {
        path: be_path,
        qid: 0,
        credits: 0,
        flush: false,
    }
    .pack();
    let gt = PacketHeader {
        path: gt_path,
        qid: 1,
        credits: 0,
        flush: false,
    }
    .pack();
    let drive = |noc: &mut Noc, cycles: u64| {
        let mut delivered = 0u64;
        for c in 0..cycles {
            {
                let link = noc.ni_link_mut(0);
                if !link.is_busy() && link.be_credits() > 0 {
                    link.send(LinkWord::header_only(be, WordClass::BestEffort));
                }
            }
            {
                let link = noc.ni_link_mut(1);
                if c % 3 == 0 && !link.is_busy() {
                    link.send(LinkWord::header_only(gt, WordClass::Guaranteed));
                }
            }
            noc.tick();
            while noc.ni_link_mut(3).recv().is_some() {
                delivered += 1;
            }
            while noc.ni_link_mut(2).recv().is_some() {
                delivered += 1;
            }
        }
        delivered
    };
    // Warm up: reach steady state (queues at depth, scratch buffers sized).
    drive(&mut noc, 2_000);
    // Measure.
    let before = thread_allocs();
    let delivered = drive(&mut noc, 10_000);
    let allocs = thread_allocs() - before;
    assert!(delivered > 5_000, "traffic actually flowed: {delivered}");
    assert_eq!(
        allocs, 0,
        "steady-state Noc::tick path must not touch the allocator"
    );
    assert_eq!(noc.gt_conflicts(), 0);
    assert_eq!(noc.be_overflows(), 0);
}

/// The 2x2 mesh of `steady_state_noc_tick_allocates_nothing`, split down
/// the row cut into two regions: NIs 0/1 live in shard 0 (local links
/// 0/1), NIs 2/3 in shard 1. Returns the regions, their runner, and the
/// packed BE/GT headers.
fn fused_split() -> (Vec<NocShard>, ShardRunner, u32, u32) {
    let topo = Topology::mesh(2, 2, 1);
    let noc = Noc::new(&topo);
    let partition = Partition::new(vec![0, 0, 1, 1]).expect("dense partition");
    let mut shards = noc.split(&topo, &partition);
    let wires = wires_of(&shards);
    let runner = ShardRunner::new(&mut shards, wires, 0);
    let be = PacketHeader {
        path: topo.route(0, 3).expect("route"),
        qid: 0,
        credits: 0,
        flush: false,
    }
    .pack();
    let gt = PacketHeader {
        path: topo.route(1, 2).expect("route"),
        qid: 1,
        credits: 0,
        flush: false,
    }
    .pack();
    (shards, runner, be, gt)
}

/// Injects one cycle's worth of cut-crossing traffic into shard 0 and
/// drains shard 1's NI links; both NI↔NoC rings and the boundary arena
/// are preallocated, so this itself never allocates. `noc` reaches a
/// region's network.
fn pump<R>(shards: &mut [R], noc: fn(&mut R) -> &mut Noc, cycle: u64, be: u32, gt: u32) -> u64 {
    {
        let link = noc(&mut shards[0]).ni_link_mut(0);
        if !link.is_busy() && link.be_credits() > 0 {
            link.send(LinkWord::header_only(be, WordClass::BestEffort));
        }
    }
    {
        let link = noc(&mut shards[0]).ni_link_mut(1);
        if cycle.is_multiple_of(3) && !link.is_busy() {
            link.send(LinkWord::header_only(gt, WordClass::Guaranteed));
        }
    }
    let mut delivered = 0u64;
    while noc(&mut shards[1]).ni_link_mut(1).recv().is_some() {
        delivered += 1;
    }
    while noc(&mut shards[1]).ni_link_mut(0).recv().is_some() {
        delivered += 1;
    }
    delivered
}

#[test]
fn steady_state_fused_shard_exchange_allocates_nothing() {
    let (mut shards, mut runner, be, gt) = fused_split();
    let drive = |shards: &mut [NocShard], runner: &mut ShardRunner, from: u64, cycles: u64| {
        let mut delivered = 0u64;
        for c in from..from + cycles {
            delivered += pump(shards, |s| &mut s.noc, c, be, gt);
            runner.run(shards, 1);
        }
        delivered
    };
    // Warm up: queues at depth, every arena ring touched in both classes.
    drive(&mut shards, &mut runner, 0, 2_000);
    let before = thread_allocs();
    let delivered = drive(&mut shards, &mut runner, 2_000, 10_000);
    let allocs = thread_allocs() - before;
    assert!(
        delivered > 5_000,
        "cut traffic actually flowed: {delivered}"
    );
    assert_eq!(
        allocs, 0,
        "the fused arena exchange must not touch the allocator in steady state"
    );
}

/// A shard region that enrolls every *other* thread driving it: from its
/// first phase call on, a worker's allocator calls are charged to
/// [`ENROLLED_ALLOCS`]. `run_parallel` spawns its workers internally, so
/// this is the one place a test can reach them. The thread that built the
/// regions keeps to its own thread-local count, and no other case of this
/// binary ever enrolls, so the shared counter sees this case's workers
/// only.
struct Enrolling {
    shard: NocShard,
    owner: std::thread::ThreadId,
}

impl Enrolling {
    fn new(shard: NocShard) -> Self {
        Enrolling {
            shard,
            owner: std::thread::current().id(),
        }
    }

    fn enroll(&self) {
        if std::thread::current().id() != self.owner {
            ENROLLED.with(|e| e.set(true));
        }
    }
}

impl Clocked for Enrolling {
    fn now(&self) -> u64 {
        self.shard.now()
    }

    fn emit(&mut self) {
        self.enroll();
        self.shard.emit();
    }

    fn absorb(&mut self) {
        self.shard.absorb();
    }

    fn dormant_until(&self, now: u64) -> u64 {
        self.enroll();
        self.shard.dormant_until(now)
    }

    fn skip(&mut self, cycles: u64) {
        self.enroll();
        self.shard.skip(cycles);
    }
}

impl ShardRegion for Enrolling {
    fn adopt_exchange(&mut self, exchange: ExchangeAttachment) {
        self.shard.adopt_exchange(exchange);
    }
}

#[test]
fn parallel_shard_exchange_allocation_is_per_call_not_per_cycle() {
    // `run_parallel` pays a fixed per-call cost (scoped thread spawns); the
    // pipelined per-cycle exchange itself — watermark publishes, ring
    // writes, due-slot consumption, idle virtual cycles — must contribute
    // nothing. Two spans differing only in cycle count must therefore
    // allocate identically, summed over the test thread and every worker.
    let (shards, mut runner, be, gt) = fused_split();
    let mut shards: Vec<Enrolling> = shards.into_iter().map(Enrolling::new).collect();
    runner.set_batch(16);
    // Direct NI-link injection bypasses the activity scheduler, so each
    // poke first wakes both regions (`ShardRunner::wake`).
    let poke = |shards: &mut [Enrolling], runner: &mut ShardRunner| {
        runner.wake(shards, 0);
        runner.wake(shards, 1);
        pump(shards, |s| &mut s.shard.noc, runner.cycle(), be, gt)
    };
    let span = |shards: &mut [Enrolling], runner: &mut ShardRunner, cycles: u64| {
        // A burst of cut-crossing traffic at the span head keeps the arena
        // hot; the tail exercises the asleep (watermark-only) path.
        poke(shards, runner);
        runner.run_parallel(shards, cycles);
        let drained = poke(shards, runner);
        runner.run_parallel(shards, 8);
        drained + poke(shards, runner)
    };
    // Warm up both span shapes once (lazy statics, thread-name caches, …).
    span(&mut shards, &mut runner, 100);
    span(&mut shards, &mut runner, 1_100);
    // This thread's calls plus its workers' (all joined by now).
    let allocs = || thread_allocs() + ENROLLED_ALLOCS.load(Ordering::SeqCst);
    let before = allocs();
    let short: u64 = (0..4).map(|_| span(&mut shards, &mut runner, 100)).sum();
    let short_allocs = allocs() - before;
    assert!(
        short_allocs > 0,
        "thread spawns are visible to the counters"
    );
    let before = allocs();
    let long: u64 = (0..4).map(|_| span(&mut shards, &mut runner, 1_100)).sum();
    let long_allocs = allocs() - before;
    assert!(short > 0 && long > 0, "spans delivered traffic");
    assert_eq!(
        short_allocs, long_allocs,
        "pipelined epochs must allocate per call (thread spawn), never per cycle"
    );
}

#[test]
fn quiescent_skip_allocates_nothing() {
    let topo = Topology::mesh(2, 2, 1);
    let mut noc = Noc::new(&topo);
    noc.run(10); // settle
    let before = thread_allocs();
    noc.run(1_000_000); // idle: the engine batches this into one skip
    let allocs = thread_allocs() - before;
    assert_eq!(allocs, 0, "the quiescent fast path must not allocate");
    assert_eq!(noc.cycle(), 1_000_010);
    assert_eq!(noc.stats().cycles, 1_000_010);
}

/// A `side` x `side` mesh (`side` ≥ 4) of raw streaming NIs (channel 1
/// sends, channel 2 receives), configured directly through the register
/// files: two endless BE streams (NI 0 → 5, NI 3 → 12), one endless GT
/// stream with a GT credit-return channel (NI 15 → 10, 4 + 2 of 8 slots)
/// and one BE stream of `burst` words (NI 6 → 9) whose endpoints fall
/// asleep once it drains. Every other NI and most routers never see a
/// word.
fn stream_system(side: usize, burst: u64) -> NocSystem {
    let spec = raw_mesh(side, side, 1, 2);
    let topo = spec.build_topology();
    let mut sys = NocSystem::from_spec(&spec);
    let streams = [
        (0usize, 5usize, false, ENDLESS),
        (3, 12, false, ENDLESS),
        (15, 10, true, ENDLESS),
        (6, 9, false, burst),
    ];
    for &(src, dst, gt, total) in &streams {
        let slots: (&[usize], &[usize]) = (&[0, 2, 4, 6], &[1, 5]);
        connect(&mut sys, &topo, (src, 1), (dst, 2), gt.then_some(slots));
        source(&mut sys, src, 1, total);
        counting_sink(&mut sys, dst, 2);
    }
    sys
}

fn delivered(sys: &NocSystem) -> u64 {
    [5, 12, 10, 9]
        .iter()
        .map(|&ni| sys.raw_ip_at::<CountingSink>(ni).count())
        .sum()
}

#[test]
fn steady_state_system_tick_allocates_nothing() {
    // IP models, NI kernels (packetization, BE arbitration, GT slots) and
    // the network, BE and GT together, sleeping components beside busy
    // ones: after warm-up the whole cycle works out of fixed storage.
    let mut sys = stream_system(4, 200);
    sys.run(2_000);
    let warm = delivered(&sys);
    let before = thread_allocs();
    for _ in 0..1_000 {
        sys.tick();
    }
    let allocs = thread_allocs() - before;
    assert!(delivered(&sys) > warm + 500, "streams actually flowed");
    assert_eq!(allocs, 0, "a steady-state system tick must not allocate");
    assert_eq!(sys.noc.gt_conflicts(), 0);
    assert_eq!(sys.noc.be_overflows(), 0);
}

#[test]
fn system_run_with_sleeping_nis_allocates_nothing() {
    // The burst drains inside the measured window, so `run` covers NIs
    // that tick throughout, NIs that fall asleep midway and NIs that
    // sleep throughout (and the routers and links behind each).
    let mut sys = stream_system(4, 2_400);
    sys.run(500);
    let warm = delivered(&sys);
    let before = thread_allocs();
    sys.run(6_000);
    let allocs = thread_allocs() - before;
    assert_eq!(
        sys.raw_ip_at::<CountingSink>(9).count(),
        2_400,
        "the burst drained inside the window"
    );
    assert!(delivered(&sys) > warm + 3_000, "streams actually flowed");
    assert_eq!(allocs, 0, "run over ticked and slept NIs must not allocate");
}

/// Numbers anywhere in `v`.
fn count_numbers(v: &Value) -> usize {
    match v {
        Value::Num(_) => 1,
        Value::Arr(items) => items.iter().map(count_numbers).sum(),
        Value::Obj(m) => m.values().map(count_numbers).sum(),
        _ => 0,
    }
}

#[test]
fn snapshot_text_allocates_per_document_not_per_number() {
    // The compact printer writes every number from a stack buffer into the
    // one output string, so its allocator calls are that string's growth
    // steps (each at least doubles it): a few dozen for any snapshot this
    // size, where one call per number would be over ten thousand.
    let mut sys = stream_system(8, 2_400);
    sys.run(2_000);
    let snap = sys.snapshot().expect("raw IPs are persist-audited");
    let numbers = count_numbers(&snap);
    assert!(numbers >= 10_000, "a warm 8x8 snapshot: {numbers} numbers");
    let before = thread_allocs();
    let text = json::to_string_compact(&snap);
    let allocs = thread_allocs() - before;
    assert!(
        allocs <= 32,
        "{allocs} allocator calls to render {numbers} numbers ({} bytes)",
        text.len()
    );
}
