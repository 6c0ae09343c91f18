//! The traced pass: where a cycle's host time goes, layer by layer.
//!
//! The simulator has no tracing of its own, so every span here is
//! recorded from the benchmark's side, around calls into one layer. For
//! the data-plane workloads that means the benchmark runs its **own
//! decomposed cycle loop** over public calls — the scheduler's quiescence
//! question, then IP models, NIs, router emit, router absorb, exactly the
//! order of `NocSystem`'s own `emit`/`absorb` — timing each phase of each
//! cycle, beside an untraced `run` of the same program whose end state it
//! must reproduce. Layers that are not part of the cycle loop (the shard
//! runner, fast-forward, persistence, run-time configuration, the slot
//! allocator, the route planner, certification) are timed call by call.
//!
//! Spans stay in memory and are written to `benchmark/out/trace.json`
//! once, when the pass ends.

use crate::control;
use crate::json::Json;
use crate::measure::{set_up, timed_segments, Checks};
use crate::names::{MetricValue, PER_LAYER};
use crate::observe::EndState;
use crate::stats::{median, Summary};
use crate::workloads::{build, Built, Driver, Ips, Scale, Sim, Workload};
use aethereal_cfg::runtime::{ChannelEnd, ConnectionRequest};
use aethereal_cfg::{NocSpec, NocSystem, SlotAllocator, SlotStrategy};
use aethereal_proto::ip::RawPort;
use noc_sim::engine::{ClockDomain, Clocked, ClockedWith};
use noc_sim::{FaultPlan, FaultReport, Rng64, SuspectLink, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the traced pass of one workload produced.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// Every per-layer metric, in `BENCHMARK.json` order; 0 for layers the
    /// workload does not exercise.
    pub metrics: Vec<MetricValue>,
    /// Counts that must repeat exactly for the same seed and scale.
    pub exact: Vec<(String, f64)>,
    /// Segments, operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One span. A layer span inside a segment is an aggregate: its interval
/// is the segment's, `busy_ns` is the time actually spent inside the layer
/// during it and `calls` how often the layer was entered.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    busy_ns: u64,
    calls: u64,
}

/// The in-memory span store of one pass.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Recorder::close`] ends it.
    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            busy_ns: 0,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now. A plain span was busy for its whole interval.
    fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Records a layer's aggregate over the interval of `parent`.
    fn aggregate(&mut self, name: &str, parent: usize, busy_ns: u64, calls: u64) {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            busy_ns,
            calls,
        });
    }

    /// Times `f` as one span under `parent`; returns its result and µs.
    fn timed<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        (out, self.spans[id].busy_ns as f64 / 1e3)
    }

    fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("busy_ns", Json::Num(s.busy_ns as f64)),
                    ("calls", Json::Num(s.calls as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// The per-layer values of one pass, by registered name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a registered per-layer metric"));
        self.0.insert(m.name, value);
    }

    fn into_metrics(self) -> Vec<MetricValue> {
        PER_LAYER
            .iter()
            .map(|m| MetricValue {
                name: m.name,
                unit: m.unit,
                value: self.0.get(m.name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

/// Everything one traced pass accumulates.
struct Pass {
    rec: Recorder,
    /// The workload's span, parent of everything else.
    root: usize,
    layers: Layers,
    /// Counts that must repeat exactly for the same seed and scale.
    exact: Vec<(String, f64)>,
    checks: Checks,
}

/// The gate quantile of `samples` — the statistic of every timed layer,
/// as of every gated end-to-end metric.
fn gate(samples: &[f64]) -> f64 {
    Summary::of(samples).gate
}

/// Times `reps` calls of `f` one by one; returns the gate-quantile µs.
fn gate_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    gate(&samples)
}

// ---------------------------------------------------------------------
// The decomposed cycle loop
// ---------------------------------------------------------------------

/// One cycle in this many has its phases timed. Five clock readings
/// cost a busy 8x8 cycle 2%; timing every fifth cycle keeps the traced
/// loop within a percent or two of the untraced one, and five shares no
/// factor with the 3-cycle slot or the 24-cycle slot-table rotation, so
/// every phase of both is sampled alike.
const TIMED_STRIDE: u64 = 5;

/// Host ns the timed cycles of one segment spent in each phase, and what
/// the segment counted.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentNs {
    sched: u64,
    ip: u64,
    ni: u64,
    emit: u64,
    absorb: u64,
    /// Cycles whose phases were timed.
    timed_cycles: u64,
    /// Host ns of the whole segment, timed or not.
    wall: u64,
    quiescent_cycles: u64,
    ip_calls: u64,
}

impl SegmentNs {
    fn phases(&self) -> u64 {
        self.sched + self.ip + self.ni + self.emit + self.absorb
    }

    /// A phase's sampled ns scaled up to all `cycles` of the segment.
    fn whole(&self, sampled: u64, cycles: u64) -> u64 {
        (sampled as f64 * cycles as f64 / self.timed_cycles.max(1) as f64) as u64
    }
}

/// An unsplit system whose IPs the benchmark ticks itself.
struct Decomposed {
    sys: NocSystem,
    ips: Ips,
    master_clocks: Vec<ClockDomain>,
    slave_clocks: Vec<ClockDomain>,
    raw_clocks: Vec<ClockDomain>,
}

impl Decomposed {
    fn new(built: Built) -> Self {
        let Built { sys, ips, .. } = built;
        let clock =
            |ni: usize, port: usize| ClockDomain::new(sys.nis[ni].kernel.port_clock_div(port));
        Decomposed {
            master_clocks: ips.masters.iter().map(|m| clock(m.ni, m.port)).collect(),
            slave_clocks: ips.slaves.iter().map(|s| clock(s.ni, s.port)).collect(),
            raw_clocks: ips.raws.iter().map(|r| clock(r.ni, r.port)).collect(),
            sys,
            ips,
        }
    }

    /// What `Engine::run` asks before every tick: could this cycle be
    /// skipped? (The answer is only counted; the loop ticks regardless.)
    fn quiescent(&self, now: u64) -> bool {
        self.ips.masters.iter().all(|m| m.ip.idle_until(now) > now)
            && self.ips.slaves.iter().all(|s| s.ip.idle_until(now) > now)
            && self.ips.raws.iter().all(|r| r.ip.idle_until(now) > now)
            && self.sys.quiescent()
    }

    /// Runs `cycles` cycles in the order of `NocSystem::emit` and
    /// `absorb`, timing each phase of every [`TIMED_STRIDE`]th cycle.
    fn segment(&mut self, cycles: u64) -> SegmentNs {
        let mut acc = SegmentNs::default();
        let start = Instant::now();
        for _ in 0..cycles {
            let cycle = self.sys.noc.cycle();
            let timed = cycle.is_multiple_of(TIMED_STRIDE);
            let stamp = || timed.then(Instant::now);
            let t0 = stamp();
            acc.quiescent_cycles += u64::from(self.quiescent(cycle));
            let t1 = stamp();
            for (m, clock) in self.ips.masters.iter_mut().zip(&self.master_clocks) {
                if clock.ticks_at(cycle) {
                    m.ip.tick(self.sys.nis[m.ni].master_mut(m.port), cycle);
                    acc.ip_calls += 1;
                }
            }
            for (s, clock) in self.ips.slaves.iter_mut().zip(&self.slave_clocks) {
                if clock.ticks_at(cycle) {
                    s.ip.tick(self.sys.nis[s.ni].slave_mut(s.port), cycle);
                    acc.ip_calls += 1;
                }
            }
            for (r, clock) in self.ips.raws.iter_mut().zip(&self.raw_clocks) {
                if clock.ticks_at(cycle) {
                    let mut port = RawPort {
                        kernel: &mut self.sys.nis[r.ni].kernel,
                        channels: &r.channels,
                    };
                    r.ip.tick(&mut port, cycle);
                    acc.ip_calls += 1;
                }
            }
            let t2 = stamp();
            for (i, ni) in self.sys.nis.iter_mut().enumerate() {
                ni.tick(self.sys.noc.ni_link_mut(i), cycle);
            }
            let t3 = stamp();
            Clocked::emit(&mut self.sys.noc);
            let t4 = stamp();
            Clocked::absorb(&mut self.sys.noc);
            if let (Some(t0), Some(t1), Some(t2), Some(t3), Some(t4)) = (t0, t1, t2, t3, t4) {
                let t5 = Instant::now();
                acc.sched += (t1 - t0).as_nanos() as u64;
                acc.ip += (t2 - t1).as_nanos() as u64;
                acc.ni += (t3 - t2).as_nanos() as u64;
                acc.emit += (t4 - t3).as_nanos() as u64;
                acc.absorb += (t5 - t4).as_nanos() as u64;
                acc.timed_cycles += 1;
            }
        }
        acc.wall = start.elapsed().as_nanos() as u64;
        acc
    }
}

/// Counts read from the stats structs where the traced loop ended.
fn count_layers(end: &EndState, layers: &mut Layers, exact: &mut Vec<(String, f64)>) {
    let link_words: u64 = end.noc.links.iter().map(|l| l.total_words()).sum();
    let headers: u64 = end
        .noc
        .links
        .iter()
        .map(|l| l.headers[0] + l.headers[1])
        .sum();
    let sum = |f: fn(&aethereal_ni::kernel::NiKernelStats) -> u64| -> u64 {
        end.kernels.iter().map(f).sum()
    };
    let payload = sum(|k| k.payload_words_tx);
    let sent = payload + sum(|k| k.header_words_tx) + sum(|k| k.route_ext_words_tx);
    let counts = [
        ("sim.noc.link_words", link_words as f64),
        ("sim.noc.headers", headers as f64),
        ("sim.noc.delivered_gt", end.noc.delivered[0] as f64),
        ("sim.noc.delivered_be", end.noc.delivered[1] as f64),
        (
            "core.kernel.packets_tx",
            sum(|k| k.packets_tx[0] + k.packets_tx[1]) as f64,
        ),
        ("core.kernel.payload_words_tx", payload as f64),
        (
            "core.kernel.credit_only_tx",
            sum(|k| k.credit_only_tx) as f64,
        ),
        (
            "core.kernel.gt_slots_unused",
            sum(|k| k.gt_slots_unused) as f64,
        ),
        ("proto.txn_completed", end.observed.txn_completed() as f64),
        ("proto.words_delivered", end.observed.words() as f64),
    ];
    for (name, v) in counts {
        layers.set(name, v);
        exact.push((name.to_string(), v));
    }
    layers.set(
        "sim.noc.link_utilisation",
        link_words as f64 / (end.noc.links.len() as f64 * end.cycle as f64),
    );
    // Useful over attempted: payload words over every word an NI sent.
    layers.set(
        "core.kernel.payload_share",
        payload as f64 / sent.max(1) as f64,
    );
    exact.push(("digest".into(), end.digest() as f64));
}

/// The decomposed loop on one data-plane workload, beside the untraced
/// run it must reproduce and — where the workload is the place to ask —
/// beside a variant run that prices one mechanism:
/// `uniform8` with an empty fault plan armed, `shmem8_mixed` with
/// fast-forward off.
fn data_plane(w: &Workload, seed: u64, scale: Scale, pass: &mut Pass) {
    let Pass {
        rec,
        root,
        layers,
        exact,
        checks,
    } = pass;
    let root = *root;
    let segments = scale.of(w.traced_segments, 12);
    let cycles = w.traced_seg_cycles;
    // Untraced segments are sized so that each delivers words; where the
    // traced ones are shorter (the decomposed loop ticks every cycle a
    // bursty workload would skip) a segment may fall between two bursts.
    let progress = w.traced_seg_cycles >= w.seg_cycles;
    let mut reference = set_up(w, seed, Driver::Mono, w.warmup);
    let mut variant = matches!(w.name, "uniform8" | "shmem8_mixed")
        .then(|| set_up(w, seed, Driver::Mono, w.warmup));
    if let Some(Sim::Mono(sys)) = variant.as_mut().map(|v| &mut v.sim) {
        match w.name {
            "uniform8" => sys.arm_faults(&FaultPlan::new(seed)),
            _ => sys.set_fast_forward(false),
        }
    }
    let mut traced = Decomposed::new(build(w, seed));
    traced.segment(w.warmup);

    let (mut untraced_ns, mut variant_ns, mut segs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..segments {
        // Interleaved, so all three see the same minutes of the host.
        untraced_ns.extend(timed_segments(
            &mut reference.sim,
            cycles,
            1,
            progress,
            checks,
        ));
        if let Some(v) = &mut variant {
            variant_ns.extend(timed_segments(&mut v.sim, cycles, 1, progress, checks));
        }
        let span = rec.open("segment", Some(root));
        let s = traced.segment(cycles);
        rec.close(span);
        rec.aggregate("sim.engine.sched", span, s.whole(s.sched, cycles), cycles);
        rec.aggregate("proto.ip", span, s.whole(s.ip, cycles), s.ip_calls);
        let ni_calls = cycles * traced.sys.nis.len() as u64;
        rec.aggregate("core.ni", span, s.whole(s.ni, cycles), ni_calls);
        rec.aggregate("sim.noc.emit", span, s.whole(s.emit, cycles), cycles);
        rec.aggregate("sim.noc.absorb", span, s.whole(s.absorb, cycles), cycles);
        segs.push(s);
    }

    let end = EndState::of_unbound(&traced.sys, &traced.ips);
    checks.expect(
        end == reference.sim.end_state(&reference.layout),
        "decomposed loop ends in the untraced run's NocStats, kernel stats and IP counts",
    );
    count_layers(&end, layers, exact);

    let per_cycle = |f: fn(&SegmentNs) -> u64| -> f64 {
        gate(
            &segs
                .iter()
                .map(|s| f(s) as f64 / s.timed_cycles as f64)
                .collect::<Vec<_>>(),
        )
    };
    let (emit, absorb) = (per_cycle(|s| s.emit), per_cycle(|s| s.absorb));
    layers.set("sim.noc.emit.ns_per_cycle", emit);
    layers.set("sim.noc.absorb.ns_per_cycle", absorb);
    layers.set(
        "sim.noc.ns_per_router_cycle",
        (emit + absorb) / w.routers() as f64,
    );
    layers.set("core.ni.ns_per_cycle", per_cycle(|s| s.ni));
    layers.set("proto.ip.ns_per_cycle", per_cycle(|s| s.ip));
    layers.set("sim.engine.sched.ns_per_cycle", per_cycle(|s| s.sched));
    let untraced = gate(&untraced_ns);
    // What the run driver adds to (positive) or saves from (negative) the
    // bare phases, as a share of them: about 0 where every cycle is
    // ticked, towards -1 where the driver skips.
    let phases = per_cycle(SegmentNs::phases) * cycles as f64;
    layers.set("sim.engine.driver_gap", (untraced - phases) / phases);
    let traced_wall = gate(&segs.iter().map(|s| s.wall as f64).collect::<Vec<_>>());
    layers.set("trace.overhead", untraced / traced_wall);
    let total = |f: &dyn Fn(&SegmentNs) -> u64| -> f64 { segs.iter().map(|s| f(s) as f64).sum() };
    layers.set(
        "trace.span_coverage",
        total(&|s| s.whole(s.phases(), cycles)) / total(&|s| s.wall),
    );
    layers.set(
        "sim.engine.quiescent_cycle_share",
        total(&|s| s.quiescent_cycles) / (cycles as f64 * segs.len() as f64),
    );
    match w.name {
        "uniform8" => layers.set(
            "sim.fault.armed_idle_over_unarmed",
            gate(&variant_ns) / untraced,
        ),
        "shmem8_mixed" => {
            layers.set(
                "sim.ff.decline_probe_overhead",
                untraced / gate(&variant_ns),
            );
            let ff = reference.sim.ff_stats();
            layers.set("sim.ff.jumps", ff.jumps as f64);
            layers.set(
                "sim.ff.jumped_share",
                ff.cycles_jumped as f64 / reference.sim.cycle() as f64,
            );
        }
        _ => {}
    }

    if w.name == "shmem8_mixed" {
        let built = build(w, seed);
        let mut flows = 0;
        let us = gate_us(9, || {
            let (cert, _) = rec.timed("verify.certify", root, || {
                aethereal_verify::certify_system(&built.spec, &built.sys)
            });
            flows = cert.map_or(0, |c| c.flows.len());
        });
        checks.expect(flows > 0, "the configured shmem8_mixed system certifies");
        layers.set("verify.certify_us", us);
        layers.set("verify.flows", flows as f64);
    }
    if w.name == "bursty16" {
        engine_bookkeeping(w, seed, layers);
    }
}

/// `Clocked::quiescent`, `next_event` and a 1000-cycle skip, timed on the
/// warm system between bursts (idle: the question is answered by walking
/// everything) and on a busy one (the first busy component answers).
fn engine_bookkeeping(w: &Workload, seed: u64, layers: &mut Layers) {
    const CALLS: usize = 2_000;
    let Sim::Mono(mut idle) = set_up(w, seed, Driver::Mono, w.warmup).sim else {
        unreachable!("bursty16 is unsplit");
    };
    // Walk to a cycle at which the system really is between bursts.
    while !idle.quiescent() {
        idle.run(64);
    }
    let now = idle.cycle();
    let per_call = |reps: usize, f: &mut dyn FnMut()| {
        gate(
            &(0..20)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..reps {
                        f();
                    }
                    t.elapsed().as_secs_f64() * 1e9 / reps as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    layers.set(
        "sim.engine.quiescent_ns",
        per_call(CALLS, &mut || {
            std::hint::black_box(std::hint::black_box(&idle).quiescent());
        }),
    );
    layers.set(
        "sim.engine.next_event_ns",
        per_call(CALLS, &mut || {
            std::hint::black_box(std::hint::black_box(&idle).next_event(now));
        }),
    );
    // `run(1000)` of a quiescent system is one or two `skip` calls plus
    // the questions above; bursts that fall into the window are ticked and
    // land in the upper quartiles.
    layers.set(
        "sim.engine.skip_1k_ns",
        per_call(1, &mut || idle.run(1_000)),
    );
}

// ---------------------------------------------------------------------
// gt16_ff: fast-forward windows
// ---------------------------------------------------------------------

fn ff_windows(w: &Workload, seed: u64, scale: Scale, pass: &mut Pass) {
    let Pass {
        rec,
        root,
        layers,
        exact,
        checks,
    } = pass;
    let root = *root;
    let mut live = set_up(w, seed, w.driver, w.warmup);
    let windows = scale.of(w.traced_segments, 20);
    let start = live.sim.cycle();
    let mut us = Vec::with_capacity(windows);
    for _ in 0..windows {
        let span = rec.open("sim.ff.window", Some(root));
        let ns = timed_segments(&mut live.sim, w.traced_seg_cycles, 1, true, checks);
        rec.close(span);
        us.push(ns[0] / 1e3);
    }
    let ff = live.sim.ff_stats();
    layers.set("sim.ff.window_us", gate(&us));
    layers.set("sim.ff.jumps", ff.jumps as f64);
    layers.set(
        "sim.ff.jumped_share",
        ff.cycles_jumped as f64 / (live.sim.cycle() - start) as f64,
    );
    count_layers(&live.sim.end_state(&live.layout), layers, exact);
}

// ---------------------------------------------------------------------
// hotspot16_shard4: the shard runner
// ---------------------------------------------------------------------

fn shard_family(w: &Workload, seed: u64, scale: Scale, pass: &mut Pass) {
    let Pass {
        rec,
        root,
        layers,
        exact,
        checks,
    } = pass;
    let root = *root;
    let segments = scale.of(w.traced_segments, 6);
    let cycles = w.traced_seg_cycles;
    let routers = w.routers() as f64;
    // One configuration per row; all run the hotspot16 input, interleaved
    // segment by segment.
    let sharded = |shards: usize, batch: u64| Driver::Sharded { shards, batch };
    let configs = [
        ("mono", Driver::Mono, false),
        ("s1", sharded(1, 16), false),
        ("s2", sharded(2, 16), false),
        ("s4", sharded(4, 16), false),
        ("s4.b1", sharded(4, 1), false),
        ("par2", sharded(2, 16), true),
    ];
    let mut split_us = Vec::new();
    let mut sims: Vec<_> = configs
        .iter()
        .map(|&(_, driver, _)| {
            let built = build(w, seed);
            let layout = crate::observe::Layout::of(&built.ips);
            let (sim, us) = rec.timed("sim.shard.split", root, || built.into_sim(driver));
            if driver == sharded(4, 16) {
                split_us.push(us);
            }
            (sim, layout)
        })
        .collect();
    // `into_sim` also binds; the unsplit system's time is the binding
    // alone, so the split is the difference.
    let bind_us = {
        let built = build(w, seed);
        rec.timed("sim.shard.bind_only", root, || built.into_sim(Driver::Mono))
            .1
    };
    layers.set("sim.shard.split_us", (median(&split_us) - bind_us).max(0.0));

    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for _ in 0..segments {
        for (i, &(name, _, parallel)) in configs.iter().enumerate() {
            let span = rec.open(&format!("sim.shard.run.{name}"), Some(root));
            let t = Instant::now();
            match (&mut sims[i].0, parallel) {
                (Sim::Sharded(sh), true) => sh.run_parallel(cycles),
                (sim, _) => sim.run(cycles),
            }
            ns[i].push(t.elapsed().as_secs_f64() * 1e9);
            rec.close(span);
        }
    }
    let rate = |i: usize| cycles as f64 * routers * 1e9 / gate(&ns[i]);
    layers.set("sim.shard.seq_rc_per_s.s1", rate(1));
    layers.set("sim.shard.seq_rc_per_s.s2", rate(2));
    layers.set("sim.shard.seq_rc_per_s.s4", rate(3));
    layers.set("sim.shard.one_region_over_mono", rate(1) / rate(0));
    layers.set("sim.shard.b1_over_b16", rate(4) / rate(3));
    layers.set("sim.shard.par2_rc_per_s", rate(5));
    if let Sim::Sharded(sh) = &sims[3].0 {
        layers.set("sim.shard.awake_regions", sh.awake_count() as f64);
    }
    let states: Vec<EndState> = sims
        .iter()
        .map(|(sim, layout)| sim.end_state(layout))
        .collect();
    checks.expect(
        states.iter().all(|s| *s == states[0]),
        "every shard count, batch and the worker-thread runner reach the unsplit end state",
    );
    checks.expect(
        sims.iter().all(|(sim, _)| sim.health() == [0; 3]),
        "invariant counters stayed 0 under every runner",
    );
    count_layers(&states[3], layers, exact);
}

// ---------------------------------------------------------------------
// control8: persistence, run-time configuration, planners
// ---------------------------------------------------------------------

fn control_family(w: &Workload, seed: u64, scale: Scale, pass: &mut Pass) {
    let Pass {
        rec,
        root,
        layers,
        exact,
        checks,
    } = pass;
    let root = *root;
    // Run-time configuration: the session, with ConfigStats read at its
    // boundaries.
    let (mut sys, mut cfg) = control::bind(control::build_control_system());
    let idle_tick_ns = gate(
        &(0..20)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..200 {
                    sys.tick();
                }
                t.elapsed().as_secs_f64() * 1e9 / 200.0
            })
            .collect::<Vec<_>>(),
    );
    let before = *cfg.stats();
    let span = rec.open("cfg.runtime.session", Some(root));
    let s = control::run_session(&mut sys, &mut cfg, seed, scale.of(w.control_rounds / 2, 8));
    rec.close(span);
    let after = *cfg.stats();
    checks.add(s.ops as u64, s.failed as u64);
    checks.expect(
        control::clean_after_session(&sys, &cfg),
        "session left no reserved slot, open connection or moved invariant counter",
    );
    let opens = (after.connections_opened - before.connections_opened) as f64;
    let open_us = gate(&s.open_ns_per_cycle) * s.cycles_per_open() / 1e3;
    layers.set("cfg.runtime.open_cycles", s.open_cycles as f64 / opens);
    let writes = (after.reg_writes - before.reg_writes) as f64;
    // Opens and closes both write registers; closes write one per end
    // plus the GT slot entries, the rest are the opens'.
    layers.set("cfg.runtime.reg_writes_per_open", writes / opens);
    // How much of an open is the idle mesh ticking while the client waits
    // for an acknowledgment.
    layers.set(
        "cfg.runtime.wait_share",
        s.cycles_per_open() * idle_tick_ns / 1e3 / open_us,
    );
    exact.push(("cfg.runtime.reg_writes".into(), writes));
    exact.push((
        "cfg.runtime.cycles_waited".into(),
        (after.cycles_waited - before.cycles_waited) as f64,
    ));

    // Heal: one open connection whose route crosses the link that fails.
    let (mut heal_us, mut heal_cycles) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut sys, mut cfg) = control::bind(control::build_control_system());
        let req = ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd {
                ni: 127,
                channel: 1,
            },
        );
        let handle = cfg.open_connection(&mut sys, &req);
        let Ok(handle) = handle else {
            checks.expect(false, "heal scenario's connection opens");
            continue;
        };
        let &(router, port) = handle
            .fwd_links()
            .first()
            .expect("a 15-hop route has links");
        let report = FaultReport {
            suspects: vec![SuspectLink {
                event: 0,
                router,
                port,
                router_wide: false,
                dropped_words: 1,
                corrupted_words: 0,
                lost_credits: 0,
                active: false,
            }],
            ..FaultReport::default()
        };
        let c0 = sys.cycle();
        let (outcome, us) = rec.timed("cfg.runtime.heal", root, || {
            cfg.heal(&mut sys, &report, vec![handle])
        });
        checks.expect(
            outcome.is_ok_and(|o| o.reopened == 1 && o.failed.is_empty()),
            "heal reroutes the connection around the failed link",
        );
        heal_us.push(us);
        heal_cycles.push((sys.cycle() - c0) as f64);
    }
    layers.set("cfg.runtime.heal_us", gate(&heal_us));
    layers.set("cfg.runtime.heal_cycles", median(&heal_cycles));

    // Persistence, call by call, on the system the session left warm.
    let mut twin = control::bind(control::build_control_system()).0;
    let trips = scale.of(w.round_trips, 20);
    let (mut capture, mut render, mut parse, mut restore) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0;
    for _ in 0..trips {
        let trip = rec.open("persist.round_trip", Some(root));
        let (value, us) = rec.timed("cfg.snapshot.capture", trip, || sys.snapshot());
        capture.push(us);
        let value = value.expect("control system snapshots");
        let (text, us) = rec.timed("cfg.json.render", trip, || {
            aethereal_cfg::json::to_string_compact(&value)
        });
        render.push(us);
        let (parsed, us) = rec.timed("cfg.json.parse", trip, || aethereal_cfg::json::parse(&text));
        parse.push(us);
        let parsed = parsed.expect("rendered snapshot parses");
        let (restored, us) = rec.timed("cfg.snapshot.restore", trip, || twin.restore(&parsed));
        restore.push(us);
        rec.close(trip);
        bytes = text.len();
        checks.expect(
            restored.is_ok() && parsed == value,
            "snapshot survives text and restores",
        );
        sys.run(64);
    }
    layers.set("cfg.snapshot.capture_us", gate(&capture));
    layers.set("cfg.json.render_us", gate(&render));
    layers.set("cfg.json.parse_us", gate(&parse));
    layers.set("cfg.snapshot.restore_us", gate(&restore));
    layers.set("cfg.snapshot.bytes", bytes as f64);
    exact.push(("cfg.snapshot.bytes".into(), bytes as f64));

    // The planners an open calls before it touches the NoC, on seeded
    // random pairs of a 16x16.
    let topo = Topology::mesh(16, 16, 1);
    let mut rng = Rng64::seed_from_u64(seed);
    let pairs: Vec<(usize, usize)> = (0..512)
        .map(|_| (rng.below_usize(256), rng.below_usize(256)))
        .filter(|(a, b)| a != b)
        .collect();
    let per_pair = |f: &mut dyn FnMut(usize, usize)| {
        gate(
            &(0..20)
                .map(|_| {
                    let t = Instant::now();
                    for &(a, b) in &pairs {
                        f(a, b);
                    }
                    t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    layers.set(
        "sim.topology.route_any_ns",
        per_pair(&mut |a, b| {
            std::hint::black_box(topo.route_any(a, b).expect("any mesh pair routes"));
        }),
    );
    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| topo.route_any(a, b).expect("any mesh pair routes"))
        .collect();
    let mut allocator = SlotAllocator::new(8);
    let mut i = 0;
    layers.set(
        "cfg.slots.allocate_free_ns",
        per_pair(&mut |a, _| {
            let alloc = allocator
                .allocate_route(
                    &topo,
                    a,
                    &routes[i % routes.len()],
                    2,
                    SlotStrategy::Consecutive,
                )
                .expect("an empty allocator has room");
            allocator.free(&alloc);
            i += 1;
        }),
    );
    checks.expect(
        allocator.total_reserved() == 0,
        "allocate then free leaves nothing reserved",
    );
    let end = EndState {
        cycle: sys.cycle(),
        noc: sys.noc.stats().clone(),
        kernels: sys.nis.iter().map(|ni| *ni.kernel.stats()).collect(),
        observed: Default::default(),
    };
    count_layers(&end, layers, exact);
}

/// `NocSpec::from_json` and `NocSystem::from_spec` on the workload's own
/// description: the first two steps of every set-up.
fn setup_layers(spec: &NocSpec, layers: &mut Layers) {
    let text = spec.to_json().expect("a spec renders");
    layers.set(
        "cfg.spec.from_json_us",
        gate_us(9, || {
            std::hint::black_box(NocSpec::from_json(&text).expect("a rendered spec parses"));
        }),
    );
    layers.set(
        "cfg.system.from_spec_us",
        gate_us(9, || {
            std::hint::black_box(NocSystem::from_spec(spec));
        }),
    );
}

/// Runs the traced pass of `w` and writes `trace.json`.
pub fn run(w: &Workload, seed: u64, scale: Scale) -> Result<TraceOutcome, String> {
    let mut rec = Recorder::new();
    let root = rec.open(w.name, None);
    let mut pass = Pass {
        rec,
        root,
        layers: Layers::default(),
        exact: Vec::new(),
        checks: Checks::default(),
    };
    setup_layers(&build(w, seed).spec, &mut pass.layers);
    let family = match (w.name, w.driver) {
        ("gt16_ff", _) => ff_windows,
        (_, Driver::Sharded { .. }) => shard_family,
        (_, Driver::Control) => control_family,
        (_, Driver::Mono) => data_plane,
    };
    family(w, seed, scale, &mut pass);
    let Pass {
        mut rec,
        mut layers,
        exact,
        checks,
        ..
    } = pass;
    rec.close(root);
    let (attempted, failed) = checks.totals();
    layers.set("trace.ops_failed", failed as f64);

    let dir = crate::report::out_dir();
    let path = dir.join("trace.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(w.name, seed).render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  trace: {} spans in {}", rec.spans.len(), path.display());
    Ok(TraceOutcome {
        metrics: layers.into_metrics(),
        exact,
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn decomposed_loop_reproduces_the_untraced_run() {
        // `run` fails a check when the traced loop's end state differs from
        // the untraced run's; mixed traffic exercises all three IP kinds.
        let outcome = run(
            by_name("shmem8_mixed").expect("workload exists"),
            5,
            Scale(0.001),
        )
        .expect("trace.json can be written");
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert!(value("core.ni.ns_per_cycle") > Some(0.0));
        assert!(value("proto.txn_completed") > Some(0.0));
        assert_eq!(
            value("sim.ff.jumped_share"),
            Some(0.0),
            "masters veto fast-forward"
        );
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut rec = Recorder::new();
        let root = rec.open("workload", None);
        let seg = rec.open("segment", Some(root));
        rec.close(seg);
        rec.aggregate("core.ni", seg, 40, 7);
        rec.close(root);
        let doc = rec.to_json("w", 1);
        let spans = doc.get("spans").and_then(Json::as_obj);
        assert!(spans.is_none(), "spans is an array");
        let Some(Json::Arr(spans)) = doc.get("spans") else {
            panic!("spans is an array")
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(spans[2].get("busy_ns").and_then(Json::as_f64), Some(40.0));
        assert_eq!(spans[2].get("start_ns"), spans[1].get("start_ns"));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
