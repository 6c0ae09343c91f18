//! The paper's evaluation, table by table: one test per experiment
//! `e1`–`e10` of the DATE 2004 paper (§2 guaranteed services, §3/§4
//! configuration, thresholds, credits, connection types and arbitration,
//! §5 area, latency and bandwidth).
//!
//! Each test measures its experiment on the simulator (or the calibrated
//! area / software-stack models), asserts the claim it reproduces, renders
//! the table the paper's figure corresponds to, and compares that text
//! byte for byte with its golden under `tests/goldens/paper/`. The asserts
//! hold the paper's claims with their tolerances; the golden holds every
//! printed number, so a drift inside a tolerance still fails, naming the
//! experiment and its first differing line. Every experiment is
//! deterministic and renders the same text in debug and release builds.
//! Re-baseline with `cargo run -p xtask -- regen-goldens`, which reruns
//! these tests with `REGEN_GOLDENS=1` (the asserts still run; each test
//! then writes its file), then reruns them in compare mode.

use std::fmt::{self, Write};
use std::path::PathBuf;

use aethereal::area::model::{ShellKind, LINK_BANDWIDTH_GBIT, ROUTER_CLOCK_MHZ};
use aethereal::area::{AreaModel, NiInstance, SwStackModel, HW_NI_LATENCY_MAX, HW_NI_LATENCY_MIN};
use aethereal::cfg::runtime::{ChannelEnd, ConnectionRequest, Service};
use aethereal::cfg::{
    presets, NocSpec, NocSystem, RuntimeConfigurator, SlotStrategy, TopologySpec,
};
use aethereal::ni::kernel::{chan_reg_addr, ArbPolicy, ChanReg, PortSpec};
use aethereal::ni::ni::{NiSpec, PortStackSpec};
use aethereal::ni::shell::AddrRange;
use aethereal::ni::{RespStatus, Transaction, TransactionResponse};
use aethereal::proto::ip::{ClockedWith, RawPort};
use aethereal::proto::{
    CountingSink, MemorySlave, RawIp, StreamSink, StreamSource, TrafficGenerator,
    TrafficGeneratorConfig, TrafficMix,
};
use aethereal::sim::SLOT_WORDS;

// ---- Rendering and the golden check ----------------------------------------

/// Renders one table under its `== title ==` line: every cell
/// right-aligned to its column's widest entry, columns two spaces apart, a
/// dashed rule under the header row.
fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "column count mismatch");
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &width)| format!("{c:>width$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    let mut out = format!("\n== {title} ==\n");
    out += &line(headers.to_vec());
    out += &"-".repeat(rule);
    out.push('\n');
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

fn f1(x: f64) -> String {
    format!("{x:.1}")
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Compares `text` byte for byte with `tests/goldens/paper/{name}.txt`, or
/// rewrites that file when `REGEN_GOLDENS` is set.
fn check_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/paper")
        .join(format!("{name}.txt"));
    if std::env::var_os("REGEN_GOLDENS").is_some() {
        std::fs::write(&path, text).expect("write golden");
        eprintln!("regenerated {} ({} bytes)", path.display(), text.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nregenerate it with \
             `cargo run -p xtask -- regen-goldens`",
            path.display()
        )
    });
    if text == golden {
        return;
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (text.lines().collect(), golden.lines().collect());
    let n = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .unwrap_or(got.len());
    let show = |l: Option<&&str>| l.map_or("<end of text>".to_string(), |s| format!("{s:?}"));
    panic!(
        "{name}: output diverged from its golden at line {}\n  measured: {}\n  golden:   {}\n\
         If the simulation or the models changed intentionally, re-baseline with \
         `cargo run -p xtask -- regen-goldens` and review the diff of {}.",
        n + 1,
        show(got.get(n)),
        show(want.get(n)),
        path.display()
    );
}

// ---- Shared systems ----------------------------------------------------------

/// Builds the canonical master/slave system on a `width × height` mesh with
/// two NIs per router — cfg module on NI 0, a master on NI 1, slaves on the
/// remaining attachments — and opens a BE connection master → slave
/// (NI `2·width·height − 1`, the diagonally farthest attachment).
///
/// Returns the system, the configurator and the slave NI id.
fn master_slave_system(width: usize, height: usize) -> (NocSystem, RuntimeConfigurator, usize) {
    let n = 2 * width * height;
    let mut nis = vec![presets::cfg_module_ni(0, 8), presets::master_ni(1)];
    for id in 2..n {
        nis.push(presets::slave_ni(id));
    }
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width,
            height,
            nis_per_router: 2,
        },
        nis,
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    let slave = n - 1;
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd {
                ni: slave,
                channel: 1,
            },
        ),
    )
    .expect("connection opens");
    (sys, cfg, slave)
}

/// Parameters for a raw streaming pair.
#[derive(Debug, Clone, Copy)]
struct StreamSetup {
    /// GT slots for the forward direction (`None` = best effort).
    gt_slots: Option<usize>,
    /// Slot placement.
    strategy: SlotStrategy,
    /// Data threshold at the source.
    data_threshold: u32,
    /// Credit threshold at the sink side.
    credit_threshold: u32,
    /// Source/destination queue depth of the streaming channels, words.
    queue_words: usize,
}

impl Default for StreamSetup {
    fn default() -> Self {
        StreamSetup {
            gt_slots: None,
            strategy: SlotStrategy::Spread,
            data_threshold: 0,
            credit_threshold: 0,
            queue_words: 8,
        }
    }
}

/// Builds a 2×1 mesh with a raw streaming pair: cfg (NI 0) and source
/// (NI 1) on router 0, sink (NI 2) and a spare (NI 3) on router 1, with the
/// connection source.ch1 → sink.ch1 opened per `setup`.
fn stream_system(setup: StreamSetup) -> NocSystem {
    let mut spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 4),
            presets::raw_ni(1, 1),
            presets::raw_ni(2, 1),
            presets::slave_ni(3),
        ],
    );
    // The streaming channels' queue depth is a design-time knob (§1).
    spec.nis[1].kernel.ports[1].queue_words = setup.queue_words;
    spec.nis[2].kernel.ports[1].queue_words = setup.queue_words;
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    let fwd = match setup.gt_slots {
        Some(slots) => Service::Guaranteed {
            slots,
            strategy: setup.strategy,
        },
        None => Service::BestEffort,
    };
    let req = ConnectionRequest {
        fwd,
        rev: Service::BestEffort,
        data_threshold: setup.data_threshold,
        credit_threshold: setup.credit_threshold,
        ..ConnectionRequest::best_effort(
            ChannelEnd { ni: 1, channel: 1 },
            ChannelEnd { ni: 2, channel: 1 },
        )
    };
    cfg.open_connection(&mut sys, &req)
        .expect("stream connection opens");
    // The configurator writes thresholds only at the master end (the
    // paper's 5-vs-3 register split); program the sink side's credit
    // threshold explicitly so unidirectional credit batching is testable.
    if setup.credit_threshold > 0 {
        sys.nis[2]
            .kernel
            .reg_write(
                chan_reg_addr(1, ChanReg::CreditThreshold),
                setup.credit_threshold,
            )
            .expect("threshold register exists");
    }
    sys
}

// ---- E1: §5 area ---------------------------------------------------------------

/// E1 — §5 area breakdown: the synthesized-area table of the paper's
/// evaluation from the calibrated analytical model, then the design
/// parameters the paper lists as instantiation-time choices.
///
/// Paper values (0.13 µm): NI kernel 0.110 mm²; narrowcast 0.004 (4 % of
/// kernel); multi-connection 0.007 (6 %); DTL master 0.005 (5 %); DTL slave
/// 0.002 (2 %); config shell 0.010; example 4-port NI total **0.143 mm²**
/// at 500 MHz / 16 Gbit/s per direction.
#[test]
fn e1_area() -> fmt::Result {
    let mut out = String::new();
    let model = AreaModel::new();
    let reference = NiInstance::reference();
    let b = model.estimate(&reference);

    let kernel = b.kernel_um2();
    let mut rows = vec![vec![
        "NI kernel".into(),
        "0.110".into(),
        format!("{:.3}", b.kernel_mm2()),
        "100".into(),
    ]];
    let paper = |s: ShellKind| match s {
        ShellKind::Narrowcast => "0.004",
        ShellKind::MultiConnection => "0.007",
        ShellKind::DtlMaster => "0.005",
        ShellKind::DtlSlave => "0.002",
        ShellKind::Config => "0.010",
    };
    let mut seen = std::collections::HashSet::new();
    for (kind, area) in &b.shells {
        if !seen.insert(*kind) {
            continue;
        }
        rows.push(vec![
            kind.name().into(),
            paper(*kind).into(),
            format!("{:.3}", area / 1e6),
            format!("{:.0}", area / kernel * 100.0),
        ]);
    }
    rows.push(vec![
        "example 4-port NI (total)".into(),
        "0.143".into(),
        format!("{:.3}", b.total_mm2()),
        String::new(),
    ]);
    out += &table(
        "E1a — §5 synthesized-area table (paper vs calibrated model)",
        &["component", "paper mm²", "model mm²", "% of kernel"],
        &rows,
    );

    assert!(
        (b.kernel_mm2() - 0.110).abs() < 1e-9,
        "kernel anchor must be exact"
    );
    assert!(
        (b.total_mm2() - 0.143).abs() < 1e-9,
        "total anchor must be exact"
    );

    // Itemized kernel decomposition behind the calibration.
    let rows: Vec<Vec<String>> = [
        ("hardware FIFOs (4096 bits)", b.fifos),
        ("per-channel control (8 ch)", b.channel_ctrl),
        ("slot table unit (8 slots)", b.stu),
        ("port logic (4 ports)", b.ports),
        ("packetizer/depacketizer/scheduler", b.shared),
    ]
    .into_iter()
    .map(|(name, a)| vec![name.into(), format!("{a:.0}"), f1(a / kernel * 100.0)])
    .collect();
    out += &table(
        "E1b — kernel area decomposition (calibration)",
        &["kernel item", "µm²", "share %"],
        &rows,
    );

    // Design-space sweep: queue depth and channel count (the §4.1
    // instantiation-time knobs).
    let mut rows = Vec::new();
    for channels in [4usize, 8, 16, 32] {
        for queue_words in [4usize, 8, 16] {
            let ni = NiInstance {
                channels,
                queue_words,
                ..reference.clone()
            };
            let e = model.estimate(&ni);
            rows.push(vec![
                channels.to_string(),
                queue_words.to_string(),
                format!("{:.3}", e.kernel_mm2()),
                format!("{:.3}", e.total_mm2()),
                format!("{:.0}", model.frequency_mhz(&ni)),
            ]);
        }
    }
    out += &table(
        "E1c — design-space sweep (queues dominate, as §5 argues)",
        &[
            "channels",
            "queue words",
            "kernel mm²",
            "total mm²",
            "f (MHz)",
        ],
        &rows,
    );

    writeln!(
        out,
        "\nlink bandwidth at 500 MHz: {LINK_BANDWIDTH_GBIT} Gbit/s per direction (paper: 16 Gbit/s)"
    )?;
    check_golden("e1_area", &out);
    Ok(())
}

// ---- E2: §5 latency ------------------------------------------------------------

/// Kernel-only path (raw port, GT with all slots owned): word pushed into
/// the source queue → word visible at the remote destination queue.
fn kernel_path_latency(offset: u64) -> u64 {
    let mut sys = stream_system(StreamSetup {
        gt_slots: Some(8),
        strategy: SlotStrategy::Consecutive,
        ..Default::default()
    });
    // Desynchronize to the requested slot offset.
    while sys.cycle() % SLOT_WORDS != offset % SLOT_WORDS {
        sys.tick();
    }
    let t0 = sys.cycle();
    sys.nis[1]
        .kernel
        .push_src(1, 0xAB, t0)
        .expect("queue empty");
    for _ in 0..200 {
        sys.tick();
        let now = sys.cycle();
        if sys.nis[2].kernel.dst_level(1, now) > 0 {
            return now - t0;
        }
    }
    panic!("word never arrived");
}

/// Full shell path: master submits a posted write → slave IP sees the
/// transaction (includes master shell seq, kernel, crossing on both sides,
/// slave shell deseq).
fn shell_path_latency(offset: u64) -> u64 {
    let (mut sys, _cfg, slave) = master_slave_system(2, 1);
    while sys.cycle() % SLOT_WORDS != offset % SLOT_WORDS {
        sys.tick();
    }
    let t0 = sys.cycle();
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::write(0x10, vec![7], 1));
    for _ in 0..2_000 {
        sys.tick();
        // Measure until the slave *shell* delivers the transaction — the
        // full master-NI + slave-NI traversal.
        if sys.nis[slave].slave_mut(1).take_request().is_some() {
            return sys.cycle() - t0;
        }
    }
    panic!("request never arrived");
}

/// E2 — §5 latency breakdown: the latency overhead the NI adds to a
/// transaction, against the paper's numbers:
///
/// * master shell sequentialization: 2 cycles;
/// * narrowcast/multicast shell: 0–2 cycles;
/// * NI kernel: 1–3 cycles (3-word flit alignment);
/// * clock-domain crossing: 2 cycles;
/// * → total **4–10 cycles per NI**, pipelined.
///
/// Single words/transactions are injected at every slot-boundary offset,
/// and the pure network time (one slot per hop for GT) is subtracted to
/// isolate the NI overhead.
#[test]
fn e2_latency() -> fmt::Result {
    let mut out = String::new();
    // The 2×1-mesh route crosses 2 routers: 2 slots = 6 cycles of pure
    // network time for GT.
    let hops = 2u64;
    let network = hops * SLOT_WORDS;
    let headers = ["inject offset", "end-to-end (cy)", "NI-pair overhead (cy)"];

    let mut rows = Vec::new();
    let mut kernel_overheads = Vec::new();
    for offset in 0..SLOT_WORDS {
        let lat = kernel_path_latency(offset);
        let overhead = lat - network;
        kernel_overheads.push(overhead);
        rows.push(vec![
            offset.to_string(),
            lat.to_string(),
            overhead.to_string(),
        ]);
    }
    out += &table(
        "E2a — kernel-only path (raw GT channel, source queue → destination queue)",
        &headers,
        &rows,
    );
    let kmin = *kernel_overheads.iter().min().expect("non-empty");
    let kmax = *kernel_overheads.iter().max().expect("non-empty");
    writeln!(
        out,
        "kernel + 2×crossing overhead: {kmin}–{kmax} cycles per NI pair \
         (paper per NI: kernel 1–3 + crossing 2 = 3–5)"
    )?;

    // BE words cross each router with one cycle of arbitration latency.
    let be_network = hops;
    let mut rows = Vec::new();
    let mut shell_overheads = Vec::new();
    for offset in 0..SLOT_WORDS {
        let lat = shell_path_latency(offset);
        let overhead = lat.saturating_sub(be_network);
        shell_overheads.push(overhead);
        rows.push(vec![
            offset.to_string(),
            lat.to_string(),
            overhead.to_string(),
        ]);
    }
    out += &table(
        "E2b — full shell path (master submit → request message at slave NI, BE)",
        &headers,
        &rows,
    );
    let smin = *shell_overheads.iter().min().expect("non-empty");
    let smax = *shell_overheads.iter().max().expect("non-empty");
    writeln!(
        out,
        "shells + kernels overhead: {smin}–{smax} cycles for the NI pair \
         (paper per NI: 4–10 cycles → 8–20 for a pair)"
    )?;

    let rows: Vec<Vec<String>> = [
        ("DTL master shell (sequentialization)", "2"),
        ("narrowcast / multicast shell", "0–2"),
        ("NI kernel (flit alignment)", "1–3"),
        ("clock domain crossing", "2"),
        ("total per NI", "4–10 (pipelined)"),
    ]
    .into_iter()
    .map(|(s, c)| vec![s.into(), c.into()])
    .collect();
    out += &table(
        "E2c — paper latency budget (reference)",
        &["stage (paper §5)", "cycles"],
        &rows,
    );

    // Shape checks: per-pair shell-path overhead must fall within the
    // paper's 2×(4..10) window, and the kernel path must be cheaper.
    assert!(kmin < smin, "shells add latency on top of the kernel");
    assert!(
        (8..=20).contains(&smin),
        "min pair overhead {smin} vs paper 8–20 per pair"
    );
    assert!(
        smax <= 26,
        "max pair overhead {smax} should stay near the paper window"
    );
    check_golden("e2_latency", &out);
    Ok(())
}

// ---- E3: §5 bandwidth ----------------------------------------------------------

/// Payload words per cycle and Gbit/s a saturating source delivers over a
/// GT connection holding `slots` of 8 slots.
fn gt_payload_rate(slots: usize, strategy: SlotStrategy) -> (f64, f64) {
    const WARMUP: u64 = 600;
    const WINDOW: u64 = 12_000;
    // Deep queues so the end-to-end credit window does not throttle long
    // consecutive-run packets (the guarantee is a link property; buffer
    // sizing is a separate design-time choice).
    let mut sys = stream_system(StreamSetup {
        gt_slots: Some(slots),
        strategy,
        queue_words: 64,
        ..Default::default()
    });
    sys.bind_raw(1, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    let sink = sys.bind_raw(2, 1, vec![1], Box::new(StreamSink::new()));
    sys.run(WARMUP);
    let before = sys.raw_ip_as::<StreamSink>(sink).received().len();
    sys.run(WINDOW);
    let after = sys.raw_ip_as::<StreamSink>(sink).received().len();
    assert_eq!(sys.noc.gt_conflicts(), 0);
    let words_per_cycle = (after - before) as f64 / WINDOW as f64;
    let gbit = words_per_cycle * 32.0 * ROUTER_CLOCK_MHZ / 1_000.0;
    (words_per_cycle, gbit)
}

/// E3 — §5 bandwidth: the NI delivers 16 Gbit/s per direction toward the
/// router (32 bit × 500 MHz), and a GT connection holding N of S slots is
/// guaranteed N/S of that ("reserving N slots for a connection results in a
/// total bandwidth of N·B_slot", §2).
///
/// A saturating raw source streams over a GT connection with N = 1..8 of 8
/// slots, with slot placement both spread and consecutive. Consecutive
/// placement amortizes the one-word packet header over longer packets, so
/// its payload efficiency approaches (3N−1)/3N while spread slots pay one
/// header per flit (2/3).
#[test]
fn e3_throughput() -> fmt::Result {
    let mut out = String::new();
    writeln!(
        out,
        "link bandwidth: 32 bit × {ROUTER_CLOCK_MHZ} MHz = {LINK_BANDWIDTH_GBIT} Gbit/s \
         per direction (paper §5: 16 Gbit/s)"
    )?;

    let mut rows = Vec::new();
    for slots in 1..=8usize {
        let guaranteed = slots as f64 / 8.0 * LINK_BANDWIDTH_GBIT;
        let (wpc_s, gbit_s) = gt_payload_rate(slots, SlotStrategy::Spread);
        let (wpc_c, gbit_c) = gt_payload_rate(slots, SlotStrategy::Consecutive);
        let slot_rate = slots as f64 / 8.0; // raw words/cycle incl. headers
        rows.push(vec![
            format!("{slots}/8"),
            f3(guaranteed),
            f3(gbit_s),
            f3(wpc_s / slot_rate),
            f3(gbit_c),
            f3(wpc_c / slot_rate),
        ]);
        // The guarantee is on raw slots; payload can never exceed it, and
        // must reach at least the per-flit header-discounted floor of 2/3.
        assert!(
            gbit_s <= guaranteed + 1e-6,
            "payload cannot exceed the reservation"
        );
        assert!(
            wpc_s / slot_rate >= 0.60,
            "slot utilization collapsed at N={slots} (spread)"
        );
        assert!(
            wpc_c >= wpc_s * 0.98,
            "consecutive placement must not lose to spread (N={slots})"
        );
    }
    out += &table(
        "E3 — GT bandwidth vs slot reservation (payload rate; eff = payload/slot words)",
        &[
            "slots N/8",
            "guaranteed Gbit/s",
            "spread Gbit/s",
            "spread eff",
            "consec Gbit/s",
            "consec eff",
        ],
        &rows,
    );

    writeln!(
        out,
        "\nshape: delivered payload scales ~linearly with N; consecutive placement \
         approaches (3N-1)/3N efficiency, spread pays one header per flit (2/3)."
    )?;
    check_golden("e3_throughput", &out);
    Ok(())
}

// ---- E4: §2 guarantees ---------------------------------------------------------

const E4_GT_SLOTS: usize = 2;
const E4_STU: usize = 8;

struct GuaranteeOutcome {
    gt_rate: f64,
    gt_jitter: u64,
    be_mean_latency: Option<f64>,
    be_issued: u64,
}

/// The GT stream's rate and jitter, and the BE master's own latency, with
/// BE background load of the given gap (`None`: no BE traffic).
fn gt_under_be_load(be_gap: Option<u64>) -> GuaranteeOutcome {
    const WARMUP: u64 = 1_000;
    const WINDOW: u64 = 20_000;
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 3,
        },
        vec![
            presets::cfg_module_ni(0, 8),
            presets::raw_ni(1, 1), // GT source, router 0
            presets::master_ni(2), // BE master, router 0
            presets::raw_ni(3, 1), // GT sink, router 1
            presets::slave_ni(4),  // BE memory, router 1
            presets::slave_ni(5),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, E4_STU);
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest {
            fwd: Service::Guaranteed {
                slots: E4_GT_SLOTS,
                strategy: SlotStrategy::Spread,
            },
            rev: Service::BestEffort,
            ..ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: 1 },
                ChannelEnd { ni: 3, channel: 1 },
            )
        },
    )
    .expect("GT connection opens");
    cfg.open_connection(
        &mut sys,
        &ConnectionRequest::best_effort(
            ChannelEnd { ni: 2, channel: 1 },
            ChannelEnd { ni: 4, channel: 1 },
        ),
    )
    .expect("BE connection opens");

    sys.bind_raw(1, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    let sink = sys.bind_raw(3, 1, vec![1], Box::new(StreamSink::new()));
    let be = be_gap.map(|gap| {
        sys.bind_slave(4, 1, Box::new(MemorySlave::new(1)));
        sys.bind_master(
            2,
            1,
            Box::new(TrafficGenerator::new(TrafficGeneratorConfig {
                seed: 7,
                mix: TrafficMix::Mixed { read_fraction: 0.5 },
                burst: (4, 8),
                gap_cycles: gap,
                max_outstanding: 4,
                ..Default::default()
            })),
        )
    });

    sys.run(WARMUP);
    let before = sys.raw_ip_as::<StreamSink>(sink).received().len();
    sys.run(WINDOW);
    let sink_ref = sys.raw_ip_as::<StreamSink>(sink);
    let after = sink_ref.received().len();
    let arrivals = &sink_ref.arrival_cycles()[before.max(1)..];
    let jitter = arrivals.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    assert_eq!(sys.noc.gt_conflicts(), 0, "GT contention freedom violated");
    assert_eq!(sys.noc.be_overflows(), 0);
    let (be_lat, be_issued) = match be {
        Some(h) => {
            let g = sys.master_ip_as::<TrafficGenerator>(h);
            (g.latency().map(|l| l.mean), g.issued())
        }
        None => (None, 0),
    };
    GuaranteeOutcome {
        gt_rate: (after - before) as f64 / WINDOW as f64,
        gt_jitter: jitter,
        be_mean_latency: be_lat,
        be_issued,
    }
}

/// E4 — §2 guaranteed services: throughput lower bounds, latency upper
/// bounds and jitter bounds of a GT connection hold **independently of
/// best-effort load** — the compositionality property the paper argues is
/// essential for SoC integration.
///
/// A GT stream (2 of 8 slots) crosses the router-to-router link of a 2×1
/// mesh while a best-effort master loads the same link at increasing
/// intensity. Reported per load level: GT payload rate, GT inter-arrival
/// jitter (must stay ≤ the slot-table period bound), and the BE traffic's
/// own latency (which degrades — only BE pays for congestion).
#[test]
fn e4_guarantees() -> fmt::Result {
    let mut out = String::new();
    // The §2 bounds for 2 spread slots in an 8-slot table: worst-case slot
    // wait = max gap × slot length; jitter ≤ max gap between reservations.
    let max_gap_slots = 4u64; // 2 slots evenly spread over 8
    let jitter_bound = max_gap_slots * SLOT_WORDS;
    writeln!(
        out,
        "GT reservation: {E4_GT_SLOTS}/{E4_STU} slots spread → analytic jitter bound \
         {jitter_bound} cycles (max slot gap {max_gap_slots} slots × {SLOT_WORDS} cycles)"
    )?;

    let mut rows = Vec::new();
    let mut baseline = None;
    for (label, gap) in [
        ("none", None),
        ("light (gap 16)", Some(16)),
        ("medium (gap 4)", Some(4)),
        ("saturating (gap 0)", Some(0)),
    ] {
        let o = gt_under_be_load(gap);
        rows.push(vec![
            label.into(),
            f3(o.gt_rate),
            o.gt_jitter.to_string(),
            o.be_issued.to_string(),
            o.be_mean_latency.map_or("-".into(), |l| format!("{l:.1}")),
        ]);
        let base = *baseline.get_or_insert(o.gt_rate);
        assert!(
            (o.gt_rate - base).abs() / base < 0.02,
            "GT throughput moved under BE load: {} vs {}",
            o.gt_rate,
            base
        );
        assert!(
            o.gt_jitter <= jitter_bound,
            "jitter {} exceeded the analytic bound {}",
            o.gt_jitter,
            jitter_bound
        );
    }
    out += &table(
        "E4 — GT guarantees vs best-effort background load",
        &[
            "BE load",
            "GT rate (w/cy)",
            "GT jitter (cy)",
            "BE issued",
            "BE mean lat (cy)",
        ],
        &rows,
    );
    writeln!(
        out,
        "\nshape: GT rate and jitter are flat across all BE loads (guarantees hold); \
         only the BE traffic's own latency grows with congestion."
    )?;
    check_golden("e4_guarantees", &out);
    Ok(())
}

// ---- E5: §3/§4.3 configuration -------------------------------------------------

/// E5 — §3/§4.3 network configuration: the cost of opening connections
/// through the NoC itself (Fig. 9).
///
/// * E5a — the exact Fig. 9 accounting: register writes (5 at the master
///   NI, 3 at the slave NI per channel pair), configuration messages, and
///   measured cycles, on the live simulator;
/// * E5b — configuration latency vs NoC size (the paper's claim that
///   centralized configuration "is able to satisfy the needs of a small
///   NoC (around 10 routers)").
#[test]
fn e5_config() {
    let (_sys, cfg, _slave) = master_slave_system(2, 2);
    let s = *cfg.stats();
    let rows: Vec<Vec<String>> = [
        (
            "config connections opened (steps 1-2)",
            s.config_connections_opened,
            "2 (to master NI and slave NI)",
        ),
        (
            "register writes, user connection",
            s.reg_writes - 12,
            "5 at master NI + 3 at slave NI = 8",
        ),
        (
            "register writes, total",
            s.reg_writes,
            "2×(3 local + 3 remote) + 8 = 20",
        ),
        (
            "writes that crossed the NoC",
            s.remote_writes,
            "total − 6 local",
        ),
        (
            "config messages (incl. acks)",
            s.config_messages,
            "one per remote write + one per ack",
        ),
        (
            "cycles waiting for acks",
            s.cycles_waited,
            "(opening connections takes time, §2)",
        ),
    ]
    .into_iter()
    .map(|(q, v, paper)| vec![q.into(), v.to_string(), paper.into()])
    .collect();
    let mut out = table(
        "E5a — Fig. 9 connection setup through the NoC (2×2 mesh)",
        &["quantity", "measured", "paper / expected"],
        &rows,
    );
    assert_eq!(s.reg_writes, 20);
    assert_eq!(s.config_connections_opened, 2);

    let mut rows = Vec::new();
    for (w, h) in [(1usize, 2usize), (2, 2), (3, 2), (3, 3), (4, 4)] {
        let (_sys, cfg, _slave) = master_slave_system(w, h);
        let s = cfg.stats();
        rows.push(vec![
            format!("{w}x{h}"),
            (w * h).to_string(),
            s.reg_writes.to_string(),
            s.config_messages.to_string(),
            s.cycles_waited.to_string(),
        ]);
    }
    out += &table(
        "E5b — cost of opening one connection vs NoC size (centralized, live)",
        &["mesh", "routers", "reg writes", "messages", "cycles"],
        &rows,
    );
    check_golden("e5_config", &out);
}

// ---- E6: §5 hardware vs software -----------------------------------------------

/// Hardware packetization latency: push `payload` words, count cycles
/// until the packet's last word has left the NI (source queue empty and
/// packet on the wire).
fn hw_packetize_cycles(payload: usize) -> u64 {
    let mut sys = stream_system(StreamSetup {
        gt_slots: Some(8),
        strategy: SlotStrategy::Consecutive,
        queue_words: 32,
        ..Default::default()
    });
    let t0 = sys.cycle();
    for i in 0..payload {
        sys.nis[1]
            .kernel
            .push_src(1, i as u32, t0)
            .expect("queue has room");
    }
    for _ in 0..500 {
        sys.tick();
        let sent = sys.nis[1].kernel.channel(1).stats().words_tx;
        if sent as usize >= payload {
            return sys.cycle() - t0;
        }
    }
    panic!("packet never left");
}

/// E6 — §5 hardware vs software protocol stack: the paper's closing
/// comparison. The hardware NI adds 4–10 pipelined cycles; a software
/// implementation costs ≈ 47 instructions *for packetization alone*
/// (Bhojwani & Mahapatra, cited as [4]).
///
/// The hardware side is **measured** on the simulator (word pushed into a
/// source queue → packet on the link); the software side uses the
/// calibrated instruction-budget model.
#[test]
fn e6_hw_vs_sw() -> fmt::Result {
    let mut out = String::new();
    let sw = SwStackModel::calibrated();
    writeln!(
        out,
        "paper §5: hardware NI overhead {HW_NI_LATENCY_MIN}-{HW_NI_LATENCY_MAX} cycles; \
         software packetization alone = 47 instructions [4]"
    )?;
    assert_eq!(sw.instructions(4), 47, "software model calibration");

    let mut rows = Vec::new();
    for payload in [1usize, 2, 4, 8, 16] {
        let hw = hw_packetize_cycles(payload);
        let instr = sw.instructions(payload as u64);
        let sw_cy = sw.cycles(payload as u64);
        rows.push(vec![
            payload.to_string(),
            hw.to_string(),
            instr.to_string(),
            sw_cy.to_string(),
            f1(sw_cy as f64 / hw as f64),
        ]);
        assert!(
            sw_cy > 2 * hw,
            "software must be several times slower (payload {payload}: {sw_cy} vs {hw})"
        );
    }
    out += &table(
        "E6 — hardware (measured) vs software (modeled) packetization",
        &[
            "payload words",
            "HW measured (cy)",
            "SW instructions",
            "SW cycles (CPI 1.3)",
            "SW/HW slowdown",
        ],
        &rows,
    );

    writeln!(
        out,
        "\nshape: the hardware stack stays within ~{HW_NI_LATENCY_MIN}–{} cycles \
         of per-word streaming cost while the software stack starts at 31 \
         instructions before the first word moves — the paper's argument for a \
         full hardware protocol stack.",
        HW_NI_LATENCY_MAX + 16
    )?;
    check_golden("e6_hw_vs_sw", &out);
    Ok(())
}

// ---- E7: §4.1 thresholds -------------------------------------------------------

/// A source producing one word every `period` port cycles.
struct PacedSource {
    period: u64,
    produced: u64,
}

impl<'a> ClockedWith<RawPort<'a>> for PacedSource {
    fn absorb(&mut self, _port: &mut RawPort<'a>, _now: u64) {}

    fn emit(&mut self, port: &mut RawPort<'a>, now: u64) {
        if now.is_multiple_of(self.period) && port.kernel.src_space(port.channels[0]) > 0 {
            port.kernel
                .push_src(port.channels[0], self.produced as u32, now)
                .expect("space checked");
            self.produced += 1;
        }
    }
}

impl RawIp for PacedSource {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Average packet payload, header overhead and words parked at the end,
/// for a paced source under data threshold `threshold`.
fn run_threshold(threshold: u32) -> (f64, f64, u64) {
    let mut sys = stream_system(StreamSetup {
        data_threshold: threshold,
        ..Default::default()
    });
    sys.bind_raw(
        1,
        1,
        vec![1],
        Box::new(PacedSource {
            period: 6,
            produced: 0,
        }),
    );
    sys.run(30_000);
    let st = sys.nis[1].kernel.channel(1).stats();
    let data_packets = st.packets_tx - st.credit_only_tx;
    let avg_payload = if data_packets > 0 {
        st.words_tx as f64 / data_packets as f64
    } else {
        0.0
    };
    // Header overhead of the data path: one header word per data packet.
    let overhead = if st.words_tx > 0 {
        data_packets as f64 / (st.words_tx + data_packets) as f64
    } else {
        1.0
    };
    // Latency proxy: words still parked in the source queue at the end.
    let parked = sys.nis[1].kernel.channel(1).src_level() as u64;
    (avg_payload, overhead, parked)
}

/// E7 — §4.1 threshold mechanism: "to optimize the NoC utilization, it is
/// preferable to send longer packets… a configurable threshold mechanism
/// skips a channel as long as the sendable data is below the threshold",
/// with the **flush** signal overriding the threshold to prevent
/// starvation.
///
/// A paced source (one word every few cycles) streams over a BE connection
/// while the data threshold sweeps 0..8: higher thresholds batch words into
/// longer packets at the price of delivery latency. Then one word parks
/// below a high threshold until the flush pushes it through.
#[test]
fn e7_thresholds() -> fmt::Result {
    let mut rows = Vec::new();
    let mut last_payload = 0.0;
    for threshold in [0u32, 1, 2, 4, 6, 8] {
        let (avg_payload, overhead, parked) = run_threshold(threshold);
        rows.push(vec![
            threshold.to_string(),
            f3(avg_payload),
            f3(overhead),
            parked.to_string(),
        ]);
        assert!(
            avg_payload + 1e-9 >= last_payload,
            "packets must get longer with the threshold"
        );
        last_payload = avg_payload;
    }
    let mut out = table(
        "E7a — data threshold sweep (paced source, 1 word / 6 cycles)",
        &[
            "data threshold",
            "avg packet payload (w)",
            "header overhead",
            "words parked at end",
        ],
        &rows,
    );
    writeln!(
        out,
        "shape (§4.1): longer packets and lower header overhead as the threshold \
         grows; buffered words wait longer (the starvation risk the flush solves)."
    )?;

    // Flush demonstration.
    let mut sys = stream_system(StreamSetup {
        data_threshold: 8,
        ..Default::default()
    });
    sys.nis[1].kernel.push_src(1, 0xFEED, 0).expect("room");
    sys.run(2_000);
    let stuck = sys.nis[2].kernel.dst_level(1, sys.cycle());
    assert_eq!(stuck, 0, "below threshold: the word must be held back");
    sys.nis[1].kernel.flush(1);
    sys.run(200);
    let delivered = sys.nis[2].kernel.dst_level(1, sys.cycle());
    assert_eq!(delivered, 1, "flush must push the word through");
    writeln!(
        out,
        "\nE7b — flush override: word below threshold held for 2000 cycles, \
         delivered {delivered} word within 200 cycles of the flush signal \
         (threshold bypass, §4.1)."
    )?;
    check_golden("e7_thresholds", &out);
    Ok(())
}

// ---- E8: §4.1 credits ----------------------------------------------------------

struct CreditOutcome {
    delivered: usize,
    credit_only: u64,
    reverse_headers: u64,
}

fn run_unidirectional(credit_threshold: u32) -> CreditOutcome {
    let mut sys = stream_system(StreamSetup {
        credit_threshold,
        ..Default::default()
    });
    sys.bind_raw(1, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    let sink = sys.bind_raw(2, 1, vec![1], Box::new(StreamSink::new()));
    sys.run(20_000);
    let st = sys.nis[2].kernel.channel(1).stats();
    assert_eq!(
        sys.noc.be_overflows(),
        0,
        "credit discipline must prevent overflow"
    );
    CreditOutcome {
        delivered: sys.raw_ip_as::<StreamSink>(sink).received().len(),
        credit_only: st.credit_only_tx,
        reverse_headers: st.packets_tx,
    }
}

/// E8 — §4.1 end-to-end flow control: credits piggyback on reverse packets;
/// when no reverse data exists they travel as credit-only packets whose
/// bandwidth cost the **credit threshold** bounds; and the destination
/// buffer can never overflow (checked as a hard invariant).
///
/// A unidirectional stream forces all credits onto dedicated packets; the
/// credit threshold sweep shows the §4.1 batching effect. A bidirectional
/// run then shows piggybacking eliminating almost all credit-only packets.
#[test]
fn e8_credits() -> fmt::Result {
    let mut rows = Vec::new();
    let mut last_credit_only = u64::MAX;
    for threshold in [1u32, 2, 4, 8] {
        let o = run_unidirectional(threshold);
        rows.push(vec![
            threshold.to_string(),
            o.delivered.to_string(),
            o.credit_only.to_string(),
            f3(o.reverse_headers as f64 / o.delivered.max(1) as f64),
        ]);
        assert!(
            o.credit_only <= last_credit_only,
            "higher credit threshold must not increase credit packets"
        );
        last_credit_only = o.credit_only;
        assert!(o.delivered > 1_000, "stream must make progress");
    }
    let mut out = table(
        "E8a — credit threshold vs credit-only packet overhead (unidirectional)",
        &[
            "credit threshold",
            "words delivered",
            "credit-only packets",
            "reverse words / delivered word",
        ],
        &rows,
    );
    writeln!(
        out,
        "shape (§4.1): raising the credit threshold batches credits into fewer \
         credit-only packets, reclaiming reverse-link bandwidth."
    )?;

    // Piggybacking: reverse data on the same channel pair gives the
    // credits a free ride.
    let mut sys = stream_system(StreamSetup {
        credit_threshold: 31,
        ..Default::default()
    });
    sys.bind_raw(1, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    let sink = sys.bind_raw(2, 1, vec![1], Box::new(StreamSink::new()));
    // Make the sink side also produce data back to NI1 on the same channel.
    sys.bind_raw(2, 1, vec![1], Box::new(StreamSource::counting(u64::MAX)));
    let back = sys.bind_raw(1, 1, vec![1], Box::new(StreamSink::new()));
    sys.run(20_000);
    let st2 = sys.nis[2].kernel.channel(1).stats();
    let fwd = sys.raw_ip_as::<StreamSink>(sink).received().len();
    let rev = sys.raw_ip_as::<StreamSink>(back).received().len();
    writeln!(
        out,
        "\nE8b — piggybacking: bidirectional stream delivered {fwd} fwd / {rev} rev words; \
         sink-side credit-only packets: {} (credits ride on data packets); \
         credits piggybacked: {}",
        st2.credit_only_tx, st2.credits_tx
    )?;
    assert!(rev > 1_000, "reverse data flows");
    assert!(
        st2.credit_only_tx < 5,
        "piggybacking should eliminate almost all credit-only packets"
    );
    assert_eq!(sys.noc.be_overflows(), 0);
    check_golden("e8_credits", &out);
    Ok(())
}

// ---- E9: §2/§4.2 connection types ----------------------------------------------

fn poll(sys: &mut NocSystem, ni: usize, port: usize) -> TransactionResponse {
    for _ in 0..20_000 {
        sys.tick();
        if let Some(r) = sys.nis[ni].master_mut(port).take_response() {
            return r;
        }
    }
    panic!("no response");
}

/// A 2×1 mesh with the master NI `master` and two slaves, one BE leg per
/// master channel opened to each slave.
fn two_slave_system(master: NiSpec) -> NocSystem {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 4),
            master,
            presets::slave_ni(2),
            presets::slave_ni(3),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    // One point-to-point connection per master-slave pair (§4.2: "we
    // implement the narrowcast connection as a collection of point-to-point
    // connections").
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
    sys
}

/// E9a — narrowcast: one master's address space split over two memories.
fn narrowcast_experiment() -> String {
    let ranges = vec![
        AddrRange {
            base: 0x0000,
            size: 0x100,
        },
        AddrRange {
            base: 0x0100,
            size: 0x100,
        },
    ];
    let mut sys = two_slave_system(presets::narrowcast_master_ni(1, ranges));
    let m2 = sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    let m3 = sys.bind_slave(3, 1, Box::new(MemorySlave::new(5))); // slower memory

    // Writes into both halves of the shared address space.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x0010, vec![111], 1));
    assert_eq!(poll(&mut sys, 1, 1).status, RespStatus::Ok);
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x0110, vec![222], 2));
    assert_eq!(poll(&mut sys, 1, 1).status, RespStatus::Ok);

    // Interleaved reads to both slaves: responses must return in order even
    // though slave 3 is five times slower.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x0110, 1, 3)); // slow slave first
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::read(0x0010, 1, 4)); // fast slave second
    let r1 = poll(&mut sys, 1, 1);
    let r2 = poll(&mut sys, 1, 1);
    assert_eq!(
        (r1.trans_id, r1.data[0]),
        (3, 222),
        "slow slave answers first in order"
    );
    assert_eq!((r2.trans_id, r2.data[0]), (4, 111));

    let executed = |m| {
        let mem = sys.slave_ip_as::<MemorySlave>(m);
        mem.reads() + mem.writes()
    };
    let rows = vec![
        vec![
            "address ranges".into(),
            "0x000-0x0FF → mem A, 0x100-0x1FF → mem B".into(),
        ],
        vec![
            "requests executed by mem A / mem B".into(),
            format!("{} / {}", executed(m2), executed(m3)),
        ],
        vec![
            "in-order response merge across unequal slave speeds".into(),
            "verified".into(),
        ],
        vec![
            "narrowcast shell cost (§5)".into(),
            format!("{} µm² (4% of kernel)", ShellKind::Narrowcast.area_um2()),
        ],
    ];
    table(
        "E9a — narrowcast: one shared address space over two memories",
        &["quantity", "value"],
        &rows,
    )
}

/// E9b — multicast: every slave executes every transaction.
fn multicast_experiment() -> String {
    let mut sys = two_slave_system(presets::multicast_master_ni(1, 2));
    let m2 = sys.bind_slave(2, 1, Box::new(MemorySlave::new(1)));
    let m3 = sys.bind_slave(3, 1, Box::new(MemorySlave::new(2)));

    // One acked write: both slaves execute it; the shell merges both acks
    // into a single response.
    sys.nis[1]
        .master_mut(1)
        .submit(Transaction::acked_write(0x40, vec![0xAA, 0xBB], 7));
    let ack = poll(&mut sys, 1, 1);
    assert_eq!(ack.trans_id, 7);
    assert_eq!(ack.status, RespStatus::Ok);
    sys.run(500);

    let w2 = sys.slave_ip_as::<MemorySlave>(m2).writes();
    let w3 = sys.slave_ip_as::<MemorySlave>(m3).writes();
    let v2 = sys.slave_ip_as::<MemorySlave>(m2).peek(0x40);
    let v3 = sys.slave_ip_as::<MemorySlave>(m3).peek(0x40);
    let rows = vec![
        vec![
            "slaves executing each transaction".into(),
            "2 of 2 (§2 multicast)".into(),
        ],
        vec![
            "writes executed (mem A / mem B)".into(),
            format!("{w2} / {w3}"),
        ],
        vec![
            "value at 0x40 (mem A / mem B)".into(),
            format!("{v2:#x} / {v3:#x}"),
        ],
        vec!["acks merged into one response".into(), "verified".into()],
    ];
    assert_eq!((w2, w3), (1, 1));
    assert_eq!((v2, v3), (0xAA, 0xAA));
    table(
        "E9b — multicast: one write executed by every slave",
        &["quantity", "value"],
        &rows,
    )
}

/// E9 — §2/§4.2 connection types: narrowcast (one shared address space
/// split over multiple memories, responses merged in order) and multicast
/// (every slave executes every transaction), at the shell costs reported in
/// §5 (narrowcast 0.004 mm² = 4 % of the kernel, multi-connection
/// 0.007 mm² = 6 %).
#[test]
fn e9_connections() -> fmt::Result {
    let mut out = narrowcast_experiment();
    out += &multicast_experiment();
    writeln!(
        out,
        "\nshape (§4.2/§5): both connection types work as plug-in shells around an \
         unchanged kernel, at 4% / 6% of the kernel area."
    )?;
    check_golden("e9_connections", &out);
    Ok(())
}

// ---- E10: §4.1 arbitration -----------------------------------------------------

/// Source NI: CNIP + one raw port with three channels, with the given BE
/// arbitration policy.
fn source_ni(policy: ArbPolicy) -> NiSpec {
    let mut spec = presets::raw_ni(1, 3);
    spec.kernel.arb = policy;
    // Deeper source queues make the queue-fill policy's bias visible.
    spec.kernel.ports[1] = PortSpec {
        channels: 3,
        queue_words: 16,
        ..PortSpec::default()
    };
    assert!(matches!(spec.stacks[1], PortStackSpec::Raw));
    spec
}

/// Words sent per channel and the average data-packet payload, for three
/// saturating streams under `policy`.
fn arbitrate(policy: ArbPolicy) -> ([u64; 3], f64) {
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 2,
            height: 1,
            nis_per_router: 2,
        },
        vec![
            presets::cfg_module_ni(0, 8),
            source_ni(policy),
            presets::raw_ni(2, 3),
            presets::slave_ni(3),
        ],
    );
    let mut sys = NocSystem::from_spec(&spec);
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, 8);
    for ch in 1..=3usize {
        cfg.open_connection(
            &mut sys,
            &ConnectionRequest::best_effort(
                ChannelEnd { ni: 1, channel: ch },
                ChannelEnd { ni: 2, channel: ch },
            ),
        )
        .expect("leg opens");
    }
    for ch in 1..=3usize {
        sys.bind_raw(1, 1, vec![ch], Box::new(StreamSource::counting(u64::MAX)));
        // Sinks drain at line rate.
        sys.bind_raw(2, 1, vec![ch], Box::new(CountingSink::new()));
    }
    sys.run(30_000);
    let mut out = [0u64; 3];
    let mut words = 0u64;
    let mut packets = 0u64;
    for ch in 1..=3usize {
        let st = *sys.nis[1].kernel.channel(ch).stats();
        out[ch - 1] = st.words_tx;
        words += st.words_tx;
        packets += st.packets_tx - st.credit_only_tx;
    }
    assert_eq!(sys.noc.be_overflows(), 0);
    (out, words as f64 / packets.max(1) as f64)
}

/// E10 — §4.1 arbitration ablation: the paper lists round-robin, weighted
/// round-robin and queue-filling-based arbitration as the configurable BE
/// schemes. Three saturating streams share one NI's router link under each
/// policy; the per-channel share shows the policy's character:
///
/// * round-robin — equal shares;
/// * weighted round-robin (4:2:1) — proportional shares;
/// * queue-fill — always drains the fullest queue, maximizing packet
///   length (lowest header overhead) while self-balancing under symmetric
///   saturation.
#[test]
fn e10_arbitration() -> fmt::Result {
    let policies: [(&str, ArbPolicy); 3] = [
        ("round-robin", ArbPolicy::RoundRobin),
        (
            "weighted RR 4:2:1",
            ArbPolicy::WeightedRoundRobin(vec![1, 4, 2, 1]), // channel ids 1..3
        ),
        ("queue-fill", ArbPolicy::QueueFill),
    ];
    let mut rows = Vec::new();
    let mut rr_payload = 0.0;
    for (name, policy) in policies {
        let (w, avg_payload) = arbitrate(policy.clone());
        let total: u64 = w.iter().sum();
        rows.push(vec![
            name.into(),
            w[0].to_string(),
            w[1].to_string(),
            w[2].to_string(),
            f3(w[0] as f64 / total as f64),
            f3(w[1] as f64 / total as f64),
            f3(w[2] as f64 / total as f64),
            f3(avg_payload),
        ]);
        match policy {
            ArbPolicy::RoundRobin => {
                rr_payload = avg_payload;
                for &wk in &w {
                    let share = wk as f64 / total as f64;
                    assert!((share - 1.0 / 3.0).abs() < 0.05, "RR share {share}");
                }
            }
            ArbPolicy::WeightedRoundRobin(_) => {
                // Weighting is per *grant*; rarely-served channels
                // accumulate more data and send longer packets, so the
                // word-level ratio compresses below the 4:1 grant ratio.
                assert!(
                    w[0] > w[1] && w[1] > w[2],
                    "WRR must order by weight: {w:?}"
                );
                let r = w[0] as f64 / w[2] as f64;
                assert!(
                    (1.5..=6.0).contains(&r),
                    "4:1 grant weighting, word ratio ≈ {r}"
                );
            }
            ArbPolicy::QueueFill => {
                // The fill-based policy's signature is packet length: it
                // always drains the fullest queue, so its packets are at
                // least as long as round-robin's.
                assert!(
                    avg_payload >= rr_payload - 1e-9,
                    "queue-fill packets ({avg_payload}) must not be shorter than RR ({rr_payload})"
                );
            }
        }
    }
    let mut out = table(
        "E10 — BE arbitration policies under three saturating channels (§4.1)",
        &[
            "policy",
            "ch1 words",
            "ch2 words",
            "ch3 words",
            "share ch1",
            "share ch2",
            "share ch3",
            "avg pkt payload",
        ],
        &rows,
    );
    writeln!(
        out,
        "\nshape: RR equalizes; WRR orders throughput by weight (per-grant weighting, \
         word-ratios compressed by adaptive packet sizes); queue-fill trades \
         fairness for longer packets — why the paper leaves the scheme configurable."
    )?;
    check_golden("e10_arbitration", &out);
    Ok(())
}
