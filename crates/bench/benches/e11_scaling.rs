//! E11 — sharded-execution scaling: sequential vs sharded (lockstep on one
//! thread) vs parallel (one worker thread per shard) across mesh sizes,
//! shard counts and traffic patterns, plus the activity-set scheduler's
//! idle-region skip.
//!
//! This experiment has no counterpart in the paper — it evaluates the
//! *simulator's* execution core, not the modeled hardware. Throughput is
//! verified to be identical across execution modes (the parity invariant),
//! so only wall-clock differs.
//!
//! It is the repository's only sweep over worker threads, and so the tool
//! for ROADMAP's run-driver *Step 0*: on a host with ≥ 4 real cores, do 4
//! workers on the 16x16 uniform mesh reach ≥ 2x the monolithic run? The
//! last table prints exactly that comparison next to the host's core
//! count. Each figure is one plain `Instant` reading — enough to tell 2x
//! from 1x, not a gateable statistic (`benchmark/` holds those).

use aethereal_bench::{
    sharded_received, sharded_stream_mesh, single_received, stream_mesh, MeshTraffic, Table,
};
use std::time::Instant;

const CYCLES: u64 = 2_000;

fn seq_ms(width: usize, height: usize, traffic: MeshTraffic) -> (f64, u64) {
    let (mut sys, _, sinks) = stream_mesh(width, height, traffic);
    sys.run(200); // warmup
    let start = Instant::now();
    sys.run(CYCLES);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, single_received(&sys, &sinks))
}

fn sharded_ms(
    width: usize,
    height: usize,
    traffic: MeshTraffic,
    shards: usize,
    batch: u64,
    parallel: bool,
) -> (f64, u64) {
    let (mut sharded, sinks) = sharded_stream_mesh(width, height, traffic, shards);
    sharded.set_batch(batch);
    sharded.run(200); // warmup
    let start = Instant::now();
    if parallel {
        sharded.run_parallel(CYCLES);
    } else {
        sharded.run(CYCLES);
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, sharded_received(&sharded, &sinks))
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "sharded-execution scaling over {CYCLES} measured cycles \
         (host exposes {cores} core(s); parallel speedup is bounded by that)\n"
    );

    let mut t = Table::new(&[
        "mesh",
        "traffic",
        "mode",
        "ms",
        "speedup vs seq",
        "words recv",
    ]);
    for &(w, h) in &[(4usize, 4usize), (8, 8)] {
        for &(traffic, name) in &[
            (MeshTraffic::Uniform, "uniform"),
            (MeshTraffic::Hotspot, "hotspot"),
        ] {
            let (base_ms, base_words) = seq_ms(w, h, traffic);
            t.row(&[
                format!("{w}x{h}"),
                name.to_string(),
                "sequential".to_string(),
                format!("{base_ms:.2}"),
                "1.00".to_string(),
                base_words.to_string(),
            ]);
            for shards in [2usize, 4] {
                if shards > h {
                    continue;
                }
                for parallel in [false, true] {
                    let (ms, words) = sharded_ms(w, h, traffic, shards, 1, parallel);
                    t.row(&[
                        format!("{w}x{h}"),
                        name.to_string(),
                        format!(
                            "{} x{shards}",
                            if parallel { "parallel" } else { "sharded" }
                        ),
                        format!("{ms:.2}"),
                        format!("{:.2}", base_ms / ms),
                        words.to_string(),
                    ]);
                }
            }
        }
    }
    println!("{}", t.render());

    // The activity-set scheduler: traffic confined to the top row band of
    // an 8x8 mesh. The idle regions must cost (almost) nothing: compare
    // against the same streams on a stand-alone 8x2 mesh.
    let mut t = Table::new(&["scenario", "mode", "ms"]);
    let (seq, _) = seq_ms(8, 8, MeshTraffic::BusyBand);
    t.row(&[
        "8x8 busy band".into(),
        "sequential (whole mesh ticks)".into(),
        format!("{seq:.2}"),
    ]);
    let (mixed, _) = sharded_ms(8, 8, MeshTraffic::BusyBand, 4, 1, false);
    t.row(&[
        "8x8 busy band".into(),
        "sharded x4 (3 regions sleep)".into(),
        format!("{mixed:.2}"),
    ]);
    let (alone, _) = seq_ms(8, 2, MeshTraffic::BusyBand);
    t.row(&[
        "8x2 band alone".into(),
        "sequential (lower bound)".into(),
        format!("{alone:.2}"),
    ]);
    let (idle, _) = sharded_ms(8, 8, MeshTraffic::Idle, 4, 1, false);
    t.row(&[
        "8x8 fully idle".into(),
        "sharded x4 (all sleep)".into(),
        format!("{idle:.2}"),
    ]);
    println!("{}", t.render());
    println!(
        "idle-region skip: mixed sharded run costs {:.2}x the busy band alone \
         (1.0 = idle regions are free); whole-mesh sequential pays {:.2}x\n",
        mixed / alone,
        seq / alone
    );

    // ROADMAP's run-driver Step 0: worker-thread execution stays only if
    // 4 workers on the 16x16 uniform mesh reach >= 2x the monolithic run
    // on a host with >= 4 real cores. Slack batch 16 is the runner's best
    // case (the tables above run the lockstep default, batch 1).
    let title = format!("16x16 uniform, batch 16, {cores} core(s)");
    let mut t = Table::new(&[&title, "ms", "speedup vs seq", "words recv"]);
    let (base_ms, base_words) = seq_ms(16, 16, MeshTraffic::Uniform);
    t.row(&[
        "sequential".into(),
        format!("{base_ms:.2}"),
        "1.00".into(),
        base_words.to_string(),
    ]);
    for parallel in [false, true] {
        let (ms, words) = sharded_ms(16, 16, MeshTraffic::Uniform, 4, 16, parallel);
        t.row(&[
            format!("{} x4", if parallel { "parallel" } else { "sharded" }),
            format!("{ms:.2}"),
            format!("{:.2}", base_ms / ms),
            words.to_string(),
        ]);
    }
    println!("{}", t.render());
}
