//! `protocols` — per-protocol performance trajectory point (`BENCH_9.json`).
//!
//! Runs a pinned workload pair (Jacobi + MD5, RaCCD mode) under every
//! protocol × topology combination ({MESI, MESIF, MOESI} × {mesh, numa2})
//! and emits one [`PerfJob`] per combination with the whole-cell
//! throughput (simulated cycles/sec over the summed stats and wall). The
//! document is `perf --compare`-compatible, so CI soft-gates it exactly
//! like `BENCH_7.json`/`BENCH_8.json`.
//!
//! Every cell is also a correctness gate: each workload must verify, and
//! every rep must reproduce the first rep's `Stats` bit for bit.
//!
//! ```text
//! protocols [--scale test|bench|paper] [--reps N] [--out BENCH_9.json]
//! ```

use raccd_bench::perfjson::{git_rev, host_fingerprint, BenchDoc, PerfJob, SCHEMA_VERSION};
use raccd_core::{CoherenceMode, Experiment};
use raccd_obs::RunMetrics;
use raccd_prof::ProfReport;
use raccd_sim::{MachineConfig, ProtocolKind, Stats, Topology};
use raccd_workloads::{all_benchmarks, Scale};
use std::time::Instant;

/// Pinned workload subset: indices into [`all_benchmarks`] (Jacobi — a
/// stencil with real sharing, MD5 — a streaming kernel).
const WORKLOADS: [usize; 2] = [3, 7];

fn main() {
    std::process::exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("protocols: error: {e}");
            2
        }
    });
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Test;
    let mut reps: usize = 3;
    let mut out = "BENCH_9.json".to_string();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize, flag: &str| -> Result<String, String> {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        match argv[i].as_str() {
            "--scale" => {
                let v = value(i, "--scale")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--reps" => {
                reps = value(i, "--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            "--out" => out = value(i, "--out")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }

    let cells = ProtocolKind::ALL.len() * Topology::ALL.len();
    eprintln!(
        "protocols: {} protocol x topology cells, {} workloads each, {} rep(s), scale {scale}",
        cells,
        WORKLOADS.len(),
        reps,
    );

    let mut jobs = Vec::with_capacity(cells);
    for protocol in ProtocolKind::ALL {
        for topology in Topology::ALL {
            jobs.push(run_cell(scale, protocol, topology, reps)?);
        }
    }

    let (host, ncpu) = host_fingerprint();
    let doc = BenchDoc {
        schema_version: SCHEMA_VERSION,
        git_rev: git_rev(std::path::Path::new(".")),
        host,
        ncpu,
        scale: format!("{scale}"),
        reps: reps as u64,
        prof_overhead_pct: 0.0,
        jobs,
        spans: ProfReport::empty(),
    };
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("protocols: wrote {out} ({} jobs)", doc.jobs.len());
    Ok(())
}

/// One protocol × topology cell: every pinned workload under RaCCD, stats
/// summed, wall summed; the median rep becomes the trajectory job.
fn run_cell(
    scale: Scale,
    protocol: ProtocolKind,
    topology: Topology,
    reps: usize,
) -> Result<PerfJob, String> {
    let cfg = base_config(scale)
        .with_protocol(protocol)
        .with_topology(topology);
    let name = format!("protocol/{}@{}", protocol.label(), topology.label());
    let workloads = all_benchmarks(scale);

    let mut rep_results: Vec<(f64, Stats)> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sum = Stats::default();
        let t0 = Instant::now();
        for &bench_idx in &WORKLOADS {
            let w = workloads[bench_idx].as_ref();
            let run = Experiment::new(cfg, CoherenceMode::Raccd).run(w);
            if !run.verified {
                return Err(format!(
                    "{name}/{}: verification failed: {:?}",
                    w.name(),
                    run.verify_error
                ));
            }
            sum.cycles += run.stats.cycles;
            sum.refs_processed += run.stats.refs_processed;
            sum.noc_traffic += run.stats.noc_traffic;
            sum.tasks_executed += run.stats.tasks_executed;
        }
        rep_results.push((t0.elapsed().as_secs_f64(), sum));
    }

    // Determinism across reps, then take the median-wall rep.
    for (wall, stats) in &rep_results[1..] {
        let _ = wall;
        if *stats != rep_results[0].1 {
            return Err(format!("{name}: non-deterministic Stats across reps"));
        }
    }
    let mut order: Vec<usize> = (0..reps).collect();
    order.sort_by(|&a, &b| rep_results[a].0.total_cmp(&rep_results[b].0));
    let (wall, ref stats) = rep_results[order[reps / 2]];

    eprintln!(
        "protocols: {name:<24} wall {wall:.3}s ({} simulated cycles/s)",
        raccd_prof::fmt_si(stats.cycles as f64 / wall.max(1e-12)),
    );
    Ok(PerfJob {
        name: name.clone(),
        workload: "jacobi+md5".to_string(),
        mode: "raccd".to_string(),
        profiled: false,
        reps: reps as u64,
        metrics: RunMetrics::from_stats(&name, stats, wall),
    })
}

fn base_config(scale: Scale) -> MachineConfig {
    match scale {
        Scale::Paper => MachineConfig::paper(),
        _ => MachineConfig::scaled(),
    }
}
