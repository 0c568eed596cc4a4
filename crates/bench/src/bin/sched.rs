//! `sched` — per-scheduler performance trajectory point (`BENCH_10.json`).
//!
//! Runs a pinned workload pair (Jacobi + MD5) under every scheduling
//! policy × coherence system combination (`SchedKind::ALL` × {RaCCD,
//! FullCoh}) and emits one [`PerfJob`] per combination — the per-policy
//! RaCCD win table. The document is `perf --compare`-compatible, so CI
//! soft-gates it exactly like `BENCH_6.json`–`BENCH_9.json`.
//!
//! Every cell is also a correctness gate: each workload must verify, and
//! every rep must reproduce the first rep's `Stats` bit for bit. On top
//! of that the run asserts the paper's locality claim end to end: the `locality` policy must migrate
//! fewer tasks (and hand off fewer NCRTs under RaCCD) than the central
//! `fifo` queue on at least one pinned workload.
//!
//! ```text
//! sched [--scale test|bench|paper] [--reps N] [--out BENCH_10.json]
//! ```

use raccd_bench::perfjson::{git_rev, host_fingerprint, BenchDoc, PerfJob, SCHEMA_VERSION};
use raccd_core::{CoherenceMode, Experiment};
use raccd_obs::RunMetrics;
use raccd_prof::ProfReport;
use raccd_sim::{MachineConfig, SchedKind, Stats};
use raccd_workloads::{all_benchmarks, Scale};
use std::time::Instant;

/// Pinned workload subset: indices into [`all_benchmarks`] (Jacobi — a
/// stencil whose dependents fan out across cores, MD5 — a streaming
/// kernel of independent chains).
const WORKLOADS: [usize; 2] = [3, 7];

fn main() {
    std::process::exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sched: error: {e}");
            2
        }
    });
}

/// Per-workload migration/hand-off counts of one (policy, mode) cell,
/// used for the locality gate and the stderr win table.
struct CellChurn {
    task_migrations: Vec<u64>,
    ncrt_migrations: Vec<u64>,
    preemptions: u64,
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Test;
    let mut reps: usize = 3;
    let mut out = "BENCH_10.json".to_string();
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

    let modes = [CoherenceMode::Raccd, CoherenceMode::FullCoh];
    let cells = SchedKind::ALL.len() * modes.len();
    eprintln!(
        "sched: {} policy x mode cells, {} workloads each, {} rep(s), scale {scale}",
        cells,
        WORKLOADS.len(),
        reps,
    );

    let mut jobs = Vec::with_capacity(cells);
    let mut churn = Vec::with_capacity(cells);
    for sched in SchedKind::ALL {
        for mode in modes {
            let (job, c) = run_cell(scale, sched, mode, reps)?;
            jobs.push(job);
            churn.push((sched, mode, c));
        }
    }

    // The win table: policy rows, per-mode cycles plus migration churn.
    eprintln!("sched: policy        mode     cycles       migrations  ncrt_handoffs  preemptions");
    for ((sched, mode, c), job) in churn.iter().zip(&jobs) {
        eprintln!(
            "sched: {:<13} {:<8} {:<12} {:<11} {:<14} {}",
            sched.label(),
            mode.label().to_ascii_lowercase(),
            job.metrics.sim_cycles,
            c.task_migrations.iter().sum::<u64>(),
            c.ncrt_migrations.iter().sum::<u64>(),
            c.preemptions,
        );
    }

    // End-to-end locality gate: on at least one pinned workload, the
    // locality policy must migrate fewer tasks — and re-register fewer
    // NCRTs under RaCCD — than the central FIFO queue.
    let find = |kind: SchedKind, mode: CoherenceMode| {
        churn
            .iter()
            .find(|(s, m, _)| *s == kind && *m == mode)
            .map(|(_, _, c)| c)
            .expect("cell ran")
    };
    let fifo = find(SchedKind::Fifo, CoherenceMode::Raccd);
    let loc = find(SchedKind::Locality, CoherenceMode::Raccd);
    let migration_win = fifo
        .task_migrations
        .iter()
        .zip(&loc.task_migrations)
        .any(|(f, l)| l < f);
    let handoff_win = fifo
        .ncrt_migrations
        .iter()
        .zip(&loc.ncrt_migrations)
        .any(|(f, l)| l < f);
    if !migration_win || !handoff_win {
        return Err(format!(
            "locality did not beat fifo on any workload: migrations {:?} vs {:?}, \
             NCRT hand-offs {:?} vs {:?}",
            loc.task_migrations, fifo.task_migrations, loc.ncrt_migrations, fifo.ncrt_migrations
        ));
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
    eprintln!("sched: wrote {out} ({} jobs)", doc.jobs.len());
    Ok(())
}

/// One policy × mode cell: every pinned workload, stats summed, wall
/// summed; the median rep becomes the trajectory job.
fn run_cell(
    scale: Scale,
    sched: SchedKind,
    mode: CoherenceMode,
    reps: usize,
) -> Result<(PerfJob, CellChurn), String> {
    let cfg = base_config(scale).with_sched(sched);
    let name = format!(
        "sched/{}@{}",
        sched.label(),
        mode.label().to_ascii_lowercase()
    );
    let workloads = all_benchmarks(scale);

    let mut rep_results: Vec<(f64, Stats)> = Vec::with_capacity(reps);
    let mut churn = CellChurn {
        task_migrations: Vec::new(),
        ncrt_migrations: Vec::new(),
        preemptions: 0,
    };
    for rep in 0..reps {
        let mut sum = Stats::default();
        let t0 = Instant::now();
        for &bench_idx in &WORKLOADS {
            let w = workloads[bench_idx].as_ref();
            let run = Experiment::new(cfg, mode).run(w);
            if !run.verified {
                return Err(format!(
                    "{name}/{}: verification failed: {:?}",
                    w.name(),
                    run.verify_error
                ));
            }
            if rep == 0 {
                churn.task_migrations.push(run.stats.task_migrations);
                churn.ncrt_migrations.push(run.stats.ncrt_migrations);
                churn.preemptions += run.stats.preemptions;
            }
            sum.cycles += run.stats.cycles;
            sum.refs_processed += run.stats.refs_processed;
            sum.noc_traffic += run.stats.noc_traffic;
            sum.tasks_executed += run.stats.tasks_executed;
        }
        rep_results.push((t0.elapsed().as_secs_f64(), sum));
    }

    // Determinism across reps, then take the median-wall rep.
    for (_, stats) in &rep_results[1..] {
        if *stats != rep_results[0].1 {
            return Err(format!("{name}: non-deterministic Stats across reps"));
        }
    }
    let mut order: Vec<usize> = (0..reps).collect();
    order.sort_by(|&a, &b| rep_results[a].0.total_cmp(&rep_results[b].0));
    let (wall, ref stats) = rep_results[order[reps / 2]];

    eprintln!(
        "sched: {name:<24} wall {wall:.3}s ({} simulated cycles/s)",
        raccd_prof::fmt_si(stats.cycles as f64 / wall.max(1e-12)),
    );
    let job = PerfJob {
        name: name.clone(),
        workload: "jacobi+md5".to_string(),
        mode: mode.label().to_ascii_lowercase(),
        profiled: false,
        reps: reps as u64,
        metrics: RunMetrics::from_stats(&name, stats, wall),
    };
    Ok((job, churn))
}

fn base_config(scale: Scale) -> MachineConfig {
    match scale {
        Scale::Paper => MachineConfig::paper(),
        _ => MachineConfig::scaled(),
    }
}
