//! `sched` — the per-scheduler RaCCD win table and correctness gate.
//!
//! Runs a pinned workload pair (Jacobi + MD5) under every scheduling
//! policy × coherence system combination (`SchedKind::ALL` × {RaCCD,
//! FullCoh}) and prints the per-policy win table on stderr: simulated
//! cycles, task migrations, NCRT hand-offs and preemptions per cell.
//!
//! Every cell is also a correctness gate: each workload must verify, and
//! every rep must reproduce the first rep's `Stats` bit for bit. On top
//! of that the run asserts the paper's locality claim end to end: the `locality` policy must migrate
//! fewer tasks (and hand off fewer NCRTs under RaCCD) than the central
//! `fifo` queue on at least one pinned workload.
//!
//! ```text
//! sched [--scale test|bench|paper] [--reps N]
//! ```

use raccd_bench::config_for_scale;
use raccd_core::{CoherenceMode, Experiment};
use raccd_sim::{SchedKind, Stats};
use raccd_workloads::{all_benchmarks, Scale};

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

/// One (policy, mode) cell: summed simulated cycles plus per-workload
/// migration/hand-off counts, used for the locality gate and the stderr
/// win table.
struct Cell {
    cycles: u64,
    task_migrations: Vec<u64>,
    ncrt_migrations: Vec<u64>,
    preemptions: u64,
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Test;
    let mut reps: usize = 3;
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
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }

    let modes = [CoherenceMode::Raccd, CoherenceMode::FullCoh];
    let ncells = SchedKind::ALL.len() * modes.len();
    eprintln!(
        "sched: {} policy x mode cells, {} workloads each, {} rep(s), scale {scale}",
        ncells,
        WORKLOADS.len(),
        reps,
    );

    let mut cells = Vec::with_capacity(ncells);
    for sched in SchedKind::ALL {
        for mode in modes {
            cells.push((sched, mode, run_cell(scale, sched, mode, reps)?));
        }
    }

    // The win table: policy rows, per-mode cycles plus migration churn.
    eprintln!("sched: policy        mode     cycles       migrations  ncrt_handoffs  preemptions");
    for (sched, mode, c) in &cells {
        eprintln!(
            "sched: {:<13} {:<8} {:<12} {:<11} {:<14} {}",
            sched.label(),
            mode.label().to_ascii_lowercase(),
            c.cycles,
            c.task_migrations.iter().sum::<u64>(),
            c.ncrt_migrations.iter().sum::<u64>(),
            c.preemptions,
        );
    }

    // End-to-end locality gate: on at least one pinned workload, the
    // locality policy must migrate fewer tasks — and re-register fewer
    // NCRTs under RaCCD — than the central FIFO queue.
    let find = |kind: SchedKind, mode: CoherenceMode| {
        cells
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
    Ok(())
}

/// One policy × mode cell: every pinned workload, stats summed; every
/// rep must reproduce the first rep's sum.
fn run_cell(
    scale: Scale,
    sched: SchedKind,
    mode: CoherenceMode,
    reps: usize,
) -> Result<Cell, String> {
    let cfg = config_for_scale(scale).with_sched(sched);
    let name = format!(
        "sched/{}@{}",
        sched.label(),
        mode.label().to_ascii_lowercase()
    );
    let workloads = all_benchmarks(scale);

    let mut rep_stats: Vec<Stats> = Vec::with_capacity(reps);
    let mut cell = Cell {
        cycles: 0,
        task_migrations: Vec::new(),
        ncrt_migrations: Vec::new(),
        preemptions: 0,
    };
    for rep in 0..reps {
        let mut sum = Stats::default();
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
                cell.task_migrations.push(run.stats.task_migrations);
                cell.ncrt_migrations.push(run.stats.ncrt_migrations);
                cell.preemptions += run.stats.preemptions;
            }
            sum.cycles += run.stats.cycles;
            sum.refs_processed += run.stats.refs_processed;
            sum.noc_traffic += run.stats.noc_traffic;
            sum.tasks_executed += run.stats.tasks_executed;
        }
        rep_stats.push(sum);
    }

    if rep_stats[1..].iter().any(|s| *s != rep_stats[0]) {
        return Err(format!("{name}: non-deterministic Stats across reps"));
    }
    cell.cycles = rep_stats[0].cycles;
    Ok(cell)
}
