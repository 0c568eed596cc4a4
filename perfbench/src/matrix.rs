//! `dirsweep` and `compute`: matrices of bench-scale simulations on
//! `MachineConfig::scaled()`, caches cold at the start of every job, each
//! job driven through `Workload::build`, `Driver::{new,step,finish}` and
//! `Workload::verify` on the serial engine.

use crate::trace::{Trace, TraceLog, Tracer};
use crate::{fan_out, median, repeat, Args, Outcome, MODE_KEYS, PER_MODE};
use raccd_core::{CoherenceMode, Driver};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, Stats, DIR_RATIOS};
use raccd_workloads::{histo, jacobi, jpeg, knn, md5, redblack, Scale};
use std::time::Instant;

/// The Figure 7 rows the default seed must reproduce, from the committed
/// figure output.
const FIG7: &str = include_str!("../../results/fig7.txt");

/// One simulation of a matrix.
#[derive(Clone, Copy)]
struct Cell {
    bench: &'static str,
    mode: CoherenceMode,
    ratio: usize,
}

/// The benchmark seed moves each workload's built-in seed; the default
/// seed leaves it unchanged.
fn mix(builtin: u64, seed: u64) -> u64 {
    builtin.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A bench-scale workload with its input seed set from `seed`.
fn workload(bench: &str, seed: u64) -> Box<dyn Workload> {
    let s = Scale::Bench;
    macro_rules! seeded {
        ($w:expr) => {{
            let mut w = $w;
            w.seed = mix(w.seed, seed);
            Box::new(w)
        }};
    }
    match bench {
        "Jacobi" => seeded!(jacobi::Jacobi::new(s)),
        "Histo" => seeded!(histo::Histo::new(s)),
        "RedBlack" => seeded!(redblack::RedBlack::new(s)),
        "MD5" => seeded!(md5::Md5Bench::new(s)),
        "KNN" => seeded!(knn::Knn::new(s)),
        "JPEG" => seeded!(jpeg::Jpeg::new(s)),
        other => unreachable!("no workload {other}"),
    }
}

/// What one job measured.
struct JobOut {
    stats: Stats,
    tasks: usize,
    edges: usize,
    verify: Result<(), String>,
    build_s: f64,
    new_s: f64,
    step_s: f64,
    job_s: f64,
    steps: u64,
    heap_bytes: u64,
}

/// Build, simulate and verify one cell, each public call in its own span.
fn run_job(cell: Cell, seed: u64, tr: &mut Tracer, job: u64) -> JobOut {
    let root = tr.enter("job", job);
    let w = workload(cell.bench, seed);
    let cfg = MachineConfig::scaled().with_dir_ratio(cell.ratio);
    let m = tr.enter("Workload::build", job);
    let program = w.build();
    let build_s = tr.exit(m);
    let heap_bytes = program.mem.footprint();
    let m = tr.enter("Driver::new", job);
    let mut driver = Driver::new(cfg, cell.mode, program, None, None);
    let new_s = tr.exit(m);
    let m = tr.enter("Driver::step", job);
    let mut steps = 1;
    while driver.step(None) {
        steps += 1;
    }
    let step_s = tr.exit(m);
    let m = tr.enter("Driver::finish", job);
    let out = driver.finish(None);
    tr.exit(m);
    let m = tr.enter("Workload::verify", job);
    let verify = w.verify(&out.mem);
    tr.exit(m);
    let res = JobOut {
        stats: out.stats,
        tasks: out.tasks,
        edges: out.edges,
        verify,
        build_s,
        new_s,
        step_s,
        job_s: 0.0,
        steps,
        heap_bytes,
    };
    drop(out.mem);
    JobOut {
        job_s: tr.exit(root),
        ..res
    }
}

/// The per-mode machine counters, in [`PER_MODE`] order.
pub fn counters(s: &Stats) -> [u64; 17] {
    [
        s.tlb_hits,
        s.tlb_misses,
        s.l1_hits,
        s.l1_misses,
        s.l1_writebacks,
        s.llc_hits,
        s.llc_misses,
        s.llc_inclusion_invalidations,
        s.dir_accesses,
        s.dir_allocations,
        s.dir_evictions,
        s.invalidations_sent,
        s.coherent_fills,
        s.nc_fills,
        s.bank_wait_cycles,
        s.noc_flits,
        s.noc_traffic,
    ]
}

/// Index of a mode in [`MODE_KEYS`].
pub fn mode_key(mode: CoherenceMode) -> usize {
    match mode {
        CoherenceMode::FullCoh => 0,
        CoherenceMode::PageTable => 1,
        _ => 2,
    }
}

/// FNV-1a-64 over the full snapshot encoding of `Stats`: every counter,
/// histogram and float the run produced.
pub fn stats_digest(s: &Stats) -> u64 {
    use raccd_snap::Snap;
    let mut w = raccd_snap::SnapWriter::new();
    s.save(&mut w);
    raccd_campaign::fnv1a64(&w.into_bytes())
}

/// Record the counters every simulating workload reports per layer:
/// totals over `stats` plus the per-mode machine counters.
pub fn set_sim_counters(out: &mut Outcome, runs: &[(CoherenceMode, &Stats)]) {
    let mut per_mode = [[0u64; 17]; 3];
    let sum = |f: fn(&Stats) -> u64| runs.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    for (mode, s) in runs {
        for (acc, v) in per_mode[mode_key(*mode)].iter_mut().zip(counters(s)) {
            *acc += v;
        }
    }
    for (m, key) in MODE_KEYS.iter().enumerate() {
        for (name, v) in PER_MODE.iter().zip(per_mode[m]) {
            out.set(&format!("{name}.{key}"), v as f64);
        }
    }
    out.set("runtime.refs", sum(|s| s.refs_processed));
    out.set("core.register_cycles", sum(|s| s.register_cycles));
    out.set("core.invalidate_cycles", sum(|s| s.invalidate_cycles));
    out.set("core.nc_lines_flushed", sum(|s| s.nc_lines_flushed));
    out.set("core.ncrt_overflows", sum(|s| s.ncrt_overflows));
    out.set(
        "core.pt_shared_transitions",
        sum(|s| s.pt_shared_transitions),
    );
    out.set("core.pt_flush_lines", sum(|s| s.pt_flush_lines));
    out.set("sched.popped", sum(|s| s.sched_popped));
    out.set("sched.steals", sum(|s| s.sched_steals));
    out.set("sched.task_migrations", sum(|s| s.task_migrations));
    out.set("sched.ncrt_migrations", sum(|s| s.ncrt_migrations));
    out.set("sched.preemptions", sum(|s| s.preemptions));
}

/// `dirsweep`: {Jacobi, Histo, RedBlack} × {FullCoh, PT, RaCCD} × every
/// ratio of `DIR_RATIOS` — the Figure 7 matrix.
pub fn dirsweep(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut cells = Vec::new();
    for bench in ["Jacobi", "Histo", "RedBlack"] {
        for mode in CoherenceMode::ALL {
            for ratio in DIR_RATIOS {
                cells.push(Cell { bench, mode, ratio });
            }
        }
    }
    run_matrix(args, out, &cells)
}

/// `compute`: {MD5, KNN, JPEG} × {FullCoh, RaCCD} at the default 1:1
/// directory — workloads-layer heavy jobs.
pub fn compute(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut cells = Vec::new();
    for bench in ["MD5", "KNN", "JPEG"] {
        for mode in [CoherenceMode::FullCoh, CoherenceMode::Raccd] {
            cells.push(Cell {
                bench,
                mode,
                ratio: 1,
            });
        }
    }
    run_matrix(args, out, &cells)
}

/// Per-layer values of one traced round, by metric name.
type Layered = Vec<(String, f64)>;

fn run_matrix(args: &Args, out: &mut Outcome, cells: &[Cell]) -> Result<(), String> {
    let n = cells.len();
    let origin = Instant::now();
    let mut first: Option<Vec<JobOut>> = None;
    // Per cell, its job times over the untraced rounds; per round, the
    // round's set-up time.
    let mut job_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut layered: Vec<Layered> = Vec::new();
    let mut log = TraceLog::default();
    repeat(args.seconds, args.trace, |round, traced| {
        let mut rtrace = Trace::default();
        let t = Instant::now();
        let jobs = fan_out(n, traced, origin, &mut rtrace, |tr, i| {
            run_job(cells[i], args.seed, tr, (round * n + i) as u64)
        });
        let wall = t.elapsed().as_secs_f64();
        for (c, j) in cells.iter().zip(&jobs) {
            out.check(j.verify.is_ok(), || {
                format!(
                    "{} {} 1:{} verification: {:?}",
                    c.bench, c.mode, c.ratio, j.verify
                )
            });
        }
        match &first {
            None => {
                for (c, j) in cells.iter().zip(&jobs) {
                    println!(
                        "job {}/{}/1:{} tasks={} cycles={} refs={} stats={:016x}",
                        c.bench,
                        c.mode,
                        c.ratio,
                        j.tasks,
                        j.stats.cycles,
                        j.stats.refs_processed,
                        stats_digest(&j.stats)
                    );
                }
            }
            Some(f) => {
                for ((c, a), b) in cells.iter().zip(f).zip(&jobs) {
                    out.check(a.stats == b.stats, || {
                        format!(
                            "{} {} 1:{}: Stats differ between rounds",
                            c.bench, c.mode, c.ratio
                        )
                    });
                }
            }
        }
        if traced {
            layered.push(layer_values(
                cells,
                &jobs,
                &rtrace,
                args.seed,
                origin,
                &mut log.probes,
            ));
        } else {
            walls.push(wall);
            setups.push(jobs.iter().map(|j| j.build_s + j.new_s).sum::<f64>());
            for (t, j) in job_s.iter_mut().zip(&jobs) {
                t.push(j.job_s);
            }
        }
        log.round(round, traced, wall, rtrace);
        if first.is_none() {
            first = Some(jobs);
        }
        Ok(())
    })?;
    let jobs = first.expect("at least one round ran");
    if args.seed == crate::DEFAULT_SEED && cells.iter().any(|c| c.ratio != 1) {
        check_fig7(out, cells, &jobs);
    }
    if args.trace {
        // Every traced round simulated the same jobs: counts agree, and
        // times are taken as the median over rounds.
        for (k, (name, _)) in layered[0].iter().enumerate() {
            let v: Vec<f64> = layered.iter().map(|l| l[k].1).collect();
            out.set(name, median(&v));
        }
        let runs: Vec<(CoherenceMode, &Stats)> = cells
            .iter()
            .zip(&jobs)
            .map(|(c, j)| (c.mode, &j.stats))
            .collect();
        set_sim_counters(out, &runs);
        out.set("runtime.tasks", jobs.iter().map(|j| j.tasks as f64).sum());
        out.set("runtime.edges", jobs.iter().map(|j| j.edges as f64).sum());
        out.set(
            "workloads.sim_heap_bytes",
            jobs.iter().map(|j| j.heap_bytes as f64).sum(),
        );
        log.finish(args, out);
    } else {
        // Each job at its median over the rounds, summed.
        let wall: f64 = job_s.iter().map(|t| median(t)).sum();
        let refs: u64 = jobs.iter().map(|j| j.stats.refs_processed).sum();
        out.set("wall_s", wall);
        out.set("setup_s", median(&setups));
        out.set("refs_per_s", refs as f64 / wall);
        out.set("jobs_per_s", n as f64 / wall);
        out.set(
            "sim_cycles",
            jobs.iter().map(|j| j.stats.cycles as f64).sum(),
        );
        println!(
            "rounds: {} untraced of {:.3} s median on {} threads; job seconds {wall:.4}",
            walls.len(),
            median(&walls),
            crate::nproc().min(n)
        );
    }
    Ok(())
}

/// Layer times and allocation counts of one traced round, plus the
/// body-time probe: each job's program built again and run functionally
/// (`Program::run_functional`), outside the round's wall time.
fn layer_values(
    cells: &[Cell],
    jobs: &[JobOut],
    rtrace: &Trace,
    seed: u64,
    origin: Instant,
    probes: &mut Trace,
) -> Layered {
    let bodies = fan_out(cells.len(), true, origin, probes, |tr, i| {
        let root = tr.enter("probe", i as u64);
        let mut twin = workload(cells[i].bench, seed).build();
        let m = tr.enter("Program::run_functional", i as u64);
        twin.run_functional();
        let body = tr.exit(m);
        drop(twin);
        tr.exit(root);
        body
    });
    let mut l = Layered::new();
    let mut put = |k: &str, v: f64| l.push((k.to_string(), v));
    put("workloads.build_s", rtrace.secs("Workload::build"));
    put("workloads.body_s", bodies.iter().sum());
    put("workloads.verify_s", rtrace.secs("Workload::verify"));
    put(
        "workloads.build_allocs",
        rtrace.allocs("Workload::build") as f64,
    );
    put("core.new_s", rtrace.secs("Driver::new"));
    put("core.step_s", rtrace.secs("Driver::step"));
    put("core.finish_s", rtrace.secs("Driver::finish"));
    let refs: u64 = jobs.iter().map(|j| j.stats.refs_processed).sum();
    put(
        "core.step_allocs_per_kref",
        rtrace.allocs("Driver::step") as f64 / (refs as f64 / 1e3),
    );
    for (m, key) in MODE_KEYS.iter().enumerate() {
        let (mut step, mut body, mut mrefs) = (0.0, 0.0, 0u64);
        for ((c, j), b) in cells.iter().zip(jobs).zip(&bodies) {
            if mode_key(c.mode) == m {
                step += j.step_s;
                body += b;
                mrefs += j.stats.refs_processed;
            }
        }
        if mrefs > 0 {
            put(
                &format!("core.model_ns_per_ref.{key}"),
                (step - body) / mrefs as f64 * 1e9,
            );
        }
    }
    put("core.steps", jobs.iter().map(|j| j.steps as f64).sum());
    l
}

/// At the default seed, the Jacobi, Histo and RedBlack rows of Figure 7a
/// (directory accesses normalised to FullCoh 1:1, 3 decimals) must match
/// the committed `results/fig7.txt` exactly.
fn check_fig7(out: &mut Outcome, cells: &[Cell], jobs: &[JobOut]) {
    let section: Vec<&str> = FIG7
        .split("\n\n")
        .find(|s| s.starts_with("# Figure 7a"))
        .map(|s| s.lines().collect())
        .unwrap_or_default();
    let access = |bench: &str, mode: CoherenceMode, ratio: usize| {
        cells
            .iter()
            .zip(jobs)
            .find(|(c, _)| c.bench == bench && c.mode == mode && c.ratio == ratio)
            .map(|(_, j)| j.stats.dir_accesses as f64)
            .expect("every fig7 cell ran")
    };
    for bench in ["Jacobi", "Histo", "RedBlack"] {
        let base = access(bench, CoherenceMode::FullCoh, 1).max(1e-12);
        for mode in CoherenceMode::ALL {
            let mut row = vec![format!("{bench}/{mode}")];
            for r in DIR_RATIOS {
                row.push(format!("{:.3}", (access(bench, mode, r) / base).max(0.0)));
            }
            let row = row.join("\t");
            let want = section
                .iter()
                .find(|l| l.starts_with(&format!("{bench}/{mode}\t")));
            out.check(want == Some(&row.as_str()), || {
                format!("fig7 row differs:\n  got  {row}\n  want {want:?}")
            });
        }
    }
}
