#![warn(missing_docs)]

//! Shared harness for the figure/table regeneration binaries.
//!
//! The evaluation matrix (9 benchmarks × 3 systems × 7 directory sizes) is
//! embarrassingly parallel across *simulations*, so [`run_jobs`] fans jobs
//! out over the campaign worker pool ([`raccd_campaign::WorkerPool`] —
//! each worker builds its own workload instance; simulations never share
//! state). A job that panics (verification failure, simulator bug) is
//! captured by the pool with its job spec attached and re-raised here with
//! that context, instead of surfacing as an unrelated poisoned-mutex
//! panic in the collector.

pub mod chart;

use raccd_campaign::{PoolTask, WorkerPool};
use raccd_core::{CoherenceMode, Experiment, RunResult};
use raccd_obs::{Recorder, RecorderConfig, RunMetrics};
use raccd_sim::{MachineConfig, ProtocolKind, SchedKind, Topology};
use raccd_workloads::{all_benchmarks, Scale};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One simulation to run.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into [`all_benchmarks`].
    pub bench_idx: usize,
    /// System under test.
    pub mode: CoherenceMode,
    /// Directory ratio `1:N`.
    pub ratio: usize,
    /// Enable Adaptive Directory Reduction.
    pub adr: bool,
}

/// A completed simulation.
pub struct JobResult {
    /// The job that produced this result.
    pub job: Job,
    /// Benchmark name.
    pub name: String,
    /// Full run result.
    pub result: RunResult,
    /// Host wall-clock seconds this job took (simulation, plus artifact
    /// writing when telemetry capture is enabled).
    pub wall_seconds: f64,
}

/// Benchmark names at a scale, in paper order.
pub fn bench_names(scale: Scale) -> Vec<String> {
    all_benchmarks(scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

/// Run all jobs across host threads; results are returned in job order.
pub fn run_jobs(scale: Scale, base_cfg: MachineConfig, jobs: &[Job]) -> Vec<JobResult> {
    run_jobs_with_telemetry(scale, base_cfg, jobs, None)
}

/// [`run_jobs`] with optional telemetry capture: with `Some(dir)` each job
/// runs with a [`Recorder`] attached and writes the standard artifact set
/// (`trace.json`, `events.jsonl`, `series.csv`, `histograms.txt`) into
/// `dir/<bench>_<mode>_1-<ratio>[_adr]/`.
pub fn run_jobs_with_telemetry(
    scale: Scale,
    base_cfg: MachineConfig,
    jobs: &[Job],
    telemetry: Option<&Path>,
) -> Vec<JobResult> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let pool = WorkerPool::new(threads, jobs.len().max(1));
    // Per-slot locks instead of one collector mutex: a panicking job can
    // never poison a sibling's result, and the pool reports the panic with
    // the job spec attached below.
    let slots: Arc<Vec<Mutex<Option<JobResult>>>> =
        Arc::new((0..jobs.len()).map(|_| Mutex::new(None)).collect());
    let names = bench_names(scale);
    let telemetry: Option<PathBuf> = telemetry.map(Path::to_path_buf);

    let tasks: Vec<PoolTask> = jobs
        .iter()
        .enumerate()
        .map(|(i, &job)| {
            let slots = Arc::clone(&slots);
            let telemetry = telemetry.clone();
            let label = format!(
                "{} [{} 1:{}{}]",
                names[job.bench_idx],
                job.mode,
                job.ratio,
                if job.adr { " adr" } else { "" },
            );
            PoolTask {
                label,
                run: Box::new(move |_| {
                    let out = run_one_job(scale, base_cfg, job, telemetry.as_deref());
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }),
            }
        })
        .collect();
    let panics = pool.run_batch(tasks);
    if !panics.is_empty() {
        let lines: Vec<String> = panics
            .iter()
            .map(|(label, msg)| format!("  {label}: {msg}"))
            .collect();
        panic!(
            "{} of {} jobs failed:\n{}",
            panics.len(),
            jobs.len(),
            lines.join("\n")
        );
    }
    drop(pool);
    Arc::try_unwrap(slots)
        .unwrap_or_else(|_| panic!("pool drained but slot refs remain"))
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("job not run")
        })
        .collect()
}

/// Simulate one job (with optional telemetry capture) and verify it.
fn run_one_job(
    scale: Scale,
    base_cfg: MachineConfig,
    job: Job,
    telemetry: Option<&Path>,
) -> JobResult {
    let workloads = all_benchmarks(scale);
    let w = &workloads[job.bench_idx];
    let mut cfg = base_cfg.with_dir_ratio(job.ratio).with_adr(job.adr);
    let t0 = std::time::Instant::now();
    let result = match telemetry {
        None => Experiment::new(cfg, job.mode).run(w.as_ref()),
        Some(dir) => {
            cfg.record_events = true;
            let mut rec = Recorder::new(RecorderConfig::default());
            let result =
                Experiment::new(cfg, job.mode).run_with_recorder(w.as_ref(), Some(&mut rec));
            let sub = dir.join(telemetry_run_name(w.name(), job));
            write_telemetry(&rec, &sub)
                .unwrap_or_else(|e| panic!("writing telemetry to {}: {e}", sub.display()));
            result
        }
    };
    assert!(
        result.verified,
        "{} [{} 1:{}] failed verification: {:?}",
        w.name(),
        job.mode,
        job.ratio,
        result.verify_error
    );
    JobResult {
        job,
        name: w.name().to_string(),
        result,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// The shared preamble of every figure binary: build the benchmark ×
/// (mode, adr) × ratio job matrix in paper order, announce it on stderr as
/// `tag: running N simulations...`, fan out over host threads and report
/// the wall-clock. Results come back in job order (ratio fastest-varying,
/// benchmark slowest), so `results.chunks(modes.len() * ratios.len())`
/// groups per benchmark.
pub fn run_matrix(
    tag: &str,
    scale: Scale,
    base_cfg: MachineConfig,
    nbench: usize,
    modes: &[(CoherenceMode, bool)],
    ratios: &[usize],
) -> Vec<JobResult> {
    let mut jobs = Vec::with_capacity(nbench * modes.len() * ratios.len());
    for b in 0..nbench {
        for &(mode, adr) in modes {
            for &ratio in ratios {
                jobs.push(Job {
                    bench_idx: b,
                    mode,
                    ratio,
                    adr,
                });
            }
        }
    }
    eprintln!(
        "{tag}: running {} simulations at scale {scale} ({} protocol, {} topology)...",
        jobs.len(),
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
    );
    // Machine-variant header into the figure's stdout so `results/*.txt`
    // records which protocol/topology produced the numbers; `#`-prefixed
    // so data consumers skip it like the perf summary line.
    println!(
        "# machine: protocol={} topology={} sched={} ncores={}",
        base_cfg.protocol.label(),
        base_cfg.topology.label(),
        base_cfg.sched.label(),
        base_cfg.ncores,
    );
    let t0 = std::time::Instant::now();
    let results = run_jobs(scale, base_cfg, &jobs);
    let m = matrix_metrics(tag, &results, t0.elapsed().as_secs_f64());
    eprintln!(
        "{tag}: done in {:.1}s ({} simulated cycles/s)",
        m.wall_seconds,
        raccd_prof::fmt_si(m.cycles_per_sec())
    );
    // One machine-readable perf line into the figure's stdout (and thus
    // `results/*.txt`); `#`-prefixed so data consumers skip it.
    println!("{}", m.summary_line());
    results
}

/// Aggregate a job batch into one [`RunMetrics`]: counters sum across
/// jobs, the wall time is the batch's (jobs run concurrently, so the
/// rates report whole-matrix host throughput).
pub fn matrix_metrics(tag: &str, results: &[JobResult], wall_seconds: f64) -> RunMetrics {
    let mut stats = raccd_sim::Stats::default();
    for r in results {
        stats.cycles += r.result.stats.cycles;
        stats.refs_processed += r.result.stats.refs_processed;
        stats.noc_traffic += r.result.stats.noc_traffic;
        stats.tasks_executed += r.result.stats.tasks_executed;
    }
    RunMetrics::from_stats(tag, &stats, wall_seconds)
}

/// Deterministic FNV-1a checksum over a job batch's protocol-visible
/// counters, folded in job order. The fig7 golden test pins its value for
/// the test-scale Figure 7 sweep.
pub fn sweep_checksum(results: &[JobResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in results {
        let s = &r.result.stats;
        for v in [
            s.cycles,
            s.l1_hits,
            s.l1_misses,
            s.tlb_hits,
            s.tlb_misses,
            s.dir_accesses,
            s.llc_hits,
            s.llc_misses,
            s.invalidations_sent,
            s.nc_fills,
            s.coherent_fills,
            s.noc_traffic,
            s.mem_reads,
            s.mem_writes,
            s.tasks_executed,
            s.refs_processed,
        ] {
            fold(v);
        }
    }
    h
}

/// Artifact subdirectory name for one job's telemetry.
pub fn telemetry_run_name(bench: &str, job: Job) -> String {
    format!(
        "{}_{}_1-{}{}",
        bench,
        job.mode,
        job.ratio,
        if job.adr { "_adr" } else { "" }
    )
}

/// Parse `--telemetry <dir>` from argv.
pub fn telemetry_dir_from_args(args: &[String]) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// Write a finished recorder's full artifact set into `dir` (created if
/// missing): Perfetto-loadable `trace.json`, `events.jsonl`, `series.csv`,
/// and `histograms.txt`.
pub fn write_telemetry(rec: &Recorder, dir: &Path) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let file = |name: &str| -> std::io::Result<std::io::BufWriter<std::fs::File>> {
        Ok(std::io::BufWriter::new(std::fs::File::create(
            dir.join(name),
        )?))
    };
    let mut w = file("trace.json")?;
    raccd_obs::write_chrome_trace(rec, &mut w)?;
    w.flush()?;
    let mut w = file("events.jsonl")?;
    raccd_obs::write_events_jsonl(rec.names(), rec.events(), &mut w)?;
    w.flush()?;
    let mut w = file("series.csv")?;
    raccd_obs::write_series_csv(rec.samples(), &mut w)?;
    w.flush()?;
    let mut w = file("histograms.txt")?;
    raccd_obs::write_histograms(rec, &mut w)?;
    w.flush()
}

/// The value following `flag` in argv, parsed by `parse`; `default` when
/// the flag is absent. A missing or unknown value is an error naming the
/// accepted `choices`.
fn flag<T>(
    args: &[String],
    flag: &str,
    choices: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let val = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag}: missing value ({choices})"))?;
    parse(val).ok_or_else(|| format!("{flag}: unknown value `{val}` ({choices})"))
}

/// Unwrap a CLI parse result, or print the error on stderr and exit with
/// status 2 (bad usage).
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parse `--scale test|bench|paper` from argv (default: bench).
pub fn scale_from_args(args: &[String]) -> Scale {
    or_exit(flag(
        args,
        "--scale",
        "test|bench|paper",
        Scale::Bench,
        Scale::parse,
    ))
}

/// Machine preset matching a scale: `paper` scale → Table I machine,
/// otherwise the proportionally scaled machine.
pub fn config_for_scale(scale: Scale) -> MachineConfig {
    match scale {
        Scale::Paper => MachineConfig::paper(),
        _ => MachineConfig::scaled(),
    }
}

/// Parse `--protocol mesi|mesif|moesi` from argv (default: mesi).
pub fn protocol_from_args(args: &[String]) -> ProtocolKind {
    or_exit(flag(
        args,
        "--protocol",
        "mesi|mesif|moesi",
        ProtocolKind::Mesi,
        ProtocolKind::parse,
    ))
}

/// Parse `--topology mesh|numa2` from argv (default: mesh).
pub fn topology_from_args(args: &[String]) -> Topology {
    or_exit(flag(
        args,
        "--topology",
        "mesh|numa2",
        Topology::Mesh,
        Topology::parse,
    ))
}

/// Parse `--sched fifo|steal|priority|locality|quantum` from argv
/// (default: fifo, the paper's central ready queue).
pub fn sched_from_args(args: &[String]) -> SchedKind {
    or_exit(flag(
        args,
        "--sched",
        "fifo|steal|priority|locality|quantum",
        SchedKind::Fifo,
        SchedKind::parse,
    ))
}

/// [`config_for_scale`] plus the `--protocol`/`--topology`/`--sched` CLI
/// overrides — the standard machine preamble of every figure binary. A
/// `numa2` topology doubles `ncores` (two sockets of the scale's mesh).
pub fn config_from_args(scale: Scale, args: &[String]) -> MachineConfig {
    config_for_scale(scale)
        .with_protocol(protocol_from_args(args))
        .with_topology(topology_from_args(args))
        .with_sched(sched_from_args(args))
}

/// Format a TSV row.
pub fn tsv_row(cells: &[String]) -> String {
    cells.join("\t")
}

/// Geometric mean of positive values.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn scale_parsing() {
        let args = |s: &str| vec!["--scale".to_string(), s.to_string()];
        assert_eq!(scale_from_args(&args("test")), Scale::Test);
        assert_eq!(scale_from_args(&args("paper")), Scale::Paper);
        assert_eq!(scale_from_args(&args("bench")), Scale::Bench);
        assert_eq!(scale_from_args(&[]), Scale::Bench);
    }

    #[test]
    fn unknown_or_missing_scale_is_rejected() {
        let scale = |argv: &[&str]| {
            let args: Vec<String> = argv.iter().map(|x| x.to_string()).collect();
            flag(
                &args,
                "--scale",
                "test|bench|paper",
                Scale::Bench,
                Scale::parse,
            )
        };
        for bad in ["tset", "Test", "full", ""] {
            let err = scale(&["--scale", bad]).unwrap_err();
            assert!(err.contains(&format!("unknown value `{bad}`")), "{err}");
        }
        assert!(scale(&["--scale"]).unwrap_err().contains("missing value"));
        assert_eq!(scale(&["--ratios", "1"]), Ok(Scale::Bench));
    }

    #[test]
    fn protocol_and_topology_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(protocol_from_args(&args(&[])), ProtocolKind::Mesi);
        assert_eq!(
            protocol_from_args(&args(&["--protocol", "mesif"])),
            ProtocolKind::Mesif
        );
        assert_eq!(
            protocol_from_args(&args(&["--protocol", "MOESI"])),
            ProtocolKind::Moesi
        );
        assert_eq!(topology_from_args(&args(&[])), Topology::Mesh);
        assert_eq!(
            topology_from_args(&args(&["--topology", "numa2"])),
            Topology::Numa2
        );
        let cfg = config_from_args(
            Scale::Test,
            &args(&["--protocol", "moesi", "--topology", "numa2"]),
        );
        assert_eq!(cfg.protocol, ProtocolKind::Moesi);
        assert_eq!(cfg.topology, Topology::Numa2);
        assert_eq!(cfg.ncores, 2 * cfg.mesh_k * cfg.mesh_k);
    }

    #[test]
    fn sched_parsing() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(sched_from_args(&args(&[])), SchedKind::Fifo);
        assert_eq!(
            sched_from_args(&args(&["--sched", "locality"])),
            SchedKind::Locality
        );
        assert_eq!(
            sched_from_args(&args(&["--sched", "QUANTUM"])),
            SchedKind::Quantum
        );
        let cfg = config_from_args(Scale::Test, &args(&["--sched", "steal"]));
        assert_eq!(cfg.sched, SchedKind::Steal);
    }

    #[test]
    fn run_jobs_returns_in_order() {
        let jobs = [
            Job {
                bench_idx: 7, // MD5 (cheap at Test scale)
                mode: CoherenceMode::FullCoh,
                ratio: 1,
                adr: false,
            },
            Job {
                bench_idx: 7,
                mode: CoherenceMode::Raccd,
                ratio: 4,
                adr: false,
            },
        ];
        let out = run_jobs(Scale::Test, MachineConfig::scaled(), &jobs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].job.ratio, 1);
        assert_eq!(out[1].job.ratio, 4);
        assert_eq!(out[0].name, "MD5");
        assert!(out[1].result.stats.cycles > 0);
    }
}
