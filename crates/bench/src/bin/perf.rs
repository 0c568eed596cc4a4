//! `perf` — the simulator's own performance benchmark and trajectory gate.
//!
//! Runs a pinned matrix (3 workloads × {RaCCD, FullCoh} × {plain,
//! profiled}, fixed machine config), takes the median of `--reps`
//! repetitions per job, and emits a versioned `BENCH_7.json` trajectory
//! point: throughput metrics (simulated cycles/sec, refs/sec, protocol
//! events/sec), the merged profiler span table, a snapshot-codec
//! microbench (encode/decode bytes/sec) and the measured profiler
//! overhead.
//!
//! Along the way the matrix double-checks a cardinal rule: every profiled
//! run must produce `Stats` bit-identical to its unprofiled twin (the
//! profiler reads only host clocks).
//!
//! ```text
//! perf [--scale test|bench|paper] [--reps N] [--out BENCH_7.json]
//!      [--compare [BASELINE]] [--candidate CAND]
//! ```
//!
//! `--compare` re-runs the matrix (or, with `--candidate`, reads a
//! previously emitted file) and gates it against the baseline document:
//! exit 0 clean, 1 when any job's median throughput dropped more than
//! 15 %, 2 on tool error (unreadable/malformed documents, determinism
//! violation). Regressions against a baseline recorded on a different
//! host fingerprint are downgraded to warnings — absolute throughput is
//! only comparable like-for-like. CI treats only exit 2 as hard failure
//! (soft perf gate).

use raccd_bench::perfjson::{
    compare, git_rev, host_fingerprint, BenchDoc, PerfJob, SCHEMA_VERSION,
};
use raccd_core::{CoherenceMode, Driver, Experiment, RunResult};
use raccd_obs::{render_metrics_table, RunMetrics};
use raccd_prof::ProfReport;
use raccd_sim::MachineConfig;
use raccd_snap::Snapshot;
use raccd_workloads::{all_benchmarks, Scale};
use std::time::Instant;

/// Pinned workload subset: indices into [`all_benchmarks`] (Jacobi,
/// Histo, MD5 — a stencil, a scatter, and a streaming kernel).
const WORKLOADS: [usize; 3] = [3, 2, 7];

/// Pinned systems under test.
const MODES: [(CoherenceMode, &str); 2] = [
    (CoherenceMode::Raccd, "raccd"),
    (CoherenceMode::FullCoh, "fullcoh"),
];

fn main() {
    std::process::exit(match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: error: {e}");
            2
        }
    });
}

struct Args {
    scale: Scale,
    reps: usize,
    out: String,
    baseline: Option<String>,
    candidate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        scale: Scale::Test,
        reps: 3,
        out: "BENCH_7.json".to_string(),
        baseline: None,
        candidate: None,
    };
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let v = value(&argv, i, "--scale")?;
                a.scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
                i += 2;
            }
            "--reps" => {
                a.reps = value(&argv, i, "--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if a.reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
                i += 2;
            }
            "--out" => {
                a.out = value(&argv, i, "--out")?;
                i += 2;
            }
            "--compare" => {
                // Optional value: default to the committed trajectory file.
                match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        a.baseline = Some(p.clone());
                        i += 2;
                    }
                    None => {
                        a.baseline = Some("BENCH_7.json".to_string());
                        i += 1;
                    }
                }
            }
            "--candidate" => {
                a.candidate = Some(value(&argv, i, "--candidate")?);
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;

    // Pure file-vs-file mode: no simulation, deterministic (used by CI
    // after the artifact is generated, and by tests).
    if let (Some(base), Some(cand)) = (&args.baseline, &args.candidate) {
        let baseline = load_doc(base)?;
        let candidate = load_doc(cand)?;
        return Ok(report_compare(&baseline, &candidate));
    }

    let doc = run_matrix(args.scale, args.reps)?;
    let text = doc.render();
    std::fs::write(&args.out, &text).map_err(|e| format!("writing {}: {e}", args.out))?;
    eprintln!("perf: wrote {} ({} jobs)", args.out, doc.jobs.len());

    println!("{}", render_metrics_table(&metric_rows(&doc)));
    println!(
        "profiler overhead: {:+.2}% (profiled vs plain median wall)",
        doc.prof_overhead_pct
    );
    println!("\nmerged span table:\n{}", doc.spans.render_table());

    if let Some(base) = &args.baseline {
        let baseline = load_doc(base)?;
        return Ok(report_compare(&baseline, &doc));
    }
    Ok(0)
}

fn load_doc(path: &str) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_rows(doc: &BenchDoc) -> Vec<RunMetrics> {
    doc.jobs.iter().map(|j| j.metrics.clone()).collect()
}

fn report_compare(baseline: &BenchDoc, candidate: &BenchDoc) -> i32 {
    let out = compare(baseline, candidate);
    println!(
        "perf compare: candidate {} vs baseline {} ({} jobs compared)",
        candidate.git_rev, baseline.git_rev, out.compared
    );
    for line in &out.lines {
        println!("{line}");
    }
    if out.clean() {
        println!("perf compare: clean (tolerance 15% on median cycles/sec)");
        0
    } else {
        println!(
            "perf compare: {} job(s) regressed beyond 15%",
            out.regressions
        );
        1
    }
}

/// One rep of one job; `profiled` also returns the span report.
fn run_once(
    scale: Scale,
    cfg: MachineConfig,
    bench_idx: usize,
    mode: CoherenceMode,
    profiled: bool,
) -> (f64, RunResult) {
    let workloads = all_benchmarks(scale);
    let w = workloads[bench_idx].as_ref();
    let exp = Experiment::new(cfg, mode);
    let t0 = Instant::now();
    let result = if profiled {
        exp.run_profiled(w)
    } else {
        exp.run(w)
    };
    (t0.elapsed().as_secs_f64(), result)
}

fn run_matrix(scale: Scale, reps: usize) -> Result<BenchDoc, String> {
    let cfg = MachineConfig::scaled();
    let scale_name = format!("{scale}");
    let names: Vec<String> = {
        let ws = all_benchmarks(scale);
        WORKLOADS
            .iter()
            .map(|&i| ws[i].name().to_string())
            .collect()
    };
    eprintln!(
        "perf: matrix {} workloads x {} modes x {{plain, prof}}, {} rep(s), scale {scale_name}",
        WORKLOADS.len(),
        MODES.len(),
        reps
    );

    let mut jobs = Vec::new();
    let mut spans = ProfReport::empty();
    let mut overhead_pcts = Vec::new();

    for (wi, &bench_idx) in WORKLOADS.iter().enumerate() {
        for (mode, mode_name) in MODES {
            let mut plain: Vec<(f64, RunResult)> = Vec::new();
            let mut prof: Vec<(f64, RunResult)> = Vec::new();
            for _ in 0..reps {
                plain.push(run_once(scale, cfg, bench_idx, mode, false));
            }
            for _ in 0..reps {
                prof.push(run_once(scale, cfg, bench_idx, mode, true));
            }

            // Determinism gate: every rep — profiled or not — must agree
            // on the simulated outcome bit for bit.
            let reference = &plain[0].1;
            if !reference.verified {
                return Err(format!(
                    "{}/{mode_name}: verification failed: {:?}",
                    names[wi], reference.verify_error
                ));
            }
            for (_, r) in plain.iter().chain(prof.iter()) {
                if r.stats != reference.stats {
                    return Err(format!(
                        "{}/{mode_name}: non-deterministic Stats across reps \
                         (profiler must not perturb simulation)",
                        names[wi]
                    ));
                }
            }

            let plain_med = median_rep(&plain);
            let prof_med = median_rep(&prof);
            overhead_pcts.push((prof_med.0 - plain_med.0) / plain_med.0 * 100.0);

            let base_name = format!("{}/{mode_name}", names[wi]);
            jobs.push(make_job(
                &base_name, &names[wi], mode_name, false, reps, plain_med,
            ));
            jobs.push(make_job(
                &format!("{base_name}/prof"),
                &names[wi],
                mode_name,
                true,
                reps,
                prof_med,
            ));
            for (_, r) in &prof {
                if let Some(p) = &r.prof {
                    spans.merge(p);
                }
            }
            eprintln!(
                "perf: {base_name:<16} wall {:.3}s plain / {:.3}s profiled",
                plain_med.0, prof_med.0,
            );
        }
    }

    let (snap_job, snap_spans) = snapshot_microbench(scale, cfg)?;
    jobs.push(snap_job);
    spans.merge(&snap_spans);

    let (host, ncpu) = host_fingerprint();
    Ok(BenchDoc {
        schema_version: SCHEMA_VERSION,
        git_rev: git_rev(std::path::Path::new(".")),
        host,
        ncpu,
        scale: scale_name,
        reps: reps as u64,
        prof_overhead_pct: mean(&overhead_pcts),
        jobs,
        spans,
    })
}

/// The rep with the median wall time (upper median for even rep counts).
fn median_rep(reps: &[(f64, RunResult)]) -> (f64, &RunResult) {
    let mut order: Vec<usize> = (0..reps.len()).collect();
    order.sort_by(|&a, &b| reps[a].0.total_cmp(&reps[b].0));
    let (wall, ref r) = reps[order[reps.len() / 2]];
    (wall, r)
}

fn make_job(
    name: &str,
    workload: &str,
    mode: &str,
    profiled: bool,
    reps: usize,
    (wall, result): (f64, &RunResult),
) -> PerfJob {
    let mut metrics = RunMetrics::from_stats(name, &result.stats, wall);
    if let Some(p) = &result.prof {
        metrics = metrics.with_prof(p);
    }
    PerfJob {
        name: name.to_string(),
        workload: workload.to_string(),
        mode: mode.to_string(),
        profiled,
        reps: reps as u64,
        metrics,
    }
}

/// Snapshot-codec microbench: advance a RaCCD Jacobi run to a mid-run
/// point, then encode/decode full snapshots a few times. The profiler's
/// `snap/encode` and `snap/decode` sites carry the payload bytes, so the
/// resulting job reports snapshot bytes/sec in both directions.
fn snapshot_microbench(scale: Scale, cfg: MachineConfig) -> Result<(PerfJob, ProfReport), String> {
    const JACOBI: usize = 3;
    const ROUNDS: usize = 4;
    let workloads = all_benchmarks(scale);
    let w = workloads[JACOBI].as_ref();

    let t0 = Instant::now();
    let mut driver = Driver::new(cfg, CoherenceMode::Raccd, w.build(), None, None);
    driver.attach_prof();
    for _ in 0..512 {
        if !driver.step(None) {
            break;
        }
    }
    let mut spans = ProfReport::empty();
    for _ in 0..ROUNDS {
        let s = driver.snapshot();
        let blob = s.to_bytes();
        let decoded =
            Snapshot::from_bytes(&blob).map_err(|e| format!("snapshot roundtrip: {e:?}"))?;
        let mut restored = Driver::restore(cfg, CoherenceMode::Raccd, w.build(), &decoded)
            .map_err(|e| format!("restore: {e:?}"))?;
        // Attaching the profiler credits the measured decode time.
        restored.attach_prof();
        if let Some(p) = restored.prof() {
            spans.merge(&p.report());
        }
    }
    if let Some(p) = driver.prof() {
        spans.merge(&p.report());
    }
    let wall = t0.elapsed().as_secs_f64();

    let metrics = RunMetrics {
        name: "snapshot-codec".to_string(),
        wall_seconds: wall,
        peak_rss_bytes: raccd_obs::peak_rss_bytes(),
        ..RunMetrics::default()
    }
    .with_prof(&spans);
    let enc = metrics
        .snap_encode_bytes_per_sec()
        .ok_or("snapshot microbench recorded no encode throughput")?;
    let dec = metrics
        .snap_decode_bytes_per_sec()
        .ok_or("snapshot microbench recorded no decode throughput")?;
    eprintln!(
        "perf: snapshot-codec    encode {}B/s decode {}B/s ({} bytes/round)",
        raccd_prof::fmt_si(enc),
        raccd_prof::fmt_si(dec),
        metrics.snap_encode_bytes / ROUNDS as u64,
    );
    Ok((
        PerfJob {
            name: "snapshot-codec".to_string(),
            workload: w.name().to_string(),
            mode: "raccd".to_string(),
            profiled: true,
            reps: ROUNDS as u64,
            metrics,
        },
        spans,
    ))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}
