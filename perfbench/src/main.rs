//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dirsweep|compute|campaign|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload's fixed work back to back for about `S`
//! seconds (at least three times), checks every output, and prints as its last
//! line one JSON object: `correct`, `attempted` and `failed` checks, and
//! the metrics — the end-to-end set with `--trace 0`, the per-layer set
//! with `--trace 1`. Everything is measured from outside, by timing the
//! public calls into each crate; `perfbench/README.md` defines every
//! metric and why each workload is there.

mod alloc;
mod campaign;
mod explore;
mod matrix;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Trace, Tracer};

/// Where a run keeps its scratch files and span dumps: `.perfbench/`
/// under the directory it runs from.
pub fn work_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".perfbench")
}

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed at which every workload keeps its built-in inputs.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics: name and unit (`BENCHMARK.json` `end_to_end`).
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("refs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("pass_ratio", "ratio"),
];

/// Coherence modes as they suffix per-mode metric names.
pub const MODE_KEYS: [&str; 3] = ["fullcoh", "pt", "raccd"];

/// Per-mode machine counters, in [`matrix::counters`] order.
pub const PER_MODE: [&str; 17] = [
    "mem.tlb_hits",
    "mem.tlb_misses",
    "cache.l1_hits",
    "cache.l1_misses",
    "cache.l1_writebacks",
    "cache.llc_hits",
    "cache.llc_misses",
    "cache.llc_inclusion_invalidations",
    "protocol.dir_accesses",
    "protocol.dir_allocations",
    "protocol.dir_evictions",
    "protocol.invalidations_sent",
    "protocol.coherent_fills",
    "protocol.nc_fills",
    "protocol.bank_wait_cycles",
    "noc.flits",
    "noc.traffic",
];

/// Per-layer metrics other than the per-mode ones: name and unit.
const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.build_s", "s"),
    ("workloads.body_s", "s"),
    ("workloads.verify_s", "s"),
    ("workloads.sim_heap_bytes", "bytes"),
    ("workloads.build_allocs", "count"),
    ("workloads.self_s", "s"),
    ("runtime.tasks", "count"),
    ("runtime.edges", "count"),
    ("runtime.refs", "count"),
    ("core.new_s", "s"),
    ("core.step_s", "s"),
    ("core.steps", "count"),
    ("core.finish_s", "s"),
    ("core.step_allocs_per_kref", "count/kref"),
    ("core.register_cycles", "cycles"),
    ("core.invalidate_cycles", "cycles"),
    ("core.nc_lines_flushed", "count"),
    ("core.ncrt_overflows", "count"),
    ("core.pt_shared_transitions", "count"),
    ("core.pt_flush_lines", "count"),
    ("core.self_s", "s"),
    ("sched.popped", "count"),
    ("sched.steals", "count"),
    ("sched.task_migrations", "count"),
    ("sched.ncrt_migrations", "count"),
    ("sched.preemptions", "count"),
    ("snap.restore_s", "s"),
    ("snap.capture_s", "s"),
    ("snap.encode_s", "s"),
    ("snap.decode_s", "s"),
    ("snap.bytes", "bytes"),
    ("snap.self_s", "s"),
    ("campaign.open_s", "s"),
    ("campaign.submit_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.reconcile_s", "s"),
    ("campaign.executions", "count"),
    ("campaign.retries", "count"),
    ("campaign.ledger_bytes", "bytes"),
    ("campaign.dedup_ratio", "ratio"),
    ("campaign.snap_hit_ratio", "ratio"),
    ("campaign.self_s", "s"),
    ("check.states", "count"),
    ("check.ops_applied", "count"),
    ("check.ops_per_state", "ratio"),
    ("check.explore_s", "s"),
    ("check.self_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
];

/// Every per-layer metric name with its unit, per-mode ones included.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for m in MODE_KEYS {
        v.push((format!("core.model_ns_per_ref.{m}"), "ns"));
        for n in PER_MODE {
            let unit = if n.ends_with("cycles") {
                "cycles"
            } else {
                "count"
            };
            v.push((format!("{n}.{m}"), unit));
        }
    }
    v
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Checks made and metrics measured by one run.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one correctness check; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Record a metric value by name.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `round(i, traced)` back to back for about `seconds`: at least
/// three times, so a median over rounds outvotes the process's cold first
/// round, and no further round once the median round so far would end
/// past the budget. With `trace` on, rounds alternate untraced, traced,
/// untraced, ...
pub fn repeat(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let i = walls.len();
        let t = Instant::now();
        round(i, trace && i % 2 == 1)?;
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= 3 && start.elapsed().as_secs_f64() + median(&walls) > seconds {
            return Ok(());
        }
    }
}

/// Host threads the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `job(tracer, i)` for every `i < n` over at most `nproc` scoped
/// threads, thread `t` taking `t`, `t + threads`, ..., so every round
/// runs the same jobs on the same threads. Results come back in index
/// order, with every thread's spans merged into `trace`.
pub fn fan_out<T: Send>(
    n: usize,
    traced: bool,
    origin: Instant,
    trace: &mut Trace,
    job: impl Fn(&mut Tracer, usize) -> T + Sync,
) -> Vec<T> {
    let threads = nproc().min(n).max(1);
    let per_thread: Vec<(Tracer, Vec<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let job = &job;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, origin, t);
                    let done = (t..n).step_by(threads).map(|i| job(&mut tr, i)).collect();
                    (tr, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (t, (tr, done)) in per_thread.into_iter().enumerate() {
        trace.absorb(tr);
        for (k, v) in done.into_iter().enumerate() {
            slots[t + k * threads] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// Host-noise record: load average and cumulative steal ticks.
struct HostSample {
    load: String,
    steal: Option<u64>,
}

fn host_sample() -> HostSample {
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "n/a".into());
    // `/proc/stat`'s first line: cpu user nice system idle iowait irq
    // softirq steal ...
    let steal = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
        s.lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
    });
    HostSample { load, steal }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Fault injection and shadow checking change what is simulated; the
    // benchmark measures the default configuration only.
    for var in ["RACCD_FAULT_SPEC", "RACCD_SHADOW_CHECK"] {
        std::env::remove_var(var);
    }
    if args.trace {
        alloc::enable();
    }
    let before = host_sample();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "dirsweep" => matrix::dirsweep,
        "compute" => matrix::compute,
        "campaign" => campaign::run,
        "explore" => explore::run,
        w => {
            eprintln!("perfbench: unknown workload `{w}` (dirsweep, compute, campaign, explore)");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, &mut out) {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    let after = host_sample();
    let steal = match (before.steal, after.steal) {
        (Some(b), Some(a)) => format!("{b} -> {a} (+{})", a.saturating_sub(b)),
        _ => "n/a".into(),
    };
    println!(
        "host: nproc={} loadavg before [{}] after [{}] steal ticks {steal}",
        nproc(),
        before.load,
        after.load
    );

    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
        let pass = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        out.set("pass_ratio", pass);
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &names {
        // A layer the workload does not exercise reads 0.
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let stray: Vec<&String> = out
        .metrics
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(stray.is_empty(), "metrics outside the table: {stray:?}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(",")
    );
}
