//! Spans around the public calls the benchmark makes into each crate.
//!
//! A [`Tracer`] belongs to one thread. Disabled (the untraced run) it only
//! reads the clock at each boundary, which the end-to-end metrics need
//! anyway; enabled it also keeps a [`Span`] per call in memory, with the
//! thread's allocation counters at entry and exit. Spans are merged and
//! written out when the run ends.

use crate::{alloc, median, Args, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Public call (or `job` / `probe` for the benchmark's own roots).
    pub name: &'static str,
    /// Job the call belongs to; unique within a run.
    pub job: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Worker thread that made the call.
    pub thread: usize,
    /// Start and end, in ns since the run's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes the thread made inside the span.
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: its start time and, when tracing, its slot.
pub struct Mark {
    start: Instant,
    slot: Option<(usize, u64, u64)>,
}

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: usize) -> Tracer {
        Tracer {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span for `name` on behalf of `job`.
    pub fn enter(&mut self, name: &'static str, job: u64) -> Mark {
        if !self.enabled {
            return Mark {
                start: Instant::now(),
                slot: None,
            };
        }
        let (allocs, bytes) = alloc::counts();
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.open.push(idx);
        Mark {
            start,
            slot: Some((idx, allocs, bytes)),
        }
    }

    /// Close the span `m` opened; returns its duration in seconds.
    pub fn exit(&mut self, m: Mark) -> f64 {
        let end = Instant::now();
        if let Some((idx, allocs, bytes)) = m.slot {
            let (a, b) = alloc::counts();
            let s = &mut self.spans[idx];
            s.end_ns = (end - self.origin).as_nanos() as u64;
            s.allocs = a - allocs;
            s.bytes = b - bytes;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
        (end - m.start).as_secs_f64()
    }
}

/// Spans merged from every thread of a run.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's spans.
    pub fn absorb(&mut self, t: Tracer) {
        self.append(Trace { spans: t.spans });
    }

    /// Append another trace's spans, re-basing their parent links.
    fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total seconds in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Total allocations in spans named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    /// Spans named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover (children of one span run one after another on its
    /// thread, so they never overlap), summed by [`layer_of`].
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_s[p] -= s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(self_s) {
            *out.entry(layer_of(s.name)).or_insert(0.0) += v;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"job\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{}}}",
                s.name,
                layer_of(s.name),
                s.job,
                parent,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.bytes
            );
        }
        out
    }
}

/// The crate a public call belongs to. The benchmark's own `job` roots
/// map to `residual`: their self time is harness work no layer covers.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "job" => "residual",
        "probe" => "probe",
        "Driver::snapshot" | "Driver::restore" => "snap",
        n if n.starts_with("Snapshot::") => "snap",
        n if n.starts_with("Workload::") || n.starts_with("Program::") => "workloads",
        n if n.starts_with("Driver::") => "core",
        n if n.starts_with("Campaign::") => "campaign",
        n if n.starts_with("raccd_check::") || n.starts_with("CheckedMachine::") => "check",
        _ => "other",
    }
}

/// What a traced run collects: the spans of each traced round, the spans
/// of side runs made only to measure (`probe` roots), and the round times
/// compared for the tracing overhead.
#[derive(Default)]
pub struct TraceLog {
    rounds: Vec<Trace>,
    pub probes: Trace,
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl TraceLog {
    /// File round `index`. The process's first round warms it up and is
    /// left out of the comparison.
    pub fn round(&mut self, index: usize, traced: bool, wall: f64, trace: Trace) {
        if traced {
            self.traced.push(wall);
            self.rounds.push(trace);
        } else if index > 0 {
            self.untraced.push(wall);
        }
    }

    /// Record the metrics every traced workload shares — self time per
    /// layer (median over traced rounds), spans per round and the tracing
    /// overhead — and write every span to
    /// `.perfbench/spans-<workload>-<seed>.jsonl`.
    pub fn finish(self, args: &Args, out: &mut Outcome) {
        let per_round: Vec<BTreeMap<&str, f64>> =
            self.rounds.iter().map(Trace::self_by_layer).collect();
        let layer = |name: &str| {
            let v: Vec<f64> = per_round
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect();
            median(&v)
        };
        for l in ["workloads", "core", "snap", "campaign", "check"] {
            out.set(&format!("{l}.self_s"), layer(l));
        }
        out.set("trace.residual_s", layer("residual"));
        let spans: Vec<f64> = self.rounds.iter().map(|t| t.spans.len() as f64).collect();
        out.set("trace.spans", median(&spans));
        let (u, t) = (median(&self.untraced), median(&self.traced));
        out.set("trace.untraced_wall_s", u);
        out.set("trace.traced_wall_s", t);
        out.set("trace.overhead_s", t - u);
        println!(
            "trace: median untraced round {u:.4} s, median traced round {t:.4} s, overhead {:.4} s ({:+.2}%)",
            t - u,
            100.0 * (t - u) / u
        );

        let mut all = Trace::default();
        for r in self.rounds.into_iter().chain(std::iter::once(self.probes)) {
            all.append(r);
        }
        let dir = crate::work_dir();
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, all.to_jsonl())) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                all.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: writing {}: {e}", path.display()),
        }
    }
}
