//! `campaign`: a fixed, closed batch of test-scale jobs through
//! `raccd_campaign::Campaign` on a fresh ledger, drained by `nproc`
//! workers. Every job warm-starts from the snapshot pool, and the whole
//! batch is submitted twice, so the second pass must dedup completely.

use crate::matrix::set_sim_counters;
use crate::trace::{Trace, TraceLog, Tracer};
use crate::{median, nproc, repeat, Args, Outcome};
use raccd_campaign::{stats_digest, Campaign, CampaignConfig, JobDigest, JobSpec};
use raccd_core::{CoherenceMode, Driver};
use raccd_sim::{ProtocolKind, SchedKind, Stats, Topology};
use raccd_snap::Snapshot;
use raccd_workloads::{all_benchmarks, Scale};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seeds per configuration: 27 configurations × 20 seeds = 540 jobs.
const SEEDS: u64 = 20;
/// Warm-up cycles simulated once per configuration and restored per seed.
const WARMUP: u64 = 2_000;

/// All nine benchmarks × {fullcoh, pt, raccd}, spread over every
/// protocol, both topologies and three schedulers. The benchmark seed
/// moves the seed range; the default seed starts it at 1, like
/// `JobSpec::new`.
fn specs(seed: u64) -> Vec<JobSpec> {
    let protocols = [ProtocolKind::Mesi, ProtocolKind::Mesif, ProtocolKind::Moesi];
    let topologies = [Topology::Mesh, Topology::Numa2];
    let scheds = [SchedKind::Fifo, SchedKind::Locality, SchedKind::Quantum];
    let modes = [
        CoherenceMode::FullCoh,
        CoherenceMode::PageTable,
        CoherenceMode::Raccd,
    ];
    let mut out = Vec::new();
    for (b, w) in all_benchmarks(Scale::Test).iter().enumerate() {
        for (m, &mode) in modes.iter().enumerate() {
            let mut s = JobSpec::new(w.name(), Scale::Test, mode);
            s.protocol = protocols[(b + m) % 3];
            s.topology = topologies[(b + m) % 2];
            s.sched = scheds[(b + 2 * m) % 3];
            s.warmup = WARMUP;
            // Bounded so the range never overflows.
            s.seed_lo = 1 + (seed % (1 << 40)) * SEEDS;
            s.seed_hi = s.seed_lo + SEEDS - 1;
            out.push(s);
        }
    }
    out
}

/// One configuration simulated outside the campaign: the cold serial
/// reference the campaign's digests must match, plus the same run
/// captured after warm-up, round-tripped through the byte codec and
/// restored, which must finish identically.
struct Reference {
    stats: Stats,
    edges: usize,
    restored: Stats,
    snap_bytes: usize,
}

fn reference(spec: &JobSpec, tr: &mut Tracer, job: u64) -> Result<Reference, String> {
    let root = tr.enter("probe", job);
    let idx = spec.bench_idx()?;
    let w = &all_benchmarks(spec.scale)[idx];
    let cfg = spec.machine_config();
    let m = tr.enter("Workload::build", job);
    let program = w.build();
    tr.exit(m);
    let m = tr.enter("Driver::new", job);
    let mut driver = Driver::new(cfg, spec.mode, program, None, None);
    tr.exit(m);
    let m = tr.enter("Driver::run_until", job);
    driver.run_until(spec.warmup, None);
    tr.exit(m);
    let m = tr.enter("Driver::snapshot", job);
    let snap = driver.snapshot();
    tr.exit(m);
    let m = tr.enter("Snapshot::to_bytes", job);
    let bytes = snap.to_bytes();
    tr.exit(m);
    let m = tr.enter("Snapshot::from_bytes", job);
    let decoded = Snapshot::from_bytes(&bytes).map_err(|e| format!("decode: {e:?}"))?;
    tr.exit(m);
    let m = tr.enter("Workload::build", job);
    let twin = w.build();
    tr.exit(m);
    let m = tr.enter("Driver::restore", job);
    let revived =
        Driver::restore(cfg, spec.mode, twin, &decoded).map_err(|e| format!("restore: {e:?}"))?;
    tr.exit(m);
    let m = tr.enter("Driver::finish", job);
    let cold = driver.finish(None);
    let warm = revived.finish(None);
    tr.exit(m);
    tr.exit(root);
    Ok(Reference {
        stats: cold.stats,
        edges: cold.edges,
        restored: warm.stats,
        snap_bytes: bytes.len(),
    })
}

/// Describe an I/O error by the call that returned it.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// What one pass of the batch measured.
struct RoundOut {
    wall_s: f64,
    open_s: f64,
    submit_s: f64,
    run_s: f64,
    reconcile_s: f64,
    executions: u64,
    retries: u64,
    dedup_hits: u64,
    snap_hits: u64,
    snap_misses: u64,
    ledger_bytes: u64,
}

impl RoundOut {
    /// The pass's counts, which every pass must repeat.
    fn counts(&self) -> [u64; 6] {
        [
            self.executions,
            self.retries,
            self.dedup_hits,
            self.snap_hits,
            self.snap_misses,
            self.ledger_bytes,
        ]
    }
}

fn round(
    specs: &[JobSpec],
    refs: &BTreeMap<u64, JobDigest>,
    tr: &mut Tracer,
    job: u64,
    out: &mut Outcome,
) -> Result<RoundOut, String> {
    let dir = crate::work_dir().join(format!("campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(io("creating the ledger directory"))?;
    let ledger = dir.join("ledger.jsonl");
    let njobs: u64 = specs.iter().map(JobSpec::njobs).sum();

    let root = tr.enter("job", job);
    let config = CampaignConfig {
        workers: nproc(),
        ..CampaignConfig::default()
    };
    let m = tr.enter("Campaign::open", job);
    let campaign = Campaign::open(&ledger, config).map_err(io("Campaign::open"))?;
    let open_s = tr.exit(m);
    let mut submit_s = 0.0;
    for pass in 0..2 {
        let (mut admitted, mut deduped, mut shed) = (0, 0, 0);
        for spec in specs {
            let m = tr.enter("Campaign::submit", job);
            let s = campaign.submit(spec).map_err(io("Campaign::submit"))?;
            submit_s += tr.exit(m);
            admitted += s.admitted;
            deduped += s.deduped;
            shed += s.shed;
        }
        let want = if pass == 0 {
            (njobs, 0, 0)
        } else {
            (0, njobs, 0)
        };
        out.check((admitted, deduped, shed) == want, || {
            format!("submit pass {pass}: admitted/deduped/shed {admitted}/{deduped}/{shed}, want {want:?}")
        });
    }
    let m = tr.enter("Campaign::run", job);
    let report = campaign.run().map_err(io("Campaign::run"))?;
    let run_s = tr.exit(m);
    let m = tr.enter("Campaign::reconcile", job);
    let rec = campaign.reconcile().map_err(io("Campaign::reconcile"))?;
    let reconcile_s = tr.exit(m);
    let results = campaign.results();
    drop(campaign);
    let wall_s = tr.exit(root);
    let ledger_bytes = std::fs::metadata(&ledger).map_err(io("ledger"))?.len();
    let _ = std::fs::remove_dir_all(&dir);

    out.check(
        rec.consistent
            && rec.duplicate_completions == 0
            && rec.lost_jobs == 0
            && rec.mismatches == 0,
        || format!("reconcile: {rec:?}"),
    );
    out.check(
        report.done == njobs && report.failed == 0 && report.executions == njobs,
        || format!("campaign report: {}", report.to_json()),
    );
    out.check(results.len() as u64 == njobs, || {
        format!("{} results for {njobs} jobs", results.len())
    });
    let wrong: Vec<String> = results
        .iter()
        .filter(|(k, d)| refs.get(&k.fingerprint) != Some(d))
        .map(|(k, d)| format!("{} {d:?}", k.label()))
        .collect();
    out.check(wrong.is_empty(), || {
        format!(
            "{} campaign digests differ from the serial reference: {:?}",
            wrong.len(),
            &wrong[..wrong.len().min(3)]
        )
    });
    Ok(RoundOut {
        wall_s,
        open_s,
        submit_s,
        run_s,
        reconcile_s,
        executions: report.executions,
        retries: report.retries,
        dedup_hits: report.dedup_hits,
        snap_hits: report.snap.hits,
        snap_misses: report.snap.misses,
        ledger_bytes,
    })
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let specs = specs(args.seed);
    let origin = Instant::now();
    let mut log = TraceLog::default();
    let mut tr = Tracer::new(args.trace, origin, 0);

    // The serial reference of every configuration, outside the timed rounds.
    let mut refs = BTreeMap::new();
    let mut reference_runs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let r = reference(spec, &mut tr, i as u64)?;
        out.check(r.restored == r.stats, || {
            format!(
                "{} {}: restored run differs from the cold run",
                spec.bench, spec.mode
            )
        });
        let digest = JobDigest {
            cycles: r.stats.cycles,
            tasks: r.stats.tasks_executed,
            stats_digest: stats_digest(&r.stats),
            state_key: None,
        };
        println!(
            "config {} {} {} {} {} cycles={} refs={} stats={:016x}",
            spec.bench,
            raccd_campaign::mode_label(spec.mode),
            spec.protocol.label(),
            spec.topology.label(),
            spec.sched.label(),
            digest.cycles,
            r.stats.refs_processed,
            digest.stats_digest
        );
        refs.insert(spec.fingerprint(), digest);
        reference_runs.push(r);
    }
    let refs_per_pass: u64 = reference_runs
        .iter()
        .map(|r| r.stats.refs_processed * SEEDS)
        .sum();
    let cycles_per_pass: u64 = reference_runs.iter().map(|r| r.stats.cycles * SEEDS).sum();

    let mut rounds: Vec<(bool, RoundOut)> = Vec::new();
    repeat(args.seconds, args.trace, |i, traced| {
        let mut rtr = Tracer::new(traced, origin, 0);
        let r = round(&specs, &refs, &mut rtr, (specs.len() + i) as u64, out)?;
        let mut rtrace = Trace::default();
        rtrace.absorb(rtr);
        log.round(i, traced, r.wall_s, rtrace);
        rounds.push((traced, r));
        Ok(())
    })?;
    let first = &rounds[0].1;
    for (_, r) in &rounds[1..] {
        out.check(r.counts() == first.counts(), || {
            "campaign counts differ between rounds".into()
        });
    }
    let pick = |traced: bool, f: fn(&RoundOut) -> f64| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| f(r))
            .collect()
    };
    if args.trace {
        log.probes.absorb(tr);
        let probes = &log.probes;
        let med = |f: fn(&RoundOut) -> f64| median(&pick(true, f));
        out.set("campaign.open_s", med(|r| r.open_s));
        out.set("campaign.submit_s", med(|r| r.submit_s));
        out.set("campaign.run_s", med(|r| r.run_s));
        out.set("campaign.reconcile_s", med(|r| r.reconcile_s));
        out.set("campaign.executions", first.executions as f64);
        out.set("campaign.retries", first.retries as f64);
        out.set("campaign.ledger_bytes", first.ledger_bytes as f64);
        let submitted = 2 * specs.iter().map(JobSpec::njobs).sum::<u64>();
        out.set(
            "campaign.dedup_ratio",
            first.dedup_hits as f64 / submitted as f64,
        );
        let lookups = first.snap_hits + first.snap_misses;
        out.set(
            "campaign.snap_hit_ratio",
            first.snap_hits as f64 / lookups.max(1) as f64,
        );
        // Layer numbers below the campaign come from the reference runs:
        // one of each configuration, outside `Campaign::run`.
        out.set("workloads.build_s", probes.secs("Workload::build"));
        out.set("core.new_s", probes.secs("Driver::new"));
        out.set("core.step_s", probes.secs("Driver::run_until"));
        out.set("core.finish_s", probes.secs("Driver::finish"));
        out.set("snap.capture_s", probes.secs("Driver::snapshot"));
        out.set("snap.encode_s", probes.secs("Snapshot::to_bytes"));
        out.set("snap.decode_s", probes.secs("Snapshot::from_bytes"));
        out.set("snap.restore_s", probes.secs("Driver::restore"));
        out.set(
            "snap.bytes",
            reference_runs.iter().map(|r| r.snap_bytes as f64).sum(),
        );
        // Every seed of a configuration simulates the same run.
        let runs: Vec<(CoherenceMode, &Stats)> = specs
            .iter()
            .zip(&reference_runs)
            .flat_map(|(s, r)| std::iter::repeat_n((s.mode, &r.stats), SEEDS as usize))
            .collect();
        set_sim_counters(out, &runs);
        out.set(
            "runtime.tasks",
            reference_runs
                .iter()
                .map(|r| (r.stats.tasks_executed * SEEDS) as f64)
                .sum(),
        );
        out.set(
            "runtime.edges",
            reference_runs
                .iter()
                .map(|r| (r.edges as u64 * SEEDS) as f64)
                .sum(),
        );
        log.finish(args, out);
    } else {
        let run_s = median(&pick(false, |r| r.run_s));
        let wall_s = median(&pick(false, |r| r.wall_s));
        out.set("wall_s", wall_s);
        out.set("setup_s", median(&pick(false, |r| r.open_s + r.submit_s)));
        out.set("jobs_per_s", first.executions as f64 / run_s);
        out.set("refs_per_s", refs_per_pass as f64 / run_s);
        out.set("sim_cycles", cycles_per_pass as f64);
        println!(
            "rounds: {} untraced, wall median {wall_s:.4} s, Campaign::run median {run_s:.4} s",
            rounds.len()
        );
    }
    Ok(())
}
