//! `explore`: `raccd_check::explore` closing the 2-core/2-block MESI
//! "dir storm" configuration (scenario C of the `explore_probe` example).
//! The closure has no seeded input: every seed explores the same space.

use crate::trace::{Trace, TraceLog, Tracer};
use crate::{fan_out, median, repeat, Args, Outcome};
use raccd_check::{explore, CheckedMachine, ExploreConfig};
use raccd_sim::MachineConfig;
use std::time::Instant;

/// Distinct protocol states of the closed configuration.
const STATES: usize = 22_851;
/// Simulated cycles `CheckedMachine::apply` advances per operation.
const CYCLES_PER_OP: u64 = 100;
/// Explorer set-ups timed per round; the round reports their median.
const SETUPS: usize = 16;

/// Scenario C: two cores, two blocks on one page, a one-entry directory
/// bank, NC flushes and page flushes in the alphabet.
fn config() -> ExploreConfig {
    let mut cfg = MachineConfig::scaled()
        .with_dir_ratio(32)
        .with_write_through(false)
        .with_adr(false);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.llc_entries_per_bank = 32;
    cfg.dir_ways = 1;
    ExploreConfig {
        cfg,
        cores: vec![0, 1],
        blocks: vec![0x40, 0x44],
        flush_nc: true,
        flush_pages: true,
        max_depth: 64,
        max_states: 1_000_000,
    }
}

/// One closure: the explorer's set-up (its initial checked machine and
/// state fingerprint, timed `SETUPS` times) and the exploration itself.
struct Closure {
    setup_s: f64,
    explore_s: f64,
    states: usize,
    ops: u64,
    exhausted: bool,
    violations: usize,
}

fn closure(tr: &mut Tracer, job: u64) -> Closure {
    let root = tr.enter("job", job);
    let ec = config();
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let m = tr.enter("CheckedMachine::new", job);
            let cm = CheckedMachine::new(ec.cfg);
            std::hint::black_box(cm.state_key());
            tr.exit(m)
        })
        .collect();
    let m = tr.enter("raccd_check::explore", job);
    let r = explore(&ec);
    let explore_s = tr.exit(m);
    let c = Closure {
        setup_s: median(&setups),
        explore_s,
        states: r.states,
        ops: r.ops_applied,
        exhausted: r.exhausted,
        violations: r.violations.len(),
    };
    drop(r);
    tr.exit(root);
    c
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let mut log = TraceLog::default();
    let mut closures: Vec<(bool, Closure)> = Vec::new();
    // Each round closes the space once per host thread, concurrently.
    let per_round = crate::nproc();
    repeat(args.seconds, args.trace, |round, traced| {
        let mut rtrace = Trace::default();
        let t = Instant::now();
        let done = fan_out(per_round, traced, origin, &mut rtrace, |tr, i| {
            closure(tr, (round * per_round + i) as u64)
        });
        log.round(round, traced, t.elapsed().as_secs_f64(), rtrace);
        for c in done {
            out.check(
                c.exhausted && c.violations == 0 && c.states == STATES,
                || {
                    format!(
                        "closure: exhausted={} violations={} states={} (want {STATES})",
                        c.exhausted, c.violations, c.states
                    )
                },
            );
            if let Some((_, f)) = closures.first() {
                out.check(c.ops == f.ops, || {
                    format!("ops {} vs {} between closures", c.ops, f.ops)
                });
            }
            closures.push((traced, c));
        }
        Ok(())
    })?;
    let ops = closures[0].1.ops;
    println!(
        "explore: states={STATES} ops_applied={ops} closures={}",
        closures.len()
    );
    let pick = |traced: bool, f: fn(&Closure) -> f64| -> Vec<f64> {
        closures
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, c)| f(c))
            .collect()
    };
    if args.trace {
        out.set("check.states", STATES as f64);
        out.set("check.ops_applied", ops as f64);
        out.set("check.ops_per_state", ops as f64 / STATES as f64);
        out.set("check.explore_s", median(&pick(true, |c| c.explore_s)));
        log.finish(args, out);
    } else {
        let wall = median(&pick(false, |c| c.explore_s));
        out.set("wall_s", wall);
        out.set("setup_s", median(&pick(false, |c| c.setup_s)));
        out.set("refs_per_s", ops as f64 / wall);
        // A job of the explorer is one state expansion.
        out.set("jobs_per_s", STATES as f64 / wall);
        out.set("sim_cycles", (ops * CYCLES_PER_OP) as f64);
        println!("closures: explore median {wall:.4} s");
    }
    Ok(())
}
