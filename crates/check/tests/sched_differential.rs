//! Scheduler policies, full stack.
//!
//! The policies are *interchangeable in outcome*: every policy drives
//! each workload to the same final memory image (same program, different
//! interleaving) with the shadow checker clean, the quantum policy's
//! preemption audit log replays deterministically, and the locality
//! policy actually reduces migrations versus the central FIFO queue.

use raccd_core::driver::run_program;
use raccd_core::{CoherenceMode, DriverOutput};
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, SchedKind};
use raccd_workloads::{histo::Histo, jacobi::Jacobi, Scale};

/// Quantum small enough that the tiny workloads' tasks actually expire
/// mid-trace (tasks here run a few hundred cycles per batch window).
const TINY_QUANTUM: u64 = 200;

/// Tiny shadow-checked machine: 2×2 mesh, four single-thread contexts.
fn tiny(sched: SchedKind) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.sched_quantum = TINY_QUANTUM;
    cfg.with_sched(sched)
}

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Jacobi {
            n: 24,
            iters: 2,
            blocks: 4,
            ..Jacobi::new(Scale::Test)
        }),
        Box::new(Histo::new(Scale::Test)),
    ]
}

/// FNV-1a-64 over the run's final memory image, allocation by allocation.
fn mem_checksum(out: &DriverOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, range) in out.mem.allocations().to_vec() {
        for &b in out.mem.bytes(range.start, range.len as usize) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Different policies execute different interleavings of the *same*
/// program, so every policy must converge to the same final memory image
/// (and a clean shadow oracle, asserted inside the runs).
#[test]
fn all_policies_reach_the_same_final_memory() {
    for w in workloads() {
        for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
            let mut sums = Vec::new();
            for sched in SchedKind::ALL {
                let out = run_program(tiny(sched), mode, w.build());
                assert!(out.check.is_some(), "shadow checker attached");
                assert!(
                    w.verify(&out.mem).is_ok(),
                    "{} under {sched}/{mode}: wrong functional output",
                    w.name()
                );
                sums.push((sched, mem_checksum(&out)));
            }
            assert!(
                sums.iter().all(|(_, s)| *s == sums[0].1),
                "{} under {mode}: final memory diverged across policies: {sums:?}",
                w.name()
            );
        }
    }
}

/// The quantum policy must actually preempt on this configuration, and
/// its append-only audit log must replay identically run over run.
#[test]
fn quantum_audit_log_replays_deterministically() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let a = run_program(tiny(SchedKind::Quantum), CoherenceMode::Raccd, w.build());
    let b = run_program(tiny(SchedKind::Quantum), CoherenceMode::Raccd, w.build());
    assert!(
        !a.audit.is_empty(),
        "quantum {TINY_QUANTUM} never preempted — audit log is empty"
    );
    assert_eq!(a.audit, b.audit, "audit log must be reproducible");
    assert_eq!(a.stats.preemptions, a.audit.len() as u64);
    // Each record is internally consistent: the preempted position lies
    // inside the task's trace, and cycles are non-decreasing (append-only).
    for rec in &a.audit {
        assert!(rec.pos > 0 && rec.remaining > 0, "mid-trace preemption");
    }
    // Cycles are stamped with each context's local clock, so the global
    // log is ordered per context, not globally.
    for ctx in 0..4 {
        let cycles: Vec<u64> = a
            .audit
            .iter()
            .filter(|r| r.ctx == ctx)
            .map(|r| r.cycle)
            .collect();
        assert!(
            cycles.windows(2).all(|p| p[0] <= p[1]),
            "ctx {ctx}: audit entries out of order: {cycles:?}"
        );
    }
    // Non-quantum policies never preempt and keep an empty log.
    let fifo = run_program(tiny(SchedKind::Fifo), CoherenceMode::Raccd, w.build());
    assert!(fifo.audit.is_empty());
    assert_eq!(fifo.stats.preemptions, 0);
}

/// The policies must actually *be* policies: stealing records steals,
/// locality migrates less than the central queue (and hands off fewer
/// NCRTs under RaCCD), and the quantum policy's preemptions shift cycles.
#[test]
fn policies_differentiate() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let run = |sched| run_program(tiny(sched), CoherenceMode::Raccd, w.build());
    let fifo = run(SchedKind::Fifo);
    let steal = run(SchedKind::Steal);
    let loc = run(SchedKind::Locality);
    let quantum = run(SchedKind::Quantum);
    assert!(
        steal.stats.sched_steals > 0,
        "work stealing never stole on a 4-context machine"
    );
    assert_eq!(fifo.stats.sched_steals, 0, "central queue cannot steal");
    assert!(
        loc.stats.task_migrations < fifo.stats.task_migrations,
        "locality {} vs fifo {} migrations",
        loc.stats.task_migrations,
        fifo.stats.task_migrations
    );
    assert!(
        loc.stats.ncrt_migrations < fifo.stats.ncrt_migrations,
        "locality {} vs fifo {} NCRT hand-offs",
        loc.stats.ncrt_migrations,
        fifo.stats.ncrt_migrations
    );
    assert!(
        quantum.stats.preemptions > 0 && quantum.stats.cycles != fifo.stats.cycles,
        "quantum preemption must be visible in the timing"
    );
    // Every policy pops exactly what it pushed (counter symmetry — the
    // old StealQueues under-reporting is structurally impossible now).
    for r in [&fifo, &steal, &loc, &quantum] {
        assert_eq!(r.stats.sched_pushed, r.stats.sched_popped);
        assert_eq!(
            r.stats.sched_popped,
            r.stats.sched_local_pops + r.stats.sched_steals
        );
    }
}
