//! Fault-plane overhead: the same simulation with no plane attached,
//! with a zero-rate plane (resilience machinery armed, nothing injected
//! — must be perf-neutral: every protocol path keeps the plane behind a
//! single never-taken branch), and with a light mixed NoC plan for scale.

use criterion::{criterion_group, criterion_main, Criterion};
use raccd_core::driver::run_program;
use raccd_core::{CoherenceMode, Driver};
use raccd_sim::{FaultPlan, MachineConfig};
use raccd_workloads::{all_benchmarks, Scale};

fn run_faulty(plan: FaultPlan) -> u64 {
    let w = &all_benchmarks(Scale::Test)[3]; // Jacobi
    let (cfg, mode) = (MachineConfig::scaled(), CoherenceMode::Raccd);
    Driver::new(cfg, mode, w.build(), Some(plan), None)
        .finish(None)
        .stats
        .cycles
}

fn fault_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(10);

    g.bench_function("no_plane", |b| {
        b.iter(|| {
            let w = &all_benchmarks(Scale::Test)[3]; // Jacobi
            run_program(MachineConfig::scaled(), CoherenceMode::Raccd, w.build())
                .stats
                .cycles
        })
    });

    g.bench_function("zero_rate_plane", |b| {
        b.iter(|| run_faulty(FaultPlan::default()))
    });

    g.bench_function("light_noc_faults", |b| {
        let plan = FaultPlan::from_spec("seed=42;drop=0.005;corrupt=0.002;delay=0.01:16")
            .expect("valid spec");
        b.iter(|| run_faulty(plan))
    });

    g.finish();
}

criterion_group!(benches, fault_overhead);
criterion_main!(benches);
