//! Protocol and topology variants, full stack.
//!
//! Every coherence protocol ({MESI, MESIF, MOESI}) on every NoC topology
//! ({mesh, numa2}) must run real workloads clean under the fail-fast
//! shadow checker — a stencil (Jacobi), a scatter (Histo) and a streaming
//! kernel (MD5) — and the variants must actually differ: the protocols
//! route a sharing workload differently, and `numa2` makes the
//! inter-socket link visible in cycles.

use raccd_core::driver::run_program;
use raccd_core::CoherenceMode;
use raccd_runtime::Workload;
use raccd_sim::{MachineConfig, ProtocolKind, Topology};
use raccd_workloads::{histo::Histo, jacobi::Jacobi, md5::Md5Bench, Scale};

/// Tiny shadow-checked machine: 2×2 mesh per socket, so `numa2` runs
/// eight cores split across the inter-socket link.
fn tiny(protocol: ProtocolKind, topology: Topology) -> MachineConfig {
    let mut cfg = MachineConfig::scaled().with_shadow_check(true);
    cfg.ncores = 4;
    cfg.mesh_k = 2;
    cfg.with_protocol(protocol).with_topology(topology)
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
        Box::new(Md5Bench::new(Scale::Test)),
    ]
}

/// The fail-fast checker panics on the first violation, so completing
/// with a report and a verified memory image means a clean run.
#[test]
fn every_protocol_and_topology_runs_shadow_clean() {
    for protocol in ProtocolKind::ALL {
        for topology in Topology::ALL {
            for w in workloads() {
                for mode in [CoherenceMode::Raccd, CoherenceMode::FullCoh] {
                    let out = run_program(tiny(protocol, topology), mode, w.build());
                    let report = out.check.as_ref().expect("shadow checker attached");
                    assert!(
                        report.violations.is_empty(),
                        "{} {protocol}@{topology} under {mode}: {:?}",
                        w.name(),
                        report.violations
                    );
                    w.verify(&out.mem).unwrap_or_else(|e| {
                        panic!("{} {protocol}@{topology} under {mode}: {e}", w.name())
                    });
                }
            }
        }
    }
}

/// Every protocol × topology cell reproduces its `Stats` bit for bit
/// when run twice.
#[test]
fn every_protocol_and_topology_is_deterministic() {
    for protocol in ProtocolKind::ALL {
        for topology in Topology::ALL {
            for w in workloads() {
                let run = || run_program(tiny(protocol, topology), CoherenceMode::Raccd, w.build());
                assert_eq!(
                    run().stats,
                    run().stats,
                    "{} {protocol}@{topology}: non-deterministic Stats",
                    w.name()
                );
            }
        }
    }
}

/// The variants must actually *be* variants: under FullCoh the three
/// protocols route a sharing-heavy workload differently (MESIF's clean
/// F-supplies and MOESI's writeback-free O downgrades change the traffic
/// mix), so their Stats must not all coincide.
#[test]
fn protocols_differentiate_under_fullcoh() {
    let w = Jacobi {
        n: 24,
        iters: 2,
        blocks: 4,
        ..Jacobi::new(Scale::Test)
    };
    let stats: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&p| run_program(tiny(p, Topology::Mesh), CoherenceMode::FullCoh, w.build()).stats)
        .collect();
    assert!(
        stats.iter().any(|s| s != &stats[0]),
        "MESI, MESIF and MOESI produced identical Stats on a sharing workload"
    );
}

/// numa2 must actually cross the link: the same workload on the same
/// protocol reports cross-link message crossings only on the 2-socket
/// topology, and its cycle count differs from the single mesh.
#[test]
fn numa2_differentiates_from_mesh() {
    let w = Histo::new(Scale::Test);
    let mesh = run_program(
        tiny(ProtocolKind::Mesi, Topology::Mesh),
        CoherenceMode::FullCoh,
        w.build(),
    );
    let numa = run_program(
        tiny(ProtocolKind::Mesi, Topology::Numa2),
        CoherenceMode::FullCoh,
        w.build(),
    );
    assert_ne!(
        mesh.stats.cycles, numa.stats.cycles,
        "inter-socket link latency must be visible in cycles"
    );
}
