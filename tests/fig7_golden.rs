//! Fig. 7 golden checksum: a pinned sub-matrix of the Figure 7 directory
//! sweep (Jacobi, Histo, MD5 × {RaCCD, FullCoh} × every directory ratio)
//! must fold to a committed checksum of its protocol-visible counters,
//! with and without the shadow checker attached.
//!
//! If the golden moves, a simulator change altered protocol-visible
//! counters; update the constant *only* after confirming the change is an
//! intended model change (both tests fail together in that case).

use raccd::core::CoherenceMode;
use raccd::sim::{MachineConfig, DIR_RATIOS};
use raccd::workloads::Scale;
use raccd_bench::{run_jobs, sweep_checksum, Job};

/// Committed golden: the sweep's checksum at Test scale on the
/// `MachineConfig::scaled()` machine (see [`sweep_checksum`] for the
/// folded fields).
const GOLDEN_SERIAL_CHECKSUM: u64 = 0x438C_1BAE_BC50_BA8B;

/// Pinned sub-matrix: Jacobi, Histo, MD5 under both coherence systems at
/// every directory ratio.
const WORKLOADS: [usize; 3] = [3, 2, 7];
const MODES: [CoherenceMode; 2] = [CoherenceMode::Raccd, CoherenceMode::FullCoh];

fn sweep(shadow: bool) -> u64 {
    let mut cfg = MachineConfig::scaled();
    cfg.shadow_check |= shadow;
    let mut jobs = Vec::new();
    for &bench_idx in &WORKLOADS {
        for mode in MODES {
            for &ratio in &DIR_RATIOS {
                jobs.push(Job {
                    bench_idx,
                    mode,
                    ratio,
                    adr: false,
                });
            }
        }
    }
    sweep_checksum(&run_jobs(Scale::Test, cfg, &jobs))
}

#[test]
fn serial_sweep_matches_committed_golden() {
    assert_eq!(
        sweep(false),
        GOLDEN_SERIAL_CHECKSUM,
        "fig7 sweep moved off the committed golden — a simulator change \
         altered protocol-visible counters"
    );
}

#[test]
fn sweep_checksum_holds_under_shadow_checking() {
    // `cfg.shadow_check` force-attaches the fail-fast coherence checker —
    // the in-process equivalent of running under `RACCD_SHADOW_CHECK=1` —
    // and must perturb nothing.
    assert_eq!(sweep(true), GOLDEN_SERIAL_CHECKSUM);
}
