//! Metrics registry: host-throughput and simulated-rate metrics of a run.
//!
//! This unifies the self-profiler's span table (`raccd-prof`) with
//! derived rates over [`Stats`]: simulated cycles per host second,
//! protocol events per second, memory accesses per second, snapshot codec
//! bytes and time, and peak RSS. Everything here is *about* the
//! simulator's own performance; it never touches simulated semantics.
//!
//! The one export is a `# perf:` summary line
//! ([`RunMetrics::summary_line`]) that the bench matrix prints into
//! `results/*.txt`.

use raccd_prof::{fmt_si, ProfReport, Site};
use raccd_sim::Stats;

/// Derived performance metrics of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Run label (workload/mode/scale, caller-defined).
    pub name: String,
    /// Host wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Simulated cycles executed.
    pub sim_cycles: u64,
    /// Memory references replayed through the timing model.
    pub refs_processed: u64,
    /// Protocol messages sent over the NoC.
    pub protocol_events: u64,
    /// Tasks retired.
    pub tasks_executed: u64,
    /// Snapshot payload bytes encoded (0 when no snapshots were taken).
    pub snap_encode_bytes: u64,
    /// Nanoseconds spent encoding snapshots.
    pub snap_encode_ns: u64,
    /// Snapshot payload bytes decoded on restore.
    pub snap_decode_bytes: u64,
    /// Nanoseconds spent decoding snapshots.
    pub snap_decode_ns: u64,
    /// Peak resident set size in bytes (0 when the platform exposes none).
    pub peak_rss_bytes: u64,
}

impl RunMetrics {
    /// Derive metrics from a run's statistics and its measured wall time.
    pub fn from_stats(name: &str, stats: &Stats, wall_seconds: f64) -> RunMetrics {
        RunMetrics {
            name: name.to_string(),
            wall_seconds,
            sim_cycles: stats.cycles,
            refs_processed: stats.refs_processed,
            protocol_events: stats.noc_traffic,
            tasks_executed: stats.tasks_executed,
            peak_rss_bytes: peak_rss_bytes(),
            ..RunMetrics::default()
        }
    }

    /// Fold the profiler's snapshot-codec sites in (encode/decode bytes
    /// and time), enabling the snapshot-throughput rates.
    pub fn with_prof(mut self, prof: &ProfReport) -> RunMetrics {
        let enc = prof.get(Site::SnapEncode);
        let dec = prof.get(Site::SnapDecode);
        self.snap_encode_bytes = enc.units;
        self.snap_encode_ns = enc.total_ns;
        self.snap_decode_bytes = dec.units;
        self.snap_decode_ns = dec.total_ns;
        self
    }

    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        rate(self.sim_cycles, self.wall_seconds)
    }

    /// Memory accesses (replayed references) per host second.
    pub fn refs_per_sec(&self) -> f64 {
        rate(self.refs_processed, self.wall_seconds)
    }

    /// Protocol events (NoC messages) per host second.
    pub fn events_per_sec(&self) -> f64 {
        rate(self.protocol_events, self.wall_seconds)
    }

    /// One-line human summary, `#`-prefixed so figure outputs stay valid
    /// data files (`results/*.txt` consumers skip comment lines).
    pub fn summary_line(&self) -> String {
        format!(
            "# perf: {} wall={:.3}s cycles/s={} refs/s={} events/s={}",
            self.name,
            self.wall_seconds,
            fmt_si(self.cycles_per_sec()),
            fmt_si(self.refs_per_sec()),
            fmt_si(self.events_per_sec()),
        )
    }
}

/// Peak resident set size of this process in bytes. Reads `VmHWM` from
/// `/proc/self/status` on Linux; returns 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raccd_prof::SiteStats;

    fn sample() -> RunMetrics {
        let stats = Stats {
            cycles: 1_000_000,
            refs_processed: 250_000,
            noc_traffic: 40_000,
            tasks_executed: 64,
            ..Stats::default()
        };
        RunMetrics::from_stats("jacobi/raccd", &stats, 0.5)
    }

    #[test]
    fn rates_follow_wall_time() {
        let m = sample();
        assert_eq!(m.cycles_per_sec(), 2_000_000.0);
        assert_eq!(m.refs_per_sec(), 500_000.0);
        assert_eq!(m.events_per_sec(), 80_000.0);
        // A zero wall time never divides by zero.
        let z = RunMetrics::from_stats("z", &Stats::default(), 0.0);
        assert_eq!(z.cycles_per_sec(), 0.0);
    }

    #[test]
    fn prof_snapshot_sites_feed_codec_fields() {
        let mut prof = ProfReport::empty();
        prof.sites[Site::SnapEncode as usize] = SiteStats {
            count: 2,
            total_ns: 1_000_000,
            min_ns: 400_000,
            max_ns: 600_000,
            units: 4_000_000,
        };
        let m = sample().with_prof(&prof);
        assert_eq!(m.snap_encode_bytes, 4_000_000);
        assert_eq!(m.snap_encode_ns, 1_000_000);
        assert_eq!(m.snap_decode_bytes, 0);
        assert_eq!(m.snap_decode_ns, 0);
    }

    #[test]
    fn summary_line_renders() {
        let line = sample().summary_line();
        assert!(line.starts_with("# perf: jacobi/raccd"));
        assert!(line.contains("cycles/s=2.00M"));
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // This test binary surely holds at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM parsed as {rss}");
        }
    }
}
