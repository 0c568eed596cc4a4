//! The committed `BENCH_7.json` perf-trajectory file must stay valid:
//! it parses under the strict schema, covers the pinned matrix, carries
//! the required throughput metrics, and compares clean
//! against itself. Any schema drift has to come with a `SCHEMA_VERSION`
//! bump and a regenerated file — this test is what makes that drift loud.

use raccd_bench::perfjson::{compare, BenchDoc, SCHEMA_VERSION};
use raccd_prof::Site;
use std::path::PathBuf;

fn committed_doc() -> BenchDoc {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_7.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    BenchDoc::parse(&text).expect("committed BENCH_7.json parses under the current schema")
}

#[test]
fn golden_file_is_schema_valid() {
    let doc = committed_doc();
    assert_eq!(doc.schema_version, SCHEMA_VERSION);
    assert!(!doc.git_rev.is_empty() && !doc.host.is_empty());
    assert!(doc.reps >= 1);
    assert!(
        doc.jobs.len() >= 6,
        "pinned matrix present, got {} jobs",
        doc.jobs.len()
    );
    // The matrix covers both systems, profiled and plain.
    for mode in ["raccd", "fullcoh"] {
        for profiled in [false, true] {
            assert!(
                doc.jobs
                    .iter()
                    .any(|j| j.mode == mode && j.profiled == profiled),
                "matrix covers {mode}/profiled={profiled}"
            );
        }
    }
}

#[test]
fn golden_file_carries_throughput_metrics() {
    let doc = committed_doc();
    for j in &doc.jobs {
        if j.name == "snapshot-codec" {
            continue;
        }
        assert!(j.metrics.cycles_per_sec() > 0.0, "{}: cycles/sec", j.name);
        assert!(j.metrics.events_per_sec() > 0.0, "{}: events/sec", j.name);
        assert!(j.metrics.refs_per_sec() > 0.0, "{}: refs/sec", j.name);
    }
    let snap = doc
        .jobs
        .iter()
        .find(|j| j.name == "snapshot-codec")
        .expect("snapshot microbench job present");
    assert!(snap.metrics.snap_encode_bytes_per_sec().is_some());
    assert!(snap.metrics.snap_decode_bytes_per_sec().is_some());
    // The measured profiler overhead is reported (any finite value).
    assert!(doc.prof_overhead_pct.is_finite());
}

#[test]
fn golden_file_span_table_is_populated() {
    let doc = committed_doc();
    assert!(!doc.spans.is_empty());
    for site in [
        Site::Step,
        Site::MemRef,
        Site::CacheLookup,
        Site::DirAccess,
        Site::NocXmit,
        Site::SnapEncode,
        Site::SnapDecode,
    ] {
        assert!(
            doc.spans.get(site).count > 0,
            "span table covers {}",
            site.name()
        );
    }
}

#[test]
fn golden_file_round_trips_and_self_compares_clean() {
    let doc = committed_doc();
    let reparsed = BenchDoc::parse(&doc.render()).expect("render/parse round trip");
    assert_eq!(reparsed, doc);
    let out = compare(&doc, &doc);
    assert!(out.clean(), "{:?}", out.lines);
    assert!(out.compared >= 6);
}
