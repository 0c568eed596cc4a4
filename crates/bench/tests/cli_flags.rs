//! Bad command-line input is rejected with a message on stderr and exit
//! status 2, before any simulation starts: the shared figure-binary flags,
//! and the `campaign` driver's flags, spec lines and spec files.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_shared_flag_values_exit_2() {
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    for (args, want) in [
        (&["--scale", "tset"][..], "--scale: unknown value `tset`"),
        (&["--scale"][..], "--scale: missing value"),
        (
            &["--scale", "test", "--protocol", "mosi"][..],
            "--protocol: unknown value `mosi`",
        ),
        (
            &["--scale", "test", "--topology", "torus"][..],
            "--topology: unknown value `torus`",
        ),
        (
            &["--scale", "test", "--sched", "lifo"][..],
            "--sched: unknown value `lifo`",
        ),
    ] {
        let (code, stderr) = run(fig2, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_campaign_input_exits_2() {
    let campaign = env!("CARGO_BIN_EXE_campaign");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign_cli_flags");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let ledger = dir.join("ledger.jsonl");
    let ledger = ledger.to_str().expect("utf-8 path");
    let missing = dir.join("no-such-specs.txt");
    let missing = missing.to_str().expect("utf-8 path");
    for (args, want) in [
        (
            &[
                "--spec",
                "bench=jacobi scale=test mode=raccd ratio=0 seeds=1..1",
            ][..],
            "--spec: bad ratio `0`",
        ),
        (&["--workers", "abc"][..], "--workers: bad value `abc`"),
        (&["--gen", "x"][..], "--gen: bad count `x`"),
        (&["--spec-file", missing][..], "--spec-file"),
    ] {
        let mut argv = vec!["--ledger", ledger, "--scale", "test"];
        argv.extend_from_slice(args);
        let (code, stderr) = run(campaign, &argv);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
