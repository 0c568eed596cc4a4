//! The shared figure-binary flags reject unknown values: a message on
//! stderr and exit status 2, before any simulation starts.

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
