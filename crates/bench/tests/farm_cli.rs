//! The `farm` binary is the only figure CLI, so its argument parsing never
//! panics: a malformed command line is a one-line usage error on stderr and
//! exit status 2, before any job runs.

use std::process::Command;

#[test]
fn malformed_command_lines_are_usage_errors_not_panics() {
    for (args, needle) in [
        (&["--figures", "fig9"][..], "unknown figure \"fig9\""),
        (&["--fuzz-seeds", "many"][..], "--fuzz-seeds many"),
        (&["--jobs", "x"][..], "--jobs x"),
        (&["--small", "--out-dir"][..], "--out-dir needs a value"),
        (&["--figures"][..], "--figures needs a value"),
        (&["--figure", "fig7"][..], "unknown argument \"--figure\""),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_farm"))
            .args(args)
            .output()
            .expect("spawn farm");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: farm"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}: ran jobs");
    }
}
