//! `gwcheck` rejects sizes the checker cannot represent with a typed
//! usage error (exit 2), never a panic: the state key packs each core's
//! remaining issue budget, and the fault budget, into 4-bit fields, and
//! the L2 holding the whole pool in one set has at most 64 ways.

use std::process::Command;

fn gwcheck(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gwcheck"))
        .args(args)
        .args(["--no-cache", "--jobs", "1"])
        .output()
        .expect("gwcheck runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("gwcheck exits"), stderr)
}

#[test]
fn out_of_range_sizes_are_usage_errors() {
    for (args, message) in [
        (&["--ops", "16"][..], "--ops must be <= 15"),
        (&["--cores", "17"][..], "--cores must be <= 16"),
        (
            &["--fault-budget", "16"][..],
            "--fault-budget must be <= 15",
        ),
        (
            &["--cores", "16", "--fault-budget", "1"][..],
            "--fault-budget needs --cores <= 15",
        ),
        (&["--blocks", "65"][..], "--blocks must be <= 64"),
    ] {
        let (code, stderr) = gwcheck(args);
        assert_eq!(code, 2, "gwcheck {args:?} must exit 2; stderr:\n{stderr}");
        assert!(
            !stderr.contains("panicked"),
            "gwcheck {args:?} panicked:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("gwcheck: {message}")),
            "gwcheck {args:?}: want {message:?}, got:\n{stderr}"
        );
    }
}
