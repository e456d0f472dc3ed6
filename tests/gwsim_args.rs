//! `gwsim` turns flag values the machine cannot run into a usage error
//! (a message and exit 2) before simulating anything: never a panic,
//! and never a hang — `--switch 0` used to reschedule itself in the same
//! cycle forever.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `gwsim bad_dot_product --scale test <args>` and returns its exit
/// code and stderr; a run still going after 30 s is killed (no code).
fn gwsim(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gwsim"))
        .args(["bad_dot_product", "--scale", "test"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gwsim starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("gwsim waits").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill(); // fails harmlessly once gwsim has exited
    let out = child.wait_with_output().expect("gwsim output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn unrunnable_flag_values_are_usage_errors() {
    for (args, message) in [
        (&["--cores", "0"][..], "cores must be in 1..=64"),
        (&["--cores", "100"], "cores must be in 1..=64"),
        (&["--threads", "0"], "--threads must be in 1..=24"),
        (
            &["--cores", "4", "--threads", "9"],
            "--threads must be in 1..=4",
        ),
        (&["--timeout", "0"], "GI timeout must be positive"),
        (&["--bound", "0"], "error bound must be positive"),
        (&["--d", "200"], "--d must be below 64"),
        (&["--switch", "0"], "context-switch period must be positive"),
    ] {
        let (code, stderr) = gwsim(args);
        assert_eq!(code, Some(2), "gwsim {args:?}; stderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("gwsim: {message}")),
            "gwsim {args:?}: want {message:?}, got:\n{stderr}"
        );
    }
}

#[test]
fn a_runnable_configuration_still_runs() {
    let (code, stderr) = gwsim(&["--cores", "2", "--switch", "500"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
}
