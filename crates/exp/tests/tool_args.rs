//! `protocol_fuzz` and `profile_similarity` turn arguments they cannot
//! run into a usage error (a `<tool>: <message>` line and exit 2)
//! before simulating anything: never a panic, and never a silent run
//! of the defaults in place of an unparsable count.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the tool binary `exe` with `args` and returns its exit code,
/// stdout and stderr; a run still going after 30 s is killed (no code).
/// Runs in the build's scratch directory, so the result cache the
/// tools write stays out of the source tree.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tool starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("tool waits").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill(); // fails harmlessly once the tool has exited
    let out = child.wait_with_output().expect("tool output");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn unrunnable_arguments_are_usage_errors() {
    let fuzz = env!("CARGO_BIN_EXE_protocol_fuzz");
    let profile = env!("CARGO_BIN_EXE_profile_similarity");
    for (exe, args, message) in [
        (
            profile,
            &["pca", "0"][..],
            "profile_similarity: cores must be in 1..=64",
        ),
        (
            profile,
            &["pca", "100"],
            "profile_similarity: cores must be in 1..=64",
        ),
        (
            profile,
            &["pca", "x"],
            "profile_similarity: bad core count \"x\"",
        ),
        (
            profile,
            &["no_such_app"],
            "profile_similarity: unknown app no_such_app",
        ),
        (fuzz, &["x"], "protocol_fuzz: bad seed count \"x\""),
        (fuzz, &["2", "-1"], "protocol_fuzz: bad access count \"-1\""),
        (
            fuzz,
            &["0", "10"],
            "protocol_fuzz: seed count must be positive",
        ),
        (
            fuzz,
            &["1", "0"],
            "protocol_fuzz: access count must be positive",
        ),
    ] {
        let (code, _, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}; stderr:\n{stderr}");
        assert!(
            stderr.contains(message),
            "{exe} {args:?}: want {message:?}, got:\n{stderr}"
        );
    }
}

#[test]
fn a_runnable_fuzz_still_runs() {
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_protocol_fuzz"), &["2", "50"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(
        stdout.starts_with("PASS: 2 seeds x 50 accesses"),
        "{stdout}"
    );
}
