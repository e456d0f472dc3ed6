//! The replay command printed in a failure report must work verbatim
//! (ISSUE PR 6): this suite extracts the `replay: gwcheck …` line from
//! `Counterexample::describe`, runs the actual `gwcheck` binary with
//! exactly those arguments, and asserts the same failure reproduces.

use std::process::Command;

use ghostwriter_check::{run_sweep, Mutation, ProtocolKind, ShardOptions, SweepSpec};

fn opts() -> ShardOptions {
    ShardOptions {
        jobs: 2,
        use_cache: false,
        ..Default::default()
    }
}

/// Pulls the replay command out of a describe() report and splits it
/// into argv (the trace token contains no spaces, so whitespace
/// splitting is exact).
fn replay_argv(described: &str) -> Vec<String> {
    let line = described
        .lines()
        .find_map(|l| l.trim().strip_prefix("replay: "))
        .expect("describe() contains a replay line");
    let mut words = line.split_whitespace().map(str::to_string);
    assert_eq!(words.next().as_deref(), Some("gwcheck"));
    words.collect()
}

fn run_gwcheck(argv: &[String]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gwcheck"))
        .args(argv)
        .output()
        .expect("gwcheck runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().expect("gwcheck exits"), stdout)
}

#[test]
fn printed_replay_command_reproduces_the_failure() {
    let spec = SweepSpec {
        mutation: Some(Mutation::SkipInvalidation),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    let (outcome, _) = run_sweep(&spec, &opts());
    let cex = outcome.counterexample.expect("mutation caught");
    let described = cex.describe(&spec);
    let argv = replay_argv(&described);

    let (code, stdout) = run_gwcheck(&argv);
    assert_eq!(code, 1, "replay must reproduce the failure:\n{stdout}");
    assert!(stdout.contains("REPRODUCED"), "stdout: {stdout}");
    // The replayed failure is the same failure, verbatim.
    assert!(
        stdout.contains(&cex.failure.to_string()),
        "replay printed a different failure.\nwant: {}\ngot: {stdout}",
        cex.failure
    );
}

#[test]
fn raw_counterexample_replay_command_also_reproduces() {
    // The pre-shrink trace (with its shard prefix) must replay too —
    // it is what the search actually walked.
    let spec = SweepSpec {
        mutation: Some(Mutation::DropInvAck),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    let (outcome, _) = run_sweep(&spec, &opts());
    let raw = outcome.raw_counterexample.expect("mutation caught");
    assert!(raw.prefix_len > 0, "raw trace keeps its shard prefix");
    let argv = replay_argv(&raw.describe(&spec));
    let (code, stdout) = run_gwcheck(&argv);
    assert_eq!(code, 1, "raw replay must reproduce:\n{stdout}");
    assert!(
        stdout.contains(&raw.failure.to_string()),
        "stdout: {stdout}"
    );
}

#[test]
fn clean_trace_replay_exits_zero() {
    let (code, stdout) = run_gwcheck(&[
        "--protocol".into(),
        "mesi".into(),
        "--cores".into(),
        "2".into(),
        "--blocks".into(),
        "1".into(),
        "--ops".into(),
        "2".into(),
        "--replay".into(),
        "i0:0s,d0>2".into(),
    ]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("CLEAN"), "stdout: {stdout}");
}

#[test]
fn malformed_trace_is_a_usage_error() {
    let (code, _) = run_gwcheck(&[
        "--protocol".into(),
        "mesi".into(),
        "--replay".into(),
        "i0:0s,bogus".into(),
    ]);
    assert_eq!(code, 2);
}

#[test]
fn trace_with_a_never_enabled_action_is_a_usage_error() {
    // Core 5 does not exist on a 2-core config, and node 9 is no
    // endpoint: neither action can ever fire, so the trace is not
    // clean, it cannot run at all.
    for (trace, position, token) in [("i5:0s", 0, "i5:0s"), ("i0:0s,d9>9", 1, "d9>9")] {
        let out = Command::new(env!("CARGO_BIN_EXE_gwcheck"))
            .args(["--protocol", "mesi", "--replay", trace])
            .output()
            .expect("gwcheck runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{trace}: stderr:\n{stderr}");
        assert!(!stdout.contains("CLEAN"), "{trace}: stdout: {stdout}");
        assert!(
            stderr.contains(&format!(
                "--replay action {position} ({token}) is not enabled"
            )),
            "{trace}: stderr: {stderr}"
        );
    }
}
