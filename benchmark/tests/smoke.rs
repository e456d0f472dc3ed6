//! Proves the benchmark runs end to end: the `--smoke` size (Test-scale
//! inputs, one repetition, every output check) through the real binary,
//! for the measurement, the traced run and the comparison.

use std::process::Command;

use ghostwriter_core::Json;

/// Runs the benchmark binary and returns its parsed result line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_gw-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gw-benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the result line is JSON");
    assert_eq!(doc.field("correct").unwrap(), &Json::Bool(true));
    assert_eq!(doc.field("failed").unwrap().as_u64().unwrap(), 0);
    assert!(doc.field("attempted").unwrap().as_u64().unwrap() > 0);
    doc
}

fn metric_names(doc: &Json) -> Vec<String> {
    match doc.field("metrics").unwrap() {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn smoke_run_trace_and_compare() {
    for workload in [
        "paper_eval",
        "private_hits",
        "sharing_storm",
        "check_sweep",
        "fault_grid",
    ] {
        let doc = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert_eq!(
            metric_names(&doc),
            ["wall_s", "setup_s", "peak_rss_mb"],
            "{workload}"
        );
        for (_, m) in match doc.field("metrics").unwrap() {
            Json::Obj(fields) => fields.clone(),
            _ => unreachable!(),
        } {
            assert!(
                m.field("value").unwrap().as_f64().unwrap() > 0.0,
                "{workload}"
            );
        }
    }

    let traced = run(&["trace", "--smoke", "--workload", "check_sweep"]);
    let declared = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let per_layer: Vec<String> = declared
        .field("per_layer")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| m.field("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(metric_names(&traced), per_layer);

    let run_json = concat!(env!("CARGO_MANIFEST_DIR"), "/out/run.json");
    let status = Command::new(env!("CARGO_BIN_EXE_gw-benchmark"))
        .args(["compare", run_json, run_json])
        .status()
        .unwrap();
    assert!(
        status.success(),
        "a run compared with itself is never worse"
    );
}
