//! The headline reproduction, pinned as a regression test: the paper's
//! strongest result (linear_regression under Ghostwriter) must keep its
//! shape — large speedup and traffic cut at near-zero output error — and
//! the no-false-sharing applications must remain completely unaffected.
//!
//! Runs at paper scale (24 cores, Eval inputs), a few seconds.

use ghostwriter::core::{speedup_percent, MachineConfig, Protocol};
use ghostwriter::workloads::{execute, paper_benchmarks, RunOutcome, ScaleClass};

/// One Table 2 application at paper scale (24 cores, 24 threads, Eval
/// inputs, d = 8): the baseline MESI run and the Ghostwriter run.
fn baseline_and_ghostwriter(name: &str) -> (RunOutcome, RunOutcome) {
    let entry = paper_benchmarks()
        .into_iter()
        .find(|e| e.name == name)
        .expect("registry");
    let run = |protocol| {
        let cfg = MachineConfig {
            cores: 24,
            protocol,
            ..MachineConfig::default()
        };
        execute(entry.build(ScaleClass::Eval).as_mut(), cfg, 24, 8)
    };
    let base = run(Protocol::Mesi);
    assert_eq!(
        base.error_percent, 0.0,
        "{name}: baseline MESI must be exact"
    );
    (base, run(Protocol::ghostwriter()))
}

#[test]
fn linear_regression_headline_shape() {
    let (base, gw) = baseline_and_ghostwriter("linear_regression");
    let speedup = speedup_percent(base.report.cycles, gw.report.cycles);
    let traffic = gw.report.stats.normalized_traffic_vs(&base.report.stats);
    let gs_serviced = gw.report.stats.gs_service_fraction() * 100.0;
    // Paper: 27.2-37.3% speedup, -22.8% traffic, 63.7-69.1% GS service,
    // <0.12% error. Our regression bands are looser but directional.
    assert!(speedup > 15.0, "speedup collapsed: {speedup:.1}%");
    assert!(traffic < 0.8, "traffic reduction lost: {traffic:.3}");
    assert!(gs_serviced > 60.0, "GS utilization lost: {gs_serviced:.1}%");
    assert!(
        gw.error_percent < 0.12,
        "error above the paper's ceiling: {:.4}%",
        gw.error_percent
    );
    assert!(gw.report.energy.percent_saved_vs(&base.report.energy) > 15.0);
}

#[test]
fn no_false_sharing_apps_are_untouched() {
    for name in ["histogram", "blackscholes", "inversek2j"] {
        let (base, gw) = baseline_and_ghostwriter(name);
        // Paper §4.3: "Ghostwriter does not provide performance gains nor
        // does it degrade performance for applications that do not show
        // false sharing... It also does not introduce error."
        assert_eq!(
            base.report.cycles, gw.report.cycles,
            "{name}: cycles changed"
        );
        assert_eq!(
            base.report.stats.traffic.total(),
            gw.report.stats.traffic.total(),
            "{name}: traffic changed"
        );
        assert_eq!(gw.error_percent, 0.0, "{name}: error introduced");
    }
}
