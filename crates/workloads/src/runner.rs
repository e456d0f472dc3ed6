//! The workload abstraction and the paper's evaluation harness.
//!
//! A [`Workload`] knows how to populate a [`Machine`] with its inputs and
//! threads, how to read its output back from the final coherent memory
//! image, and what a precise execution produces. [`execute`] runs one
//! configuration; [`compare`] runs the paper's baseline-vs-Ghostwriter
//! experiment and derives every Fig. 7–11 quantity.

use ghostwriter_core::{
    FaultConfig, FinishedRun, Machine, MachineConfig, Protocol, SimAbort, SimReport,
};

use crate::metrics::Metric;

/// One benchmark, rebuildable for repeated runs with identical inputs.
pub trait Workload {
    /// Short identifier (paper Table 2 name).
    fn name(&self) -> &'static str;
    /// Output-quality metric for this application.
    fn metric(&self) -> Metric;
    /// Allocates inputs/outputs in `m` and registers `threads` simulated
    /// threads. `d` is the d-distance used by `approx_begin` (ignored
    /// under the MESI baseline, where scribbles demote to stores).
    fn build(&mut self, m: &mut Machine, threads: usize, d: u8);
    /// Reads the application output from the final coherent memory.
    fn output(&self, run: &FinishedRun) -> Vec<f64>;
    /// Output of a precise (sequential, exact) execution.
    fn reference(&self) -> Vec<f64>;
}

/// Result of one simulated execution.
pub struct RunOutcome {
    /// Full simulator report.
    pub report: SimReport,
    /// Application output read back from coherent memory.
    pub output: Vec<f64>,
    /// Output error vs the precise reference, in percent.
    pub error_percent: f64,
}

/// Runs `workload` once on a machine with `cfg`, `threads` threads and
/// d-distance `d`.
///
/// ```
/// use ghostwriter_core::{MachineConfig, Protocol};
/// use ghostwriter_workloads::{execute, BadDotProduct};
/// let mut w = BadDotProduct::new(1, 128, true);
/// let out = execute(&mut w, MachineConfig::small(2, Protocol::Mesi), 2, 4);
/// assert_eq!(out.error_percent, 0.0); // baseline MESI is exact
/// ```
pub fn execute(
    workload: &mut dyn Workload,
    cfg: MachineConfig,
    threads: usize,
    d: u8,
) -> RunOutcome {
    assert!(threads >= 1 && threads <= cfg.cores);
    run_built(workload, Machine::new(cfg), threads, d)
}

/// [`execute`] under a fault-injection configuration, with the abort
/// surfaced as a value: a run that exhausts its retry budget (or hits
/// any other typed protocol error) returns `Err(SimAbort)` instead of
/// panicking, so a resilience campaign can record the cell as
/// unrecovered and keep sweeping.
pub fn execute_faulty(
    workload: &mut dyn Workload,
    cfg: MachineConfig,
    threads: usize,
    d: u8,
    faults: FaultConfig,
) -> Result<RunOutcome, SimAbort> {
    assert!(threads >= 1 && threads <= cfg.cores);
    let mut m = Machine::new(cfg);
    m.set_faults(faults);
    workload.build(&mut m, threads, d);
    let run = m.try_run()?;
    Ok(finish(workload, run))
}

fn run_built(workload: &mut dyn Workload, mut m: Machine, threads: usize, d: u8) -> RunOutcome {
    workload.build(&mut m, threads, d);
    finish(workload, m.run())
}

fn finish(workload: &dyn Workload, run: FinishedRun) -> RunOutcome {
    let output = workload.output(&run);
    let reference = workload.reference();
    let error_percent = workload.metric().evaluate(&reference, &output);
    RunOutcome {
        report: run.report,
        output,
        error_percent,
    }
}

/// The paper's per-application experiment: one baseline MESI run and one
/// Ghostwriter run on identical inputs, plus the derived quantities.
pub struct Comparison {
    /// Application name.
    pub name: &'static str,
    /// d-distance used for the Ghostwriter run.
    pub d: u8,
    /// Baseline MESI outcome.
    pub baseline: RunOutcome,
    /// Ghostwriter outcome.
    pub ghostwriter: RunOutcome,
}

impl Comparison {
    /// Fig. 7a: % of stores that would have missed on S serviced by GS.
    pub fn gs_serviced_percent(&self) -> f64 {
        self.ghostwriter.report.stats.gs_service_fraction() * 100.0
    }

    /// Fig. 7b: % of stores that would have missed on I serviced by GI.
    pub fn gi_serviced_percent(&self) -> f64 {
        self.ghostwriter.report.stats.gi_service_fraction() * 100.0
    }

    /// Fig. 8: Ghostwriter coherence traffic normalized to baseline.
    pub fn normalized_traffic(&self) -> f64 {
        self.ghostwriter
            .report
            .normalized_traffic_vs(&self.baseline.report)
    }

    /// Fig. 9: % dynamic energy saved in NoC + memory hierarchy.
    pub fn energy_saved_percent(&self) -> f64 {
        self.ghostwriter
            .report
            .energy_saved_percent_vs(&self.baseline.report)
    }

    /// Fig. 10: % speedup over the baseline.
    pub fn speedup_percent(&self) -> f64 {
        self.ghostwriter
            .report
            .speedup_percent_vs(&self.baseline.report)
    }

    /// Fig. 11: output error of the Ghostwriter run, in percent.
    pub fn output_error_percent(&self) -> f64 {
        self.ghostwriter.error_percent
    }
}

/// Runs the baseline/Ghostwriter pair for one workload. `factory` must
/// produce identically-seeded workloads.
pub fn compare(
    factory: &dyn Fn() -> Box<dyn Workload>,
    cores: usize,
    threads: usize,
    d: u8,
    gw_protocol: Protocol,
) -> Comparison {
    assert!(gw_protocol.is_ghostwriter());
    let mk_cfg = |protocol| MachineConfig {
        cores,
        protocol,
        ..MachineConfig::default()
    };
    let mut base_w = factory();
    let baseline = execute(base_w.as_mut(), mk_cfg(Protocol::Mesi), threads, d);
    assert_eq!(
        baseline.error_percent,
        0.0,
        "{}: baseline MESI must be exact",
        base_w.name()
    );
    let mut gw_w = factory();
    let name = gw_w.name();
    let ghostwriter = execute(gw_w.as_mut(), mk_cfg(gw_protocol), threads, d);
    Comparison {
        name,
        d,
        baseline,
        ghostwriter,
    }
}

/// Convenience wrapper using the paper's default Ghostwriter protocol.
pub fn compare_default(
    factory: &dyn Fn() -> Box<dyn Workload>,
    cores: usize,
    threads: usize,
    d: u8,
) -> Comparison {
    compare(factory, cores, threads, d, Protocol::ghostwriter())
}
