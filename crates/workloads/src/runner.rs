//! The workload abstraction and its runner.
//!
//! A [`Workload`] knows how to populate a [`Machine`] with its inputs and
//! threads, how to read its output back from the final coherent memory
//! image, and what a precise execution produces. [`execute`] runs one
//! configuration. Baseline-vs-Ghostwriter comparisons are two
//! `execute` calls; the Fig. 7–10 formulas over a pair live on
//! `ghostwriter_core::Stats` (the experiment engine's `PairView`
//! applies them to cached records).

use ghostwriter_core::{FaultConfig, FinishedRun, Machine, MachineConfig, SimAbort, SimReport};

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
