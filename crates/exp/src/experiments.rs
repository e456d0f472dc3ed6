//! The experiment registry: every figure, table and ablation of the
//! paper as a declarative run matrix plus a pure renderer.
//!
//! Each [`Experiment`] contributes (1) a `spec` builder producing the
//! exact grid of [`RunSpec`] cells the report needs at a given
//! [`Scale`], and (2) a `render` function that formats the report from
//! the cells' cached [`RunRecord`]s — renderers never simulate, so a
//! warm cache reproduces every report instantly. Because cell identity
//! is content-addressed (see [`crate::spec`]), experiments that declare
//! overlapping grids share runs: the Fig. 7–11 reports and `repro_all`
//! all declare the same evaluation sweep, every ablation reuses the
//! per-application MESI baselines, and `autotune`'s d = 4/8 ladder
//! rungs are the evaluation sweep's Ghostwriter cells.

use std::fmt::Write as _;

use ghostwriter_core::config::{GiStorePolicy, GwConfig};
use ghostwriter_core::{BaseProtocol, MachineConfig, Protocol, ScribePolicy};
use ghostwriter_noc::Mesh;
use ghostwriter_workloads::{paper_benchmarks, Suite, DEFAULT_SEED};

use crate::record::{PairView, RunRecord};
use crate::render::{banner, push_row, push_traffic_stack};
use crate::spec::{ExperimentSpec, RunKind, RunSpec, Scale, Scenario, WorkloadSpec};

/// One registered experiment.
pub struct Experiment {
    /// Registry name (`gwbench run <name>`), e.g. `fig07`.
    pub name: &'static str,
    /// One-line description for `gwbench list`.
    pub title: &'static str,
    /// Report filename under `results/`.
    pub output: &'static str,
    spec_fn: fn(Scale) -> Vec<RunSpec>,
    render_fn: fn(&ExperimentSpec, &[RunRecord]) -> String,
}

impl Experiment {
    /// The run matrix at `scale`.
    pub fn spec(&self, scale: Scale) -> ExperimentSpec {
        ExperimentSpec {
            experiment: self.name,
            runs: (self.spec_fn)(scale),
        }
    }

    /// Formats the report from the spec's records (`records[i]` is the
    /// result of `spec.runs[i]`).
    pub fn render(&self, spec: &ExperimentSpec, records: &[RunRecord]) -> String {
        assert_eq!(
            spec.runs.len(),
            records.len(),
            "{}: record mismatch",
            self.name
        );
        (self.render_fn)(spec, records)
    }
}

/// The paper's Table 2 applications, in roster order.
pub const PAPER_APPS: [&str; 6] = [
    "histogram",
    "linear_regression",
    "pca",
    "blackscholes",
    "inversek2j",
    "jpeg",
];

/// The beyond-Table-2 extension applications.
pub const EXTENDED_APPS: [&str; 2] = ["kmeans", "sobel"];

/// The two applications with runtime false sharing (ablation targets).
const FS_APPS: [&str; 2] = ["linear_regression", "jpeg"];

/// The paper's two evaluation d-distances.
pub const EVAL_DISTANCES: [u8; 2] = [4, 8];

/// The evaluation machine at a given scale (paper Table 1 at `Eval`; a
/// 4-core small machine for smoke/CI runs).
pub fn machine(scale: Scale, protocol: Protocol) -> MachineConfig {
    match scale {
        Scale::Eval => MachineConfig {
            cores: 24,
            protocol,
            ..MachineConfig::default()
        },
        Scale::Smoke => MachineConfig::small(4, protocol),
    }
}

/// Evaluation core/thread count at a given scale.
pub fn cores(scale: Scale) -> usize {
    match scale {
        Scale::Eval => 24,
        Scale::Smoke => 4,
    }
}

fn registry_wl(app: &str, scale: Scale) -> WorkloadSpec {
    WorkloadSpec::registry(app, scale.class(), DEFAULT_SEED)
}

fn workload_run(
    id: String,
    workload: WorkloadSpec,
    config: MachineConfig,
    threads: usize,
    d: u8,
) -> RunSpec {
    RunSpec {
        id,
        kind: RunKind::Workload {
            workload,
            config,
            threads,
            d,
        },
    }
}

/// The canonical MESI baseline cell for one registry application.
///
/// Baselines are keyed at d = 0: the MESI protocol ignores the
/// d-distance entirely (scribbles demote to stores before the comparator
/// is consulted), so one cached baseline serves every d the Ghostwriter
/// side sweeps — and doubles as the Fig. 2 profiling run.
fn base_run(app: &str, scale: Scale) -> RunSpec {
    workload_run(
        format!("{app}/base"),
        registry_wl(app, scale),
        machine(scale, Protocol::Mesi),
        cores(scale),
        0,
    )
}

/// One Ghostwriter cell for a registry application at distance `d`.
fn gw_run(app: &str, scale: Scale, d: u8, protocol: Protocol, tag: &str) -> RunSpec {
    workload_run(
        format!("{app}/{tag}"),
        registry_wl(app, scale),
        machine(scale, protocol),
        cores(scale),
        d,
    )
}

/// The shared Figs. 7–11 evaluation sweep: every Table 2 application at
/// every evaluation d-distance, plus one baseline per application.
fn eval_suite(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in PAPER_APPS {
        runs.push(base_run(app, scale));
        for d in EVAL_DISTANCES {
            runs.push(gw_run(
                app,
                scale,
                d,
                Protocol::ghostwriter(),
                &format!("d{d}"),
            ));
        }
    }
    runs
}

/// Looks the `(app, tag)` pair view up in an eval-suite-shaped record
/// set.
fn pair<'a>(spec: &ExperimentSpec, records: &'a [RunRecord], app: &str, tag: &str) -> PairView<'a> {
    PairView {
        base: &records[spec.index_of(&format!("{app}/base"))],
        gw: &records[spec.index_of(&format!("{app}/{tag}"))],
    }
}

/// The metric label for one Table 2 application.
fn metric_label(app: &str) -> &'static str {
    paper_benchmarks()
        .iter()
        .find(|e| e.name == app)
        .map(|e| e.metric.label())
        .unwrap_or("?")
}

// ---------------------------------------------------------------------
// Fig. 1: dot-product scaling under MESI.

fn fig01_threads(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Eval => vec![1, 2, 4, 8, 16, 24],
        Scale::Smoke => vec![1, 2, 4],
    }
}

fn fig01_n(scale: Scale) -> usize {
    match scale {
        Scale::Eval => 8_000,
        Scale::Smoke => 512,
    }
}

fn fig01_spec(scale: Scale) -> Vec<RunSpec> {
    let n = fig01_n(scale);
    let mut runs = Vec::new();
    for threads in fig01_threads(scale) {
        let cfg = MachineConfig {
            cores: threads.max(1),
            protocol: Protocol::Mesi,
            ..MachineConfig::default()
        };
        runs.push(workload_run(
            format!("bad/t{threads}"),
            WorkloadSpec::BadDot {
                seed: 1,
                n,
                approximate: false,
                work_per_point: 1,
            },
            cfg.clone(),
            threads,
            0,
        ));
        runs.push(workload_run(
            format!("good/t{threads}"),
            WorkloadSpec::GoodDot { seed: 1, n },
            cfg,
            threads,
            0,
        ));
    }
    runs
}

fn fig01_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 1",
        "dot-product speedup vs thread count (MESI baseline)",
    );
    let widths = [8usize, 14, 14];
    push_row(
        &mut out,
        &[
            "threads".into(),
            "naive (L.1)".into(),
            "private (L.2)".into(),
        ],
        &widths,
    );
    let cycles = |id: &str| records[spec.index_of(id)].cycles;
    let base_bad = cycles("bad/t1");
    let base_good = cycles("good/t1");
    let threads: Vec<usize> = spec
        .runs
        .iter()
        .filter_map(|r| r.id.strip_prefix("bad/t").and_then(|t| t.parse().ok()))
        .collect();
    for t in threads {
        push_row(
            &mut out,
            &[
                t.to_string(),
                format!(
                    "{:.2}x",
                    base_bad as f64 / cycles(&format!("bad/t{t}")) as f64
                ),
                format!(
                    "{:.2}x",
                    base_good as f64 / cycles(&format!("good/t{t}")) as f64
                ),
            ],
            &widths,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper shape: the naive version stops scaling (or slows down)"
    );
    let _ = writeln!(
        out,
        "with more threads while the privatized version scales."
    );
    out
}

// ---------------------------------------------------------------------
// Fig. 2: value-similarity CDF per application.

fn fig02_spec(scale: Scale) -> Vec<RunSpec> {
    PAPER_APPS.iter().map(|app| base_run(app, scale)).collect()
}

fn fig02_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 2",
        "cumulative d-distance distribution of overwritten store values",
    );
    let ds = [0u32, 1, 2, 4, 8, 12, 16, 24, 32];
    let mut header = vec!["app".to_string()];
    header.extend(ds.iter().map(|d| format!("<={d}")));
    let widths: Vec<usize> = std::iter::once(18usize)
        .chain(ds.iter().map(|_| 7))
        .collect();
    for suite in [Suite::AxBench, Suite::Phoenix] {
        let _ = writeln!(out, "\n[{}]", suite.label());
        push_row(&mut out, &header, &widths);
        for entry in paper_benchmarks().iter().filter(|e| e.suite == suite) {
            let hist = &records[spec.index_of(&format!("{}/base", entry.name))]
                .stats
                .similarity;
            let mut cells = vec![entry.name.to_string()];
            cells.extend(
                ds.iter()
                    .map(|&d| format!("{:.3}", hist.cumulative_fraction(d))),
            );
            push_row(&mut out, &cells, &widths);
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Paper shape: a sizeable fraction of stores are 0-distance"
    );
    let _ = writeln!(out, "(silent) and the curves rise steeply through d=4..8.");
    out
}

// ---------------------------------------------------------------------
// Figs. 4 and 5: scripted sharing-pattern traces.

fn scenario_spec(scenario: Scenario) -> Vec<RunSpec> {
    [("mesi", Protocol::Mesi), ("gw", Protocol::ghostwriter())]
        .into_iter()
        .map(|(id, protocol)| RunSpec {
            id: id.into(),
            kind: RunKind::Scenario { scenario, protocol },
        })
        .collect()
}

fn fig04_spec(_scale: Scale) -> Vec<RunSpec> {
    scenario_spec(Scenario::Fig04Migratory)
}

fn fig04_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 4",
        "migratory false sharing: MESI vs Ghostwriter GS",
    );
    let mesi = &records[spec.index_of("mesi")];
    let gw = &records[spec.index_of("gw")];
    let (mesi_msgs, gw_msgs) = (mesi.stats.traffic.total(), gw.stats.traffic.total());
    let _ = writeln!(out, "\n(a) baseline MESI — {mesi_msgs} coherence messages");
    for l in &mesi.trace {
        let _ = writeln!(out, "  {l}");
    }
    let _ = writeln!(out, "\n(b) Ghostwriter — {gw_msgs} coherence messages");
    for l in &gw.trace {
        let _ = writeln!(out, "  {l}");
    }
    let _ = writeln!(
        out,
        "\nGhostwriter eliminates {} of {} messages ({:.1}%): the scribble",
        mesi_msgs - gw_msgs,
        mesi_msgs,
        100.0 * (mesi_msgs - gw_msgs) as f64 / mesi_msgs as f64
    );
    let _ = writeln!(
        out,
        "hits in GS without an UPGRADE, and core 0's re-reads stay hits."
    );
    assert!(gw_msgs < mesi_msgs, "GS must reduce messages");
    out
}

fn fig05_spec(_scale: Scale) -> Vec<RunSpec> {
    scenario_spec(Scenario::Fig05ProducerConsumer)
}

fn fig05_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 5",
        "producer-consumer sharing: MESI vs Ghostwriter GI",
    );
    let mesi = &records[spec.index_of("mesi")];
    let gw = &records[spec.index_of("gw")];
    let (mesi_msgs, gw_msgs) = (mesi.stats.traffic.total(), gw.stats.traffic.total());
    let getx = |r: &RunRecord| r.extra_value("exclusive_requests").unwrap_or(0.0) as u64;
    let (mesi_getx, gw_getx) = (getx(mesi), getx(gw));
    let _ = writeln!(
        out,
        "\n(a) baseline MESI — {mesi_msgs} messages, {mesi_getx} GETX/UPGRADE"
    );
    for l in mesi.trace.iter().take(30) {
        let _ = writeln!(out, "  {l}");
    }
    let _ = writeln!(
        out,
        "\n(b) Ghostwriter — {gw_msgs} messages, {gw_getx} GETX/UPGRADE"
    );
    for l in gw.trace.iter().take(30) {
        let _ = writeln!(out, "  {l}");
    }
    let _ = writeln!(
        out,
        "\nGhostwriter: {} fewer messages, {} fewer exclusive requests.",
        mesi_msgs.saturating_sub(gw_msgs),
        mesi_getx.saturating_sub(gw_getx)
    );
    assert!(gw_getx < mesi_getx, "GI must reduce exclusive requests");
    out
}

// ---------------------------------------------------------------------
// Figs. 7-11: the shared evaluation sweep, one renderer per figure.

fn fig07_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 7",
        "approximate state utilization (GS / GI)",
    );
    let widths = [18usize, 4, 18, 18];
    push_row(
        &mut out,
        &[
            "app".into(),
            "d".into(),
            "serviced by GS %".into(),
            "serviced by GI %".into(),
        ],
        &widths,
    );
    let mut avg = [[0.0f64; 2]; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            let (gs, gi) = (p.gs_serviced_percent(), p.gi_serviced_percent());
            let di = usize::from(d == 8);
            avg[di][0] += gs;
            avg[di][1] += gi;
            n[di] += 1;
            push_row(
                &mut out,
                &[
                    app.into(),
                    d.to_string(),
                    format!("{gs:.1}"),
                    format!("{gi:.1}"),
                ],
                &widths,
            );
        }
    }
    for (di, d) in [4, 8].iter().enumerate() {
        push_row(
            &mut out,
            &[
                "Avg.".into(),
                d.to_string(),
                format!("{:.1}", avg[di][0] / n[di] as f64),
                format!("{:.1}", avg[di][1] / n[di] as f64),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "\nPaper: GS avg 18.7% (d=4) / 21.5% (d=8); GI avg 4.2% / 9.7%;"
    );
    let _ = writeln!(
        out,
        "linear_regression GS 63.7-69.1%; utilization grows with d."
    );
    out
}

fn fig08_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 8",
        "normalized coherence traffic by message class",
    );
    let mut avg = [0.0f64; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        let _ = writeln!(out, "\n{app}:");
        let base = &records[spec.index_of(&format!("{app}/base"))];
        let self_pair = PairView { base, gw: base };
        push_traffic_stack(
            &mut out,
            "d=0 (baseline MESI)",
            &self_pair.normalized_traffic_by_class(),
        );
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            push_traffic_stack(
                &mut out,
                &format!("d={d}"),
                &p.normalized_traffic_by_class(),
            );
            let di = usize::from(d == 8);
            avg[di] += p.normalized_traffic();
            n[di] += 1;
        }
    }
    let _ = writeln!(out);
    for (di, d) in [4, 8].iter().enumerate() {
        let _ = writeln!(
            out,
            "Average reduction at d={d}: {:.2}% (paper: 2.75% at d=4, 6.25% at d=8)",
            (1.0 - avg[di] / n[di] as f64) * 100.0
        );
    }
    out
}

fn fig09_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 9",
        "NoC + memory-hierarchy dynamic energy saved",
    );
    let widths = [18usize, 4, 12, 12, 12];
    push_row(
        &mut out,
        &[
            "app".into(),
            "d".into(),
            "memory %".into(),
            "network %".into(),
            "total %".into(),
        ],
        &widths,
    );
    let mut avg = [0.0f64; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            let (b, g) = (p.base.energy(), p.gw.energy());
            let mem = (1.0 - g.memory_pj / b.memory_pj) * 100.0;
            let net = (1.0 - g.network_pj / b.network_pj) * 100.0;
            let tot = p.energy_saved_percent();
            let di = usize::from(d == 8);
            avg[di] += tot;
            n[di] += 1;
            push_row(
                &mut out,
                &[
                    app.into(),
                    d.to_string(),
                    format!("{mem:.1}"),
                    format!("{net:.1}"),
                    format!("{tot:.1}"),
                ],
                &widths,
            );
        }
    }
    for (di, d) in [4, 8].iter().enumerate() {
        let _ = writeln!(
            out,
            "Average at d={d}: {:.1}% (paper: 7.8% at d=4, 11.2% at d=8; max 50.1%)",
            avg[di] / n[di] as f64
        );
    }
    out
}

fn fig10_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(&mut out, "Figure 10", "speedup over baseline MESI");
    let widths = [18usize, 4, 12];
    push_row(
        &mut out,
        &["app".into(), "d".into(), "speedup %".into()],
        &widths,
    );
    let mut avg = [0.0f64; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let sp = pair(spec, records, app, &format!("d{d}")).speedup_percent();
            let di = usize::from(d == 8);
            avg[di] += sp;
            n[di] += 1;
            push_row(
                &mut out,
                &[app.into(), d.to_string(), format!("{sp:.1}")],
                &widths,
            );
        }
    }
    for (di, d) in [4, 8].iter().enumerate() {
        let _ = writeln!(
            out,
            "Average at d={d}: {:.1}% (paper: 4.7% at d=4, 6.5% at d=8; max 37.3%)",
            avg[di] / n[di] as f64
        );
    }
    let _ = writeln!(
        out,
        "\nPaper shape: large gains only for apps with runtime false"
    );
    let _ = writeln!(
        out,
        "sharing (linear_regression, jpeg); no slowdown for the rest."
    );
    out
}

fn fig11_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(&mut out, "Figure 11", "output error under Ghostwriter");
    let widths = [18usize, 4, 8, 12];
    push_row(
        &mut out,
        &["app".into(), "d".into(), "metric".into(), "error %".into()],
        &widths,
    );
    let mut avg = [0.0f64; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let e = pair(spec, records, app, &format!("d{d}")).output_error_percent();
            let di = usize::from(d == 8);
            avg[di] += e;
            n[di] += 1;
            push_row(
                &mut out,
                &[
                    app.into(),
                    d.to_string(),
                    metric_label(app).into(),
                    format!("{e:.4}"),
                ],
                &widths,
            );
        }
    }
    for (di, d) in [4, 8].iter().enumerate() {
        let _ = writeln!(
            out,
            "Average at d={d}: {:.4}% (paper: < 0.02% average, < 0.12% max)",
            avg[di] / n[di] as f64
        );
    }
    out
}

// ---------------------------------------------------------------------
// Fig. 12: GI timeout sensitivity on the bad-dot microbenchmark.

const FIG12_TIMEOUTS: [u64; 3] = [128, 512, 1024];

fn fig12_wl(scale: Scale) -> WorkloadSpec {
    WorkloadSpec::BadDot {
        seed: 0xF16,
        n: fig01_n(scale),
        approximate: true,
        work_per_point: 96,
    }
}

fn fig12_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = vec![workload_run(
        "base".into(),
        fig12_wl(scale),
        machine(scale, Protocol::Mesi),
        cores(scale),
        0,
    )];
    for timeout in FIG12_TIMEOUTS {
        runs.push(workload_run(
            format!("t{timeout}"),
            fig12_wl(scale),
            machine(scale, Protocol::ghostwriter_capture(timeout)),
            cores(scale),
            4,
        ));
    }
    runs
}

fn fig12_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Figure 12",
        "GI timeout sensitivity (bad_dot_product, 4-distance)",
    );
    let widths = [10usize, 18, 14, 14];
    push_row(
        &mut out,
        &[
            "timeout".into(),
            "serviced by GI %".into(),
            "error (MPE)%".into(),
            "traffic".into(),
        ],
        &widths,
    );
    let base = &records[spec.index_of("base")];
    for timeout in FIG12_TIMEOUTS {
        let p = PairView {
            base,
            gw: &records[spec.index_of(&format!("t{timeout}"))],
        };
        push_row(
            &mut out,
            &[
                timeout.to_string(),
                format!("{:.1}", p.gi_serviced_percent()),
                format!("{:.1}", p.output_error_percent()),
                format!("{:.3}", p.normalized_traffic()),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "\nPaper shape: longer timeouts raise GI utilization (up to"
    );
    let _ = writeln!(
        out,
        "72.4% at 1024) and raise error (15.3% at 128 to 60.8% at 1024)."
    );
    out
}

// ---------------------------------------------------------------------
// Ablations.

fn ablation_contention_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in FS_APPS {
        for (label, contended) in [("free", false), ("contended", true)] {
            for (side, protocol) in [("base", Protocol::Mesi), ("gw", Protocol::ghostwriter())] {
                let mut cfg = machine(scale, protocol);
                cfg.model_contention = contended;
                // Baselines keyed at d = 0 (MESI ignores d); the
                // contention-free cells are the eval sweep's cells.
                let d = if side == "base" { 0 } else { 8 };
                runs.push(workload_run(
                    format!("{app}/{label}/{side}"),
                    registry_wl(app, scale),
                    cfg,
                    cores(scale),
                    d,
                ));
            }
        }
    }
    runs
}

fn ablation_contention_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation",
        "contention-free vs link-contended NoC",
    );
    let widths = [18usize, 14, 12, 12];
    push_row(
        &mut out,
        &[
            "app".into(),
            "NoC model".into(),
            "base cyc".into(),
            "speedup %".into(),
        ],
        &widths,
    );
    for app in FS_APPS {
        for label in ["free", "contended"] {
            let base = records[spec.index_of(&format!("{app}/{label}/base"))].cycles;
            let gw = records[spec.index_of(&format!("{app}/{label}/gw"))].cycles;
            push_row(
                &mut out,
                &[
                    app.into(),
                    label.into(),
                    base.to_string(),
                    format!("{:.1}", (base as f64 / gw as f64 - 1.0) * 100.0),
                ],
                &widths,
            );
        }
    }
    let _ = writeln!(
        out,
        "\nExpected: the contended NoC amplifies Ghostwriter's speedup."
    );
    out
}

const ERROR_BOUNDS: [Option<u32>; 5] = [None, Some(64), Some(16), Some(4), Some(1)];

fn bound_tag(bound: Option<u32>) -> String {
    bound.map_or("unbounded".into(), |b| format!("b{b}"))
}

fn ablation_error_bound_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = vec![workload_run(
        "base".into(),
        fig12_wl(scale),
        machine(scale, Protocol::Mesi),
        cores(scale),
        0,
    )];
    for bound in ERROR_BOUNDS {
        let p = Protocol::Ghostwriter(GwConfig {
            gi_stores: GiStorePolicy::Capture,
            max_hidden_writes: bound,
            ..GwConfig::default()
        });
        runs.push(workload_run(
            bound_tag(bound),
            fig12_wl(scale),
            machine(scale, p),
            cores(scale),
            4,
        ));
    }
    runs
}

fn ablation_error_bound_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation",
        "runtime error bound (§3.5) on bad_dot_product, Capture GI, d=4",
    );
    let widths = [12usize, 14, 14, 18];
    push_row(
        &mut out,
        &[
            "bound".into(),
            "error (MPE)%".into(),
            "traffic".into(),
            "serviced by GI %".into(),
        ],
        &widths,
    );
    let base = &records[spec.index_of("base")];
    for bound in ERROR_BOUNDS {
        let p = PairView {
            base,
            gw: &records[spec.index_of(&bound_tag(bound))],
        };
        push_row(
            &mut out,
            &[
                bound.map_or("unbounded".into(), |b| b.to_string()),
                format!("{:.1}", p.output_error_percent()),
                format!("{:.3}", p.normalized_traffic()),
                format!("{:.1}", p.gi_serviced_percent()),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "\nExpected: tighter bounds trade coherence-traffic savings for"
    );
    let _ = writeln!(
        out,
        "bounded worst-case error, taming the paper's pathological case."
    );
    out
}

const SCRIBE_VARIANTS: [(&str, ScribePolicy); 2] = [
    ("bitwise", ScribePolicy::Bitwise),
    ("arithmetic", ScribePolicy::Arithmetic),
];

fn ablation_scribe_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in FS_APPS {
        runs.push(base_run(app, scale));
        for (label, scribe) in SCRIBE_VARIANTS {
            for d in EVAL_DISTANCES {
                let p = Protocol::Ghostwriter(GwConfig {
                    scribe,
                    ..GwConfig::default()
                });
                runs.push(gw_run(app, scale, d, p, &format!("{label}/d{d}")));
            }
        }
    }
    runs
}

fn ablation_scribe_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation",
        "scribe comparator: bit-wise vs arithmetic",
    );
    let widths = [18usize, 12, 4, 9, 9, 9, 10];
    push_row(
        &mut out,
        &[
            "app".into(),
            "comparator".into(),
            "d".into(),
            "GS%".into(),
            "traffic".into(),
            "speedup%".into(),
            "error%".into(),
        ],
        &widths,
    );
    for app in FS_APPS {
        for (label, _) in SCRIBE_VARIANTS {
            for d in EVAL_DISTANCES {
                let p = pair(spec, records, app, &format!("{label}/d{d}"));
                push_row(
                    &mut out,
                    &[
                        app.into(),
                        label.into(),
                        d.to_string(),
                        format!("{:.1}", p.gs_serviced_percent()),
                        format!("{:.3}", p.normalized_traffic()),
                        format!("{:.1}", p.speedup_percent()),
                        format!("{:.4}", p.output_error_percent()),
                    ],
                    &widths,
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\nThe arithmetic comparator admits carry-crossing neighbours"
    );
    let _ = writeln!(
        out,
        "(paper §3.4), trading a little more error for more coverage."
    );
    out
}

fn states_protocol(enable_gs: bool, enable_gi: bool, gi_stores: GiStorePolicy) -> Protocol {
    Protocol::Ghostwriter(GwConfig {
        enable_gs,
        enable_gi,
        gi_stores,
        ..GwConfig::default()
    })
}

fn states_variants() -> [(&'static str, &'static str, Protocol); 5] {
    [
        (
            "default",
            "GS+GI (default)",
            states_protocol(true, true, GiStorePolicy::Fallback),
        ),
        (
            "gs_only",
            "GS only",
            states_protocol(true, false, GiStorePolicy::Fallback),
        ),
        (
            "gi_only",
            "GI only",
            states_protocol(false, true, GiStorePolicy::Fallback),
        ),
        (
            "capture",
            "GS+GI capture",
            states_protocol(true, true, GiStorePolicy::Capture),
        ),
        (
            "disabled",
            "disabled",
            states_protocol(false, false, GiStorePolicy::Fallback),
        ),
    ]
}

fn ablation_states_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in FS_APPS {
        runs.push(base_run(app, scale));
        for (tag, _, p) in states_variants() {
            runs.push(gw_run(app, scale, 8, p, tag));
        }
    }
    runs
}

fn ablation_states_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ablation",
        "GS / GI contribution and GI store policy",
    );
    let widths = [18usize, 22, 9, 9, 9, 10];
    push_row(
        &mut out,
        &[
            "app".into(),
            "variant".into(),
            "traffic".into(),
            "energy%".into(),
            "speedup%".into(),
            "error%".into(),
        ],
        &widths,
    );
    for app in FS_APPS {
        for (tag, label, _) in states_variants() {
            let p = pair(spec, records, app, tag);
            push_row(
                &mut out,
                &[
                    app.into(),
                    label.into(),
                    format!("{:.3}", p.normalized_traffic()),
                    format!("{:.1}", p.energy_saved_percent()),
                    format!("{:.1}", p.speedup_percent()),
                    format!("{:.4}", p.output_error_percent()),
                ],
                &widths,
            );
        }
    }
    let _ = writeln!(
        out,
        "\nExpected: GS carries most of linear_regression's benefit;"
    );
    let _ = writeln!(
        out,
        "'disabled' must match the baseline exactly (all zeros)."
    );
    out
}

// ---------------------------------------------------------------------
// Auto-tuning (§3.5): profile the whole ladder, replay first-fit.
//
// The paper points to Green/SAGE-style frameworks that pick the
// d-distance for a user's output-quality target. This experiment is that
// loop: it profiles every rung against the precise baseline and picks
// the most aggressive d whose measured error fits the budget.

/// The d ladder, most aggressive first.
const TUNE_LADDER: [u8; 6] = [12, 8, 6, 4, 2, 0];
const TUNE_BUDGET_PERCENT: f64 = 0.5;

/// The tuner's choice over a profiled ladder (most aggressive first):
/// the first rung whose output error fits [`TUNE_BUDGET_PERCENT`], or,
/// when none does, the minimum-error rung. With d = 0 on the ladder
/// (exact under the default Fallback policy) the fallback is the last
/// rung.
fn tune_pick<'a, 'r>(ladder: &'a [(u8, PairView<'r>)]) -> &'a (u8, PairView<'r>) {
    ladder
        .iter()
        .find(|(_, p)| p.output_error_percent() <= TUNE_BUDGET_PERCENT)
        .unwrap_or_else(|| {
            ladder
                .iter()
                .min_by(|a, b| {
                    a.1.output_error_percent()
                        .partial_cmp(&b.1.output_error_percent())
                        .expect("errors are finite")
                })
                .expect("ladder nonempty")
        })
}

fn autotune_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in PAPER_APPS {
        runs.push(base_run(app, scale));
        for d in TUNE_LADDER {
            runs.push(gw_run(
                app,
                scale,
                d,
                Protocol::ghostwriter(),
                &format!("d{d}"),
            ));
        }
    }
    runs
}

fn autotune_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Auto-tuning",
        "largest d-distance meeting a 0.5% output-error budget",
    );
    let widths = [18usize, 10, 10, 12, 10];
    push_row(
        &mut out,
        &[
            "app".into(),
            "chosen d".into(),
            "error %".into(),
            "speedup %".into(),
            "traffic".into(),
        ],
        &widths,
    );
    for app in PAPER_APPS {
        let candidates: Vec<(u8, PairView)> = TUNE_LADDER
            .iter()
            .map(|&d| (d, pair(spec, records, app, &format!("d{d}"))))
            .collect();
        let chosen = tune_pick(&candidates);
        push_row(
            &mut out,
            &[
                app.into(),
                chosen.0.to_string(),
                format!("{:.4}", chosen.1.output_error_percent()),
                format!("{:.1}", chosen.1.speedup_percent()),
                format!("{:.3}", chosen.1.normalized_traffic()),
            ],
            &widths,
        );
    }
    let _ = writeln!(
        out,
        "\nApplications with no runtime false sharing tune straight to"
    );
    let _ = writeln!(
        out,
        "the most aggressive setting (nothing diverges); error-prone"
    );
    let _ = writeln!(out, "ones settle where the budget binds.");
    out
}

// ---------------------------------------------------------------------
// Extended evaluation: kmeans and sobel.

fn extended_eval_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in EXTENDED_APPS {
        runs.push(base_run(app, scale));
        for d in EVAL_DISTANCES {
            runs.push(gw_run(
                app,
                scale,
                d,
                Protocol::ghostwriter(),
                &format!("d{d}"),
            ));
        }
    }
    runs
}

fn extended_eval_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Extended evaluation",
        "kmeans and sobel (beyond Table 2)",
    );
    let widths = [10usize, 3, 9, 9, 9, 9, 9, 9];
    push_row(
        &mut out,
        &[
            "app".into(),
            "d".into(),
            "GS%".into(),
            "GI%".into(),
            "traffic".into(),
            "energy%".into(),
            "speedup%".into(),
            "error%".into(),
        ],
        &widths,
    );
    for app in EXTENDED_APPS {
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            push_row(
                &mut out,
                &[
                    app.into(),
                    d.to_string(),
                    format!("{:.1}", p.gs_serviced_percent()),
                    format!("{:.1}", p.gi_serviced_percent()),
                    format!("{:.3}", p.normalized_traffic()),
                    format!("{:.1}", p.energy_saved_percent()),
                    format!("{:.1}", p.speedup_percent()),
                    format!("{:.4}", p.output_error_percent()),
                ],
                &widths,
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Value-similarity deep profile (parameterizable; registry defaults).

/// The parameterized profile spec (`profile_similarity [app] [cores]`).
/// The default `linear_regression` at the evaluation core count is the
/// Fig. 2 cell, so the profile is free once Fig. 2 has run.
pub fn profile_similarity_spec(app: &str, n_cores: usize, scale: Scale) -> ExperimentSpec {
    let mut cfg = machine(scale, Protocol::Mesi);
    cfg.cores = n_cores;
    ExperimentSpec {
        experiment: "profile_similarity",
        runs: vec![workload_run(
            format!("{app}/profile"),
            registry_wl(app, scale),
            cfg,
            n_cores,
            0,
        )],
    }
}

/// Renders the per-distance histogram profile for the spec's single run.
pub fn profile_similarity_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let run = &spec.runs[0];
    let (app, n_cores) = match &run.kind {
        RunKind::Workload {
            workload: WorkloadSpec::Registry { name, .. },
            threads,
            ..
        } => (name.clone(), *threads),
        other => panic!("profile_similarity expects a registry workload, got {other:?}"),
    };
    let mut out = String::new();
    banner(
        &mut out,
        "Value-similarity profile",
        &format!("{app} under baseline MESI, {n_cores} cores"),
    );
    let h = &records[0].stats.similarity;
    let _ = writeln!(out, "stores profiled: {}", h.total());
    let _ = writeln!(out, "\n  d   exact-count   P(<=d)   bar");
    let mut last = 0.0;
    for d in 0..=32u32 {
        let frac = h.cumulative_fraction(d);
        if d > 16 && (frac - last).abs() < 1e-9 && h.count_at(d) == 0 {
            continue; // skip empty tail rows
        }
        let bar = "#".repeat((frac * 50.0) as usize);
        let _ = writeln!(out, "{d:>3}  {:>11}  {frac:>6.3}   {bar}", h.count_at(d));
        last = frac;
    }
    let _ = writeln!(
        out,
        "\nPaper Fig. 2: on average 22.8% of overwritten values are"
    );
    let _ = writeln!(out, "0-distance, 36.4% within 4 and 43.7% within 8.");
    out
}

fn profile_default_spec(scale: Scale) -> Vec<RunSpec> {
    profile_similarity_spec("linear_regression", cores(scale), scale).runs
}

// ---------------------------------------------------------------------
// Protocol fuzzer.

fn fuzz_spec(scale: Scale) -> Vec<RunSpec> {
    let (seeds, accesses) = match scale {
        Scale::Eval => (200, 800),
        Scale::Smoke => (20, 200),
    };
    vec![RunSpec {
        id: "fuzz".into(),
        kind: RunKind::Fuzz { seeds, accesses },
    }]
}

fn fuzz_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let r = &records[spec.index_of("fuzz")];
    let get = |k: &str| r.extra_value(k).unwrap_or(0.0) as u64;
    format!(
        "PASS: {} seeds x {} accesses, {} messages\n",
        get("seeds"),
        get("accesses"),
        get("messages")
    )
}

// ---------------------------------------------------------------------
// Protocol ladder: the base-protocol family as an evaluation axis.

/// Applications for the cross-protocol grid — the Phoenix map-reduce
/// pair plus the streaming AxBench one, all in the Table 2 roster so
/// the MESI and GW-over-MESI cells alias the evaluation sweep's.
const LADDER_APPS: [&str; 3] = ["histogram", "linear_regression", "jpeg"];

/// The two bases Ghostwriter composes over in the grid.
const LADDER_GW_BASES: [BaseProtocol; 2] = [BaseProtocol::Mesi, BaseProtocol::Moesi];

/// `machine(scale, protocol)` with an explicit base protocol.
fn ladder_machine(scale: Scale, protocol: Protocol, base: BaseProtocol) -> MachineConfig {
    MachineConfig {
        base_protocol: base,
        ..machine(scale, protocol)
    }
}

/// The cross-protocol × workload grid: every base protocol exactly
/// (d = 0), plus Ghostwriter composed over MESI and MOESI (d = 8). The
/// MESI and gw-over-MESI cells are fingerprint-identical to the
/// evaluation sweep's baseline/d8 cells, so a warm eval cache serves
/// them for free.
fn protocol_ladder_spec(scale: Scale) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for app in LADDER_APPS {
        for base in BaseProtocol::ALL {
            runs.push(workload_run(
                format!("{app}/{}", base.name()),
                registry_wl(app, scale),
                ladder_machine(scale, Protocol::Mesi, base),
                cores(scale),
                0,
            ));
        }
        for base in LADDER_GW_BASES {
            runs.push(workload_run(
                format!("{app}/gw-{}", base.name()),
                registry_wl(app, scale),
                ladder_machine(scale, Protocol::ghostwriter(), base),
                cores(scale),
                8,
            ));
        }
    }
    runs
}

fn protocol_ladder_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ladder",
        "base-protocol family: cycles, traffic and the new traffic shapes",
    );
    let widths = [18usize, 10, 9, 9, 9, 10, 8];
    push_row(
        &mut out,
        &[
            "app".into(),
            "protocol".into(),
            "cycles".into(),
            "traffic".into(),
            "elided".into(),
            "cleanfwd".into(),
            "error%".into(),
        ],
        &widths,
    );
    for app in LADDER_APPS {
        let mesi = &records[spec.index_of(&format!("{app}/mesi"))];
        let base_traffic = mesi.stats.traffic.total().max(1) as f64;
        let mut row = |tag: &str| {
            let r = &records[spec.index_of(&format!("{app}/{tag}"))];
            push_row(
                &mut out,
                &[
                    app.into(),
                    tag.into(),
                    format!("{}", r.cycles),
                    format!("{:.3}", r.stats.traffic.total() as f64 / base_traffic),
                    format!("{}", r.stats.wb_elisions),
                    format!("{}", r.stats.clean_forwards),
                    format!("{:.4}", r.error_percent),
                ],
                &widths,
            );
        };
        for base in BaseProtocol::ALL {
            row(base.name());
        }
        for base in LADDER_GW_BASES {
            row(&format!("gw-{}", base.name()));
        }
    }
    let _ = writeln!(
        out,
        "
Expected: every exact row has error 0; only MOESI/MOSI elide"
    );
    let _ = writeln!(
        out,
        "writebacks, only MESIF clean-forwards; traffic is normalized"
    );
    let _ = writeln!(out, "to the MESI row of each application.");
    out
}

// ---------------------------------------------------------------------
// Tables 1 and 2: zero-run render-only reports.

fn empty_spec(_scale: Scale) -> Vec<RunSpec> {
    Vec::new()
}

fn table1_render(_spec: &ExperimentSpec, _records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(&mut out, "Table 1", "simulation configuration");
    let c = machine(Scale::Eval, Protocol::ghostwriter());
    let (w, h) = Mesh::dims_for(c.cores);
    let _ = writeln!(
        out,
        "Cores      : {} in-order cores, 1 cycle/op issue, 1 GHz",
        c.cores
    );
    let _ = writeln!(
        out,
        "L1         : private {} kB D-cache, {}-way, 64 B blocks, tree-PLRU, {}-cycle",
        c.l1_kb, c.l1_ways, c.l1_latency
    );
    let _ = writeln!(
        out,
        "L2         : shared, {} kB per core ({} banks), {}-way, 64 B blocks, tree-PLRU, {}-cycle, inclusive",
        c.l2_bank_kb, c.cores, c.l2_ways, c.l2_latency
    );
    match c.protocol {
        Protocol::Ghostwriter(gw) => {
            let _ = writeln!(
                out,
                "Coherence  : Ghostwriter protocol (baseline MESI), d-distance 4 and 8, {}-cycle GI timeout",
                gw.gi_timeout
            );
        }
        Protocol::Mesi => {
            let _ = writeln!(out, "Coherence  : MESI directory protocol");
        }
    }
    let _ = writeln!(
        out,
        "Network    : {w}x{h} mesh, XY routing, {}-cycle router, {}-cycle link, {} memory controllers at mesh corners",
        c.router_cycles,
        c.link_cycles,
        Mesh::with_paper_timing(w, h).corners().len()
    );
    let _ = writeln!(
        out,
        "DRAM       : sparse backing store, {}-cycle access (DDR3-1600 class)",
        c.dram_latency
    );
    out
}

fn table2_render(_spec: &ExperimentSpec, _records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(&mut out, "Table 2", "benchmarks");
    let widths = [20usize, 22, 16, 34, 7];
    push_row(
        &mut out,
        &[
            "application".into(),
            "domain".into(),
            "suite".into(),
            "input".into(),
            "error".into(),
        ],
        &widths,
    );
    for e in paper_benchmarks()
        .iter()
        .chain(ghostwriter_workloads::micro_benchmarks().iter())
    {
        push_row(
            &mut out,
            &[
                e.name.into(),
                e.domain.into(),
                e.suite.label().into(),
                e.input_desc.into(),
                e.metric.label().into(),
            ],
            &widths,
        );
    }
    out
}

// ---------------------------------------------------------------------
// repro_all: the full evaluation sweep report + CSV.

fn repro_all_render(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Ghostwriter reproduction",
        "full evaluation sweep (paper Figs. 7-11)",
    );
    let widths = [18usize, 3, 9, 9, 9, 9, 9, 10, 9];
    push_row(
        &mut out,
        &[
            "app".into(),
            "d".into(),
            "GS%".into(),
            "GI%".into(),
            "traffic".into(),
            "energy%".into(),
            "speedup%".into(),
            "metric".into(),
            "error%".into(),
        ],
        &widths,
    );
    let mut sums = [[0.0f64; 5]; 2];
    let mut n = [0usize; 2];
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            let vals = [
                p.gs_serviced_percent(),
                p.gi_serviced_percent(),
                p.normalized_traffic(),
                p.energy_saved_percent(),
                p.speedup_percent(),
            ];
            let di = usize::from(d == 8);
            for (s, v) in sums[di].iter_mut().zip(vals) {
                *s += v;
            }
            n[di] += 1;
            push_row(
                &mut out,
                &[
                    app.into(),
                    d.to_string(),
                    format!("{:.1}", vals[0]),
                    format!("{:.1}", vals[1]),
                    format!("{:.3}", vals[2]),
                    format!("{:.1}", vals[3]),
                    format!("{:.1}", vals[4]),
                    metric_label(app).into(),
                    format!("{:.4}", p.output_error_percent()),
                ],
                &widths,
            );
        }
    }
    let _ = writeln!(out);
    for (di, d) in [4u8, 8].iter().enumerate() {
        let k = n[di] as f64;
        let _ = writeln!(
            out,
            "Avg d={d}: GS {:.1}%  GI {:.1}%  traffic {:.3}  energy {:.1}%  speedup {:.1}%",
            sums[di][0] / k,
            sums[di][1] / k,
            sums[di][2] / k,
            sums[di][3] / k,
            sums[di][4] / k
        );
    }
    let _ = writeln!(out, "\nPer-class traffic stacks (Fig. 8):");
    for app in PAPER_APPS {
        let _ = writeln!(out, "{app}:");
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            push_traffic_stack(
                &mut out,
                &format!("d={d}"),
                &p.normalized_traffic_by_class(),
            );
        }
    }
    let _ = writeln!(
        out,
        "\nSee fig01/fig02/fig04/fig05/fig12 reports for the remaining figures."
    );
    out
}

/// The evaluation sweep as CSV, one row per app × d (matches the old
/// `repro_all --csv` output).
pub fn eval_csv(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    let mut out = String::from(concat!(
        "app,d,gs_serviced_pct,gi_serviced_pct,normalized_traffic,",
        "energy_saved_pct,speedup_pct,error_pct,base_cycles,gw_cycles,",
        "base_messages,gw_messages\n"
    ));
    for app in PAPER_APPS {
        for d in EVAL_DISTANCES {
            let p = pair(spec, records, app, &format!("d{d}"));
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.4},{:.6},{:.4},{:.4},{:.6},{},{},{},{}",
                app,
                d,
                p.gs_serviced_percent(),
                p.gi_serviced_percent(),
                p.normalized_traffic(),
                p.energy_saved_percent(),
                p.speedup_percent(),
                p.output_error_percent(),
                p.base.cycles,
                p.gw.cycles,
                p.base.stats.traffic.total(),
                p.gw.stats.traffic.total(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Registry.

/// Every registered experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig01",
            title: "dot-product speedup vs thread count (MESI baseline)",
            output: "fig01_false_sharing.txt",
            spec_fn: fig01_spec,
            render_fn: fig01_render,
        },
        Experiment {
            name: "fig02",
            title: "cumulative d-distance distribution of store values",
            output: "fig02_value_similarity.txt",
            spec_fn: fig02_spec,
            render_fn: fig02_render,
        },
        Experiment {
            name: "fig04",
            title: "migratory false-sharing message traces (GS)",
            output: "fig04_migratory.txt",
            spec_fn: fig04_spec,
            render_fn: fig04_render,
        },
        Experiment {
            name: "fig05",
            title: "producer-consumer message traces (GI)",
            output: "fig05_producer_consumer.txt",
            spec_fn: fig05_spec,
            render_fn: fig05_render,
        },
        Experiment {
            name: "fig07",
            title: "approximate state utilization (GS / GI)",
            output: "fig07_state_utilization.txt",
            spec_fn: eval_suite,
            render_fn: fig07_render,
        },
        Experiment {
            name: "fig08",
            title: "normalized coherence traffic by message class",
            output: "fig08_coherence_traffic.txt",
            spec_fn: eval_suite,
            render_fn: fig08_render,
        },
        Experiment {
            name: "fig09",
            title: "NoC + memory-hierarchy dynamic energy saved",
            output: "fig09_energy.txt",
            spec_fn: eval_suite,
            render_fn: fig09_render,
        },
        Experiment {
            name: "fig10",
            title: "speedup over baseline MESI",
            output: "fig10_speedup.txt",
            spec_fn: eval_suite,
            render_fn: fig10_render,
        },
        Experiment {
            name: "fig11",
            title: "output error under Ghostwriter",
            output: "fig11_error.txt",
            spec_fn: eval_suite,
            render_fn: fig11_render,
        },
        Experiment {
            name: "fig12",
            title: "GI timeout sensitivity (bad_dot_product)",
            output: "fig12_timeout_sensitivity.txt",
            spec_fn: fig12_spec,
            render_fn: fig12_render,
        },
        Experiment {
            name: "ablation_contention",
            title: "contention-free vs link-contended NoC",
            output: "ablation_contention.txt",
            spec_fn: ablation_contention_spec,
            render_fn: ablation_contention_render,
        },
        Experiment {
            name: "ablation_error_bound",
            title: "runtime error bound (§3.5) sweep",
            output: "ablation_error_bound.txt",
            spec_fn: ablation_error_bound_spec,
            render_fn: ablation_error_bound_render,
        },
        Experiment {
            name: "ablation_scribe",
            title: "scribe comparator: bit-wise vs arithmetic",
            output: "ablation_scribe.txt",
            spec_fn: ablation_scribe_spec,
            render_fn: ablation_scribe_render,
        },
        Experiment {
            name: "ablation_states",
            title: "GS / GI contribution and GI store policy",
            output: "ablation_states.txt",
            spec_fn: ablation_states_spec,
            render_fn: ablation_states_render,
        },
        Experiment {
            name: "autotune",
            title: "d-distance auto-tuning for a 0.5% error budget",
            output: "autotune.txt",
            spec_fn: autotune_spec,
            render_fn: autotune_render,
        },
        Experiment {
            name: "extended_eval",
            title: "kmeans and sobel (beyond Table 2)",
            output: "extended_eval.txt",
            spec_fn: extended_eval_spec,
            render_fn: extended_eval_render,
        },
        Experiment {
            name: "profile_similarity",
            title: "per-distance similarity histogram (default app)",
            output: "profile_similarity.txt",
            spec_fn: profile_default_spec,
            render_fn: profile_similarity_render,
        },
        Experiment {
            name: "protocol_fuzz",
            title: "random protocol tester sweep",
            output: "protocol_fuzz.txt",
            spec_fn: fuzz_spec,
            render_fn: fuzz_render,
        },
        Experiment {
            name: "table1",
            title: "simulation configuration (Table 1)",
            output: "table1_config.txt",
            spec_fn: empty_spec,
            render_fn: table1_render,
        },
        Experiment {
            name: "table2",
            title: "benchmark roster (Table 2)",
            output: "table2_benchmarks.txt",
            spec_fn: empty_spec,
            render_fn: table2_render,
        },
        Experiment {
            name: "protocol_ladder",
            title: "base-protocol family grid (MESI/MSI/MOESI/MOSI/MESIF + GW)",
            output: "protocol_ladder.txt",
            spec_fn: protocol_ladder_spec,
            render_fn: protocol_ladder_render,
        },
        Experiment {
            name: "repro_all",
            title: "full evaluation sweep (Figs. 7-11) + CSV",
            output: "repro_all.txt",
            spec_fn: eval_suite,
            render_fn: repro_all_render,
        },
    ]
}

/// Registry lookup by name.
pub fn find_experiment(name: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_covers_all_legacy_binaries() {
        assert_eq!(all_experiments().len(), 22);
        let names: BTreeSet<_> = all_experiments().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 22, "names must be unique");
        assert!(find_experiment("fig07").is_some());
        assert!(find_experiment("nonesuch").is_none());
    }

    #[test]
    fn eval_suite_is_shared_across_figures() {
        // Figs. 7-11 and repro_all declare fingerprint-identical grids,
        // so one sweep's cache serves all six reports.
        let fig07 = find_experiment("fig07").unwrap().spec(Scale::Smoke);
        let repro = find_experiment("repro_all").unwrap().spec(Scale::Smoke);
        let fp =
            |s: &ExperimentSpec| -> Vec<_> { s.runs.iter().map(|r| r.fingerprint()).collect() };
        assert_eq!(fp(&fig07), fp(&repro));
    }

    #[test]
    fn baselines_dedup_with_fig02_profiles() {
        // The Fig. 2 profiling runs are exactly the eval baselines.
        let fig02 = find_experiment("fig02").unwrap().spec(Scale::Smoke);
        let fig07 = find_experiment("fig07").unwrap().spec(Scale::Smoke);
        let sweep_fps: BTreeSet<_> = fig07.runs.iter().map(|r| r.fingerprint()).collect();
        for run in &fig02.runs {
            assert!(
                sweep_fps.contains(&run.fingerprint()),
                "{}: fig02 cell must alias an eval baseline",
                run.id
            );
        }
    }

    /// Synthetic Ghostwriter records with the given output errors, one
    /// per rung of a descending ladder.
    fn tune_ladder(errors: &[f64]) -> Vec<RunRecord> {
        errors
            .iter()
            .map(|&error_percent| RunRecord {
                error_percent,
                ..Default::default()
            })
            .collect()
    }

    fn tune_choice(ladder: &[u8], errors: &[f64]) -> u8 {
        let base = RunRecord::default();
        let records = tune_ladder(errors);
        let candidates: Vec<(u8, PairView)> = ladder
            .iter()
            .zip(&records)
            .map(|(&d, gw)| (d, PairView { base: &base, gw }))
            .collect();
        tune_pick(&candidates).0
    }

    #[test]
    fn autotune_picks_first_rung_within_budget() {
        // Descending ladder: the first rung that fits is the largest d,
        // even when a later rung has lower error.
        assert_eq!(
            tune_choice(&TUNE_LADDER, &[9.0, 0.5, 0.1, 0.0, 0.0, 0.0]),
            8
        );
        assert_eq!(
            tune_choice(&TUNE_LADDER, &[0.2, 0.0, 0.0, 0.0, 0.0, 0.0]),
            12
        );
        // A loose budget admits the most aggressive rung.
        assert_eq!(tune_choice(&TUNE_LADDER, &[0.0; 6]), TUNE_LADDER[0]);
        // Just over the budget does not fit.
        assert_eq!(tune_choice(&[8, 4], &[0.5001, 0.4]), 4);
    }

    #[test]
    fn autotune_falls_back_to_minimum_error_rung() {
        // No rung fits the 0.5% budget: the least-bad rung wins, wherever
        // it sits on the ladder.
        assert_eq!(tune_choice(&[8, 4, 0], &[3.0, 1.5, 2.0]), 4);
        assert_eq!(tune_choice(&[8, 4], &[0.9, 7.0]), 8);
    }

    #[test]
    fn tables_declare_no_runs() {
        for name in ["table1", "table2"] {
            let spec = find_experiment(name).unwrap().spec(Scale::Eval);
            assert!(spec.runs.is_empty(), "{name} must be render-only");
        }
    }

    #[test]
    fn smoke_specs_are_bounded() {
        // CI runs the whole smoke matrix; keep the distinct-cell count
        // within budget so the cold pass stays fast.
        let mut distinct = BTreeSet::new();
        let mut total = 0usize;
        for exp in all_experiments() {
            let spec = exp.spec(Scale::Smoke);
            total += spec.runs.len();
            distinct.extend(spec.runs.iter().map(|r| r.fingerprint()));
        }
        assert!(total > distinct.len(), "cross-experiment dedup must exist");
        assert!(
            distinct.len() <= 120,
            "smoke matrix too large: {} distinct cells",
            distinct.len()
        );
    }
}
