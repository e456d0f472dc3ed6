//! `gw-benchmark trace`: the per-layer run.
//!
//! For each workload it runs one untraced repetition, then the same
//! work again traced: the cycle-attribution profiler on every `Machine`
//! it builds, and spans recorded by this benchmark around each call it
//! makes into a layer. The traced repetition must reproduce the untraced
//! one exactly, and every profiled run's attributed cycles must equal
//! its simulated cycles. Then the per-layer kernels run, and the per-layer
//! metrics are derived. Spans are kept in memory and written to
//! `out/trace.json` at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use ghostwriter_check::run_sweep;
use ghostwriter_core::{Json, Machine, Phase, Profile, Stats, ALL_PHASES};
use ghostwriter_exp::engine::execute_spec;
use ghostwriter_exp::{RunKind, RunRecord, RunSpec};

use crate::kernels::{self, KernelInputs};
use crate::metrics::{self, Measured, PER_LAYER};
use crate::run::min;
use crate::stats::{percentile, tail_percentile};
use crate::workloads::{
    distinct, run_rep, sim_ops, sweep_options, warm_runs, Detail, Input, Size, SweepResult,
    TempCache, Workload,
};

/// One recorded span.
struct Span {
    parent: Option<usize>,
    /// One trace per workload repetition (and one for the kernels).
    trace: u32,
    name: String,
    layer: &'static str,
    workload: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u32,
    workload: &'static str,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
            workload: "",
        }
    }

    /// Starts a new trace; later spans belong to `workload`.
    pub fn begin_trace(&mut self, workload: &'static str) {
        self.trace += 1;
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span of `layer`, nested in the innermost open one.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            trace: self.trace,
            name: name.into(),
            layer,
            workload: self.workload,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time (duration minus the children's) summed per
    /// (workload, layer).
    fn self_times(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry((s.workload, s.layer)).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut j = Json::obj();
                j.push("id", Json::U64(id as u64));
                j.push(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                );
                j.push("trace", Json::U64(u64::from(s.trace)));
                j.push("name", Json::Str(s.name.clone()));
                j.push("layer", Json::Str(s.layer.into()));
                j.push("workload", Json::Str(s.workload.into()));
                j.push("start_ns", Json::U64(s.start_ns));
                j.push("end_ns", Json::U64(s.end_ns));
                j
            })
            .collect();
        Json::Arr(spans)
    }
}

/// One profiled machine run.
struct Profiled {
    cycles: u64,
    profile: Profile,
}

/// One workload's untraced and traced repetitions.
struct Traced {
    workload: Workload,
    untraced_secs: f64,
    traced_secs: f64,
    untraced: Detail,
    profiled: Vec<Profiled>,
    /// Paper and fault cells: host seconds per traced cell, and whether
    /// it was the fuzz cell.
    cells: Vec<(f64, bool)>,
    sweeps: Vec<SweepResult>,
}

/// Accumulates failed checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

fn stats_text(stats: &Stats) -> String {
    stats.to_json().to_compact()
}

/// The profiler charges every simulated cycle to a phase, so attributed
/// cycles equal simulated cycles. Under fault injection the retry and
/// fault-tick events are not charged, so there attributed cycles may
/// only fall short; the shortfall is reported as
/// `core.fault.unattributed_share`.
fn reconciles(profile: &Profile, cycles: u64, faulty: bool) -> bool {
    let attributed = profile.attributed_cycles();
    attributed == cycles || (faulty && attributed < cycles)
}

/// Runs one cell with the profiler on, the way `Engine` would run it,
/// and checks it against the untraced record.
fn traced_cell(
    spec: &RunSpec,
    record: &RunRecord,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Option<Profiled> {
    let (workload, config, threads, d, faults) = match &spec.kind {
        RunKind::Workload {
            workload,
            config,
            threads,
            d,
        } => (workload, config, *threads, *d, None),
        RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            faults,
        } => (workload, config, *threads, *d, Some(*faults)),
        _ => {
            let rec = t.span("execute_spec", "core", |_| execute_spec(spec));
            checks.expect(rec.canonical_text() == record.canonical_text(), || {
                format!("{}: traced record differs from the untraced one", spec.id)
            });
            return None;
        }
    };
    let (app, machine) = t.span("build", "workloads", |_| {
        let mut app = workload.build();
        let mut m = Machine::new(config.clone());
        if let Some(f) = faults {
            m.set_faults(f);
        }
        m.enable_profiling();
        app.build(&mut m, threads, d);
        (app, m)
    });
    let run = t.span("Machine::try_run", "core", |_| machine.try_run());
    let run = match run {
        Ok(run) => run,
        Err(abort) => {
            checks.expect(
                abort.cycle == record.cycles && record.extra_value("completed") == Some(0.0),
                || {
                    format!(
                        "{}: traced run aborted ({abort}) but the untraced one did not",
                        spec.id
                    )
                },
            );
            return None;
        }
    };
    let error = t.span("output", "workloads", |_| {
        let output = app.output(&run);
        app.metric().evaluate(&app.reference(), &output)
    });
    checks.expect(
        run.report.cycles == record.cycles
            && stats_text(&run.report.stats) == stats_text(&record.stats)
            && error.to_bits() == record.error_percent.to_bits(),
        || {
            format!(
                "{}: traced cycles, stats or error differ from the untraced run",
                spec.id
            )
        },
    );
    let profile = run.profile.expect("profiling was enabled");
    let faulty = faults.is_some_and(|f| !f.is_noop());
    checks.expect(reconciles(&profile, run.report.cycles, faulty), || {
        format!("{}: attributed cycles != simulated cycles", spec.id)
    });
    Some(Profiled {
        cycles: run.report.cycles,
        profile,
    })
}

fn trace_workload(
    wl: Workload,
    seed: u64,
    size: Size,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Traced {
    let (rep, untraced) = run_rep(wl.setup(seed, size));
    checks.attempted += rep.attempted;
    checks.failed += rep.failed;
    checks.failures.extend(rep.failures.iter().cloned());

    t.begin_trace(wl.name());
    let mut traced = Traced {
        workload: wl,
        untraced_secs: rep.secs(),
        traced_secs: 0.0,
        untraced,
        profiled: Vec::new(),
        cells: Vec::new(),
        sweeps: Vec::new(),
    };
    let input = t.span("setup", "workloads", |_| wl.setup(seed, size));
    match (input, &traced.untraced) {
        (Input::Cells(specs), Detail::Cells { records, .. }) if !records.is_empty() => {
            for i in distinct(&specs) {
                let fuzz = matches!(specs[i].kind, RunKind::Fuzz { .. });
                let t0 = Instant::now();
                let profiled = t.span(specs[i].id.clone(), "exp", |t| {
                    traced_cell(&specs[i], &records[i], t, checks)
                });
                traced.cells.push((t0.elapsed().as_secs_f64(), fuzz));
                traced.profiled.extend(profiled);
            }
            traced.traced_secs = traced.cells.iter().map(|c| c.0).sum();
        }
        (Input::Sims(sims), Detail::Sims(untraced)) => {
            for (sim, u) in sims.into_iter().zip(untraced) {
                let o = t.span(sim.label, "core", |_| sim.run(true));
                checks.expect(o.digest == u.digest, || {
                    format!(
                        "{}: traced outputs or stats differ from the untraced run",
                        o.label
                    )
                });
                let profile = o.profile.expect("profiling was enabled");
                checks.expect(reconciles(&profile, o.cycles, false), || {
                    format!("{}: attributed cycles != simulated cycles", o.label)
                });
                traced.traced_secs += o.secs;
                traced.profiled.push(Profiled {
                    cycles: o.cycles,
                    profile,
                });
            }
        }
        (Input::Sweeps(specs), Detail::Sweeps(untraced)) => {
            let opts = sweep_options();
            for (spec, u) in specs.iter().zip(untraced) {
                let t0 = Instant::now();
                let outcome = t.span(spec.label(), "check", |_| run_sweep(spec, &opts).0);
                let secs = t0.elapsed().as_secs_f64();
                let fingerprint = outcome.fingerprint().hex();
                checks.expect(fingerprint == u.fingerprint, || {
                    format!("{}: traced sweep differs from the untraced one", u.label)
                });
                traced.traced_secs += secs;
                traced.sweeps.push(SweepResult {
                    label: u.label.clone(),
                    secs,
                    states: outcome.states,
                    transitions: outcome.transitions,
                    fingerprint,
                });
            }
        }
        _ => checks.expect(false, || {
            format!("{}: the untraced repetition failed", wl.name())
        }),
    }
    // The traced repetition attempts the same operations again.
    checks.attempted += rep.attempted;
    traced
}

/// Sums `f` over the profiled runs of `wl`.
fn sum_profiled(traced: &[Traced], wl: Workload, f: impl Fn(&Profiled) -> f64) -> f64 {
    traced
        .iter()
        .filter(|t| t.workload == wl)
        .flat_map(|t| &t.profiled)
        .map(f)
        .sum()
}

/// Share of `wl`'s profiled host time that the profiler attributes to
/// `phase`, over the time it attributes to all phases but routing.
/// Routing is inclusive (its time also counts in the dispatch that sent
/// the message), so it is a share of the same total but overlaps it.
fn share(traced: &[Traced], wl: Workload, phase: Phase) -> f64 {
    let est = |p: &Profiled, ph: Phase| p.profile.phases[ph as usize].est_wall_ns() as f64;
    let total = sum_profiled(traced, wl, |p| {
        ALL_PHASES
            .iter()
            .filter(|&&ph| ph != Phase::Routing)
            .map(|&ph| est(p, ph))
            .sum()
    });
    sum_profiled(traced, wl, |p| est(p, phase)) / total
}

fn ns_per_event(traced: &[Traced], wl: Workload, phase: Phase) -> f64 {
    let est = sum_profiled(traced, wl, |p| {
        p.profile.phases[phase as usize].est_wall_ns() as f64
    });
    est / sum_profiled(traced, wl, |p| {
        p.profile.phases[phase as usize].events as f64
    })
}

fn find(traced: &[Traced], wl: Workload) -> &Traced {
    traced
        .iter()
        .find(|t| t.workload == wl)
        .expect("every workload is traced")
}

/// Untraced simulation outcomes of `wl`.
fn sims(traced: &[Traced], wl: Workload) -> &[crate::workloads::SimOutcome] {
    match &find(traced, wl).untraced {
        Detail::Sims(o) => o,
        _ => &[],
    }
}

fn layer_metrics(
    traced: &[Traced],
    rates: &[kernels::Rate],
    warm_secs: &[f64],
    focus: Option<Workload>,
) -> Vec<Measured> {
    use Workload::*;
    let mut m: Vec<Measured> = Vec::new();
    for r in rates {
        let scale = if r.metric.ends_with(".kops") {
            1e3
        } else {
            1e6
        };
        m.push((r.metric, r.per_sec() / scale));
    }

    let host_sims: Vec<_> = sims(traced, PrivateHits)
        .iter()
        .chain(sims(traced, SharingStorm))
        .collect();
    let host_ns: f64 = host_sims.iter().map(|o| o.secs * 1e9).sum();
    let cycles: f64 = host_sims.iter().map(|o| o.cycles as f64).sum();
    m.push(("sim.host_ns_per_cycle", host_ns / cycles));
    m.push((
        "sim.queue_churn.share",
        share(traced, PrivateHits, Phase::QueueChurn),
    ));
    m.push((
        "workloads.core_step.share",
        share(traced, PrivateHits, Phase::CoreStep),
    ));
    m.push((
        "workloads.core_step.ns_per_event",
        ns_per_event(traced, PrivateHits, Phase::CoreStep),
    ));
    m.push(("mem.dram.share", share(traced, PaperEval, Phase::Memory)));
    m.push((
        "noc.routing.share",
        share(traced, SharingStorm, Phase::Routing),
    ));
    m.push((
        "noc.routing.ns_per_msg",
        ns_per_event(traced, SharingStorm, Phase::Routing),
    ));
    let storm = sims(traced, SharingStorm);
    let msgs: u64 = storm.iter().map(|o| o.stats.traffic.total()).sum();
    let ops: u64 = storm.iter().map(|o| sim_ops(&o.stats)).sum();
    m.push(("noc.msgs_per_op", msgs as f64 / ops as f64));
    m.push((
        "core.l1.dispatch.share",
        share(traced, SharingStorm, Phase::L1Dispatch),
    ));
    m.push((
        "core.l1.dispatch.ns_per_event",
        ns_per_event(traced, SharingStorm, Phase::L1Dispatch),
    ));
    let hits: u64 = sims(traced, PrivateHits)
        .iter()
        .map(|o| o.stats.l1_load_hits + o.stats.l1_store_hits)
        .sum();
    let accesses: u64 = sims(traced, PrivateHits)
        .iter()
        .map(|o| o.stats.l1_accesses())
        .sum();
    m.push(("core.l1.hit_ratio", hits as f64 / accesses as f64));
    m.push((
        "core.dir.dispatch.share",
        share(traced, SharingStorm, Phase::DirDispatch),
    ));
    m.push((
        "core.dir.dispatch.ns_per_event",
        ns_per_event(traced, SharingStorm, Phase::DirDispatch),
    ));

    let (mut retries, mut aborted, mut cells) = (0.0, 0.0, 0.0);
    if let Detail::Cells { specs, records } = &find(traced, FaultGrid).untraced {
        for i in distinct(specs) {
            retries += records[i].extra_value("retries").unwrap_or(0.0);
            aborted += f64::from(u8::from(records[i].extra_value("completed") == Some(0.0)));
            cells += 1.0;
        }
    }
    m.push(("core.fault.retries_per_cell", retries / cells));
    m.push(("core.fault.aborted_cells", aborted));
    let unattributed = sum_profiled(traced, FaultGrid, |p| {
        (p.cycles - p.profile.attributed_cycles()) as f64
    });
    m.push((
        "core.fault.unattributed_share",
        unattributed / sum_profiled(traced, FaultGrid, |p| p.cycles as f64),
    ));

    let sweeps = &find(traced, CheckSweep).sweeps;
    let sweep_secs: f64 = sweeps.iter().map(|s| s.secs).sum();
    let states: u64 = sweeps.iter().map(|s| s.states).sum();
    let transitions: u64 = sweeps.iter().map(|s| s.transitions).sum();
    m.push(("check.states_per_s", states as f64 / sweep_secs));
    m.push(("check.transitions_per_s", transitions as f64 / sweep_secs));
    m.push(("check.states", states as f64));

    let paper = &find(traced, PaperEval).cells;
    let cell_ms: Vec<f64> = paper.iter().map(|c| c.0 * 1e3).collect();
    let fuzz_ms: f64 = paper.iter().filter(|c| c.1).map(|c| c.0 * 1e3).sum();
    m.push(("exp.cell_ms.p50", percentile(&cell_ms, 50.0)));
    m.push(("exp.cell_ms.p90", percentile(&cell_ms, 90.0)));
    m.push(("exp.fuzz.share", fuzz_ms / cell_ms.iter().sum::<f64>()));
    let warm_ms = min(warm_secs) * 1e3;
    let load = rates
        .iter()
        .find(|r| r.metric == "exp.cache_load.kops")
        .expect("cache-load kernel ran");
    m.push(("exp.warm_ms", warm_ms));
    m.push((
        "exp.overhead_ms",
        warm_ms - cell_ms.len() as f64 * load.secs / load.ops as f64 * 1e3,
    ));

    let (traced_s, untraced_s) = traced
        .iter()
        .filter(|t| focus.is_none_or(|f| f == t.workload))
        .fold((0.0, 0.0), |acc, t| {
            (acc.0 + t.traced_secs, acc.1 + t.untraced_secs)
        });
    m.push(("trace.overhead", traced_s / untraced_s));
    m
}

/// Warm engine runs over the paper sweep in the traced run.
const WARM_RUNS: usize = 5;

/// The traced run. Returns whether every check passed, and the result
/// line.
pub fn trace(seed: u64, size: Size, focus: Option<Workload>) -> (bool, String) {
    let mut t = Tracer::new();
    let mut checks = Checks::default();
    let traced: Vec<Traced> = Workload::ALL
        .iter()
        .map(|&wl| trace_workload(wl, seed, size, &mut t, &mut checks))
        .collect();

    // The exp cache-hit path: the paper sweep served from a warm cache,
    // which the cache-load kernel then reads.
    let (specs, records, digest) = match &find(&traced, Workload::PaperEval).untraced {
        Detail::Cells { specs, records } => (
            specs.as_slice(),
            records.as_slice(),
            ghostwriter_exp::records_fingerprint(records).hex(),
        ),
        _ => unreachable!("the paper sweep runs cells"),
    };
    let warm = if records.is_empty() {
        Err(std::io::Error::other("the paper sweep failed"))
    } else {
        TempCache::filled(specs, records)
    };
    let warm_secs = match &warm {
        Ok(cache) => {
            t.begin_trace(Workload::PaperEval.name());
            t.span("warm_pass", "exp", |_| {
                warm_runs(specs, cache, WARM_RUNS, &digest)
            })
            .unwrap_or_else(|e| {
                checks.expect(false, || e);
                vec![f64::NAN]
            })
        }
        Err(e) => {
            checks.expect(false, || format!("cannot fill the warm cache: {e}"));
            vec![f64::NAN]
        }
    };
    checks.attempted += distinct(specs).len() as u64;

    t.begin_trace("kernels");
    let rates = match &warm {
        Ok(cache) => kernels::run_all(
            &KernelInputs {
                seed,
                size,
                specs,
                warm: cache,
            },
            &mut t,
        ),
        Err(_) => Err("kernels need the warm cache".into()),
    };
    let rates = rates.unwrap_or_else(|e| {
        checks.expect(false, || e);
        Vec::new()
    });
    checks.attempted += 1;
    drop(warm);

    let correct = checks.failed == 0;
    let measured = if correct {
        layer_metrics(&traced, &rates, &warm_secs, focus)
    } else {
        Vec::new()
    };
    print_summary(&traced, &t, &measured, &checks);
    write_trace(&t, &traced, &measured, seed);
    let metrics = if correct {
        metrics::metrics_json(&PER_LAYER, &measured)
    } else {
        Json::obj()
    };
    (
        correct,
        metrics::result_line(correct, checks.attempted, checks.failed, metrics),
    )
}

fn print_summary(traced: &[Traced], t: &Tracer, measured: &[Measured], checks: &Checks) {
    println!("workload        untraced_s  traced_s  overhead");
    for tr in traced {
        println!(
            "{:<14} {:>10.4} {:>9.4} {:>9.3}",
            tr.workload.name(),
            tr.untraced_secs,
            tr.traced_secs,
            tr.traced_secs / tr.untraced_secs
        );
    }
    println!("\nself time by layer (from the benchmark's spans)");
    for ((workload, layer), ns) in t.self_times() {
        println!("  {workload:<14} {layer:<10} {:>10.4} s", ns as f64 / 1e9);
    }
    let cells: Vec<f64> = find(traced, Workload::PaperEval)
        .cells
        .iter()
        .map(|c| c.0 * 1e3)
        .collect();
    if !cells.is_empty() {
        let tail = tail_percentile(cells.len()).map_or(String::new(), |p| {
            format!(", p{p} {:.3} ms", percentile(&cells, p))
        });
        println!(
            "\npaper_eval cell wall: median {:.3} ms{tail} (n = {})",
            percentile(&cells, 50.0),
            cells.len()
        );
    }
    println!("\nper-layer metrics");
    for (name, value) in measured {
        let unit = metrics::find(name).map_or("", |d| d.unit);
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for f in &checks.failures {
        println!("FAILED {f}");
    }
    println!(
        "integrity: {}",
        if checks.failed == 0 {
            "traced runs reproduce the untraced ones; every profile reconciles"
        } else {
            "FAILED"
        }
    );
}

fn write_trace(t: &Tracer, traced: &[Traced], measured: &[Measured], seed: u64) {
    let mut doc = Json::obj();
    doc.push("format", Json::Str("gw-benchmark-trace-v1".into()));
    doc.push("seed", Json::U64(seed));
    let mut overhead = Json::obj();
    for tr in traced {
        overhead.push(
            tr.workload.name(),
            Json::F64(tr.traced_secs / tr.untraced_secs),
        );
    }
    doc.push("overhead", overhead);
    let mut layers = Vec::new();
    for ((workload, layer), ns) in t.self_times() {
        let mut j = Json::obj();
        j.push("workload", Json::Str(workload.into()));
        j.push("layer", Json::Str(layer.into()));
        j.push("self_ns", Json::U64(ns));
        layers.push(j);
    }
    doc.push("self_time", Json::Arr(layers));
    let mut values = Json::obj();
    for (name, v) in measured {
        values.push(name, Json::F64(*v));
    }
    doc.push("metrics", values);
    doc.push("spans", t.to_json());
    crate::write_out("trace.json", &doc.to_pretty());
}
