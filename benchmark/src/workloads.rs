//! The five workloads: what one repetition runs, what it consumes (its
//! set-up), and how its outputs are checked.
//!
//! Every repetition does byte-identical work for a given seed and size,
//! so each one also yields a digest of its outputs; repetitions must
//! agree on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use ghostwriter_check::{run_sweep, ProtocolKind, ShardOptions, SweepSpec};
use ghostwriter_core::{Addr, BaseProtocol, Machine, MachineConfig, Profile, Protocol, Stats};
use ghostwriter_exp::resilience::campaign_spec;
use ghostwriter_exp::{
    all_experiments, records_fingerprint, Engine, Fingerprint, ResultCache, RunKind, RunRecord,
    RunSpec, Scale,
};
use ghostwriter_sim::panic_message;
use ghostwriter_workloads::{BlackScholes, KMeans, Workload as App};

/// Where the benchmark writes its reports and temporary caches.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperEval,
    PrivateHits,
    SharingStorm,
    CheckSweep,
    FaultGrid,
}

/// Input size: the measured size, or Test-scale inputs for `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperEval,
        Workload::PrivateHits,
        Workload::SharingStorm,
        Workload::CheckSweep,
        Workload::FaultGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::PrivateHits => "private_hits",
            Workload::SharingStorm => "sharing_storm",
            Workload::CheckSweep => "check_sweep",
            Workload::FaultGrid => "fault_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds what one repetition consumes. `seed` feeds the
    /// private-hit inputs only: the paper sweep keeps the paper's fixed
    /// seeds, the fault grid its campaign seed, and the storm and the
    /// checker sweeps have no random inputs.
    pub fn setup(self, seed: u64, size: Size) -> Input {
        match self {
            Workload::PaperEval => Input::Cells(paper_specs(size)),
            Workload::FaultGrid => Input::Cells(fault_specs(size)),
            Workload::PrivateHits => Input::Sims(private_hit_sims(seed, size)),
            Workload::SharingStorm => Input::Sims(storm_sims(size)),
            Workload::CheckSweep => Input::Sweeps(sweep_specs(size)),
        }
    }
}

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Eval,
        Size::Smoke => Scale::Smoke,
    }
}

/// Every experiment's cells at `size`, in registry order (duplicates
/// included: the engine's dedup is part of what is timed).
fn paper_specs(size: Size) -> Vec<RunSpec> {
    all_experiments()
        .iter()
        .flat_map(|e| e.spec(scale(size)).runs)
        .collect()
}

/// Highest fault rate in the benchmark's grid. The campaign's 200‰
/// cells exhaust their retry budget and abort by design; an abort is a
/// failed operation here, so the grid stops at the last rate on which
/// every cell completes.
const FAULT_RATE_CAP_PERMILLE: u16 = 50;

/// The resilience campaign's cells up to [`FAULT_RATE_CAP_PERMILLE`],
/// with the campaign's own fixed fault seed.
fn fault_specs(size: Size) -> Vec<RunSpec> {
    let mut runs = campaign_spec(scale(size)).runs;
    runs.retain(|r| match &r.kind {
        RunKind::Resilience { faults, .. } => faults.drop_permille <= FAULT_RATE_CAP_PERMILLE,
        _ => true,
    });
    runs
}

/// The machine the private-hit workloads run on: the paper's Table 1
/// geometry with 8 cores under Ghostwriter.
fn gw8() -> MachineConfig {
    MachineConfig {
        cores: 8,
        protocol: Protocol::ghostwriter(),
        ..MachineConfig::default()
    }
}

fn private_hit_sims(seed: u64, size: Size) -> Vec<Sim> {
    let (kmeans, options): (Box<dyn App>, Box<dyn App>) = match size {
        Size::Full => (
            Box::new(KMeans::new(seed, 60_000, 8, 5)),
            Box::new(BlackScholes::new(seed, 400_000)),
        ),
        Size::Smoke => (
            Box::new(KMeans::new(seed, 120, 4, 3)),
            Box::new(BlackScholes::new(seed, 300)),
        ),
    };
    [("kmeans", kmeans), ("blackscholes", options)]
        .into_iter()
        .map(|(label, mut app)| {
            let mut machine = Machine::new(gw8());
            app.build(&mut machine, 8, 8);
            Sim {
                label,
                machine,
                check: SimCheck::App(app),
            }
        })
        .collect()
}

/// The storms: cores, base protocol, ping-pong iterations per core.
const STORMS: [(&str, usize, BaseProtocol, u64); 4] = [
    ("mesi_8c", 8, BaseProtocol::Mesi, 300_000),
    ("moesi_8c", 8, BaseProtocol::Moesi, 200_000),
    ("mesif_8c", 8, BaseProtocol::Mesif, 200_000),
    ("mesi_16c", 16, BaseProtocol::Mesi, 100_000),
];

/// One packed block of per-core `u32` slots; every core loads its slot
/// and stores it back plus the iteration number, with link contention
/// modelled. Nearly every access is a coherence miss.
fn storm_sims(size: Size) -> Vec<Sim> {
    STORMS
        .iter()
        .map(|&(label, cores, base, iters)| {
            let iters = match size {
                Size::Full => iters,
                Size::Smoke => iters / 100,
            };
            let mut cfg = MachineConfig::small_base(cores, Protocol::Mesi, base);
            cfg.model_contention = true;
            let mut machine = Machine::new(cfg);
            let block = machine.alloc_padded(4 * cores as u64);
            let slots: Vec<Addr> = (0..cores).map(|t| block.add(4 * t as u64)).collect();
            for &slot in &slots {
                machine.add_thread(move |ctx| async move {
                    for i in 0..iters as u32 {
                        let v = ctx.load_u32(slot).await;
                        ctx.store_u32(slot, v.wrapping_add(i)).await;
                    }
                    ctx.barrier().await;
                });
            }
            Sim {
                label,
                machine,
                check: SimCheck::Storm { slots, iters },
            }
        })
        .collect()
}

fn sweep_specs(size: Size) -> Vec<SweepSpec> {
    let blocks = match size {
        Size::Full => 2,
        Size::Smoke => 1,
    };
    vec![
        SweepSpec::new(ProtocolKind::Mesi, 2, blocks, 2),
        SweepSpec::new(ProtocolKind::Ghostwriter, 2, blocks, 2),
    ]
}

/// What one repetition consumes.
pub enum Input {
    /// Experiment cells for `Engine::run`.
    Cells(Vec<RunSpec>),
    /// Built machines, one per simulation.
    Sims(Vec<Sim>),
    /// Exhaustive checker sweeps.
    Sweeps(Vec<SweepSpec>),
}

/// One built simulation and the check its output must pass.
pub struct Sim {
    pub label: &'static str,
    machine: Machine,
    check: SimCheck,
}

enum SimCheck {
    App(Box<dyn App>),
    /// Every slot must end at Σ_{i<iters} i (mod 2³²).
    Storm {
        slots: Vec<Addr>,
        iters: u64,
    },
}

/// The result of one simulation.
pub struct SimOutcome {
    pub label: &'static str,
    /// Host seconds inside `Machine::run`.
    pub secs: f64,
    pub cycles: u64,
    pub stats: Stats,
    pub profile: Option<Profile>,
    /// Output, error and stats JSON: what a repeat must reproduce.
    pub digest: String,
    pub failure: Option<String>,
}

impl Sim {
    /// Runs the machine (with the cycle-attribution profiler when
    /// `profile` is set), timing only `Machine::run`, then checks the
    /// output.
    pub fn run(mut self, profile: bool) -> SimOutcome {
        if profile {
            self.machine.enable_profiling();
        }
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| self.machine.run()));
        let secs = t0.elapsed().as_secs_f64();
        let run = match result {
            Ok(run) => run,
            Err(panic) => {
                return SimOutcome {
                    label: self.label,
                    secs,
                    cycles: 0,
                    stats: Stats::default(),
                    profile: None,
                    digest: String::new(),
                    failure: Some(format!(
                        "{}: panicked: {}",
                        self.label,
                        panic_message(panic)
                    )),
                }
            }
        };
        let stats_json = run.report.stats.to_json().to_compact();
        let (output, failure) = match &self.check {
            SimCheck::App(app) => {
                let output = app.output(&run);
                let reference = app.reference();
                let error = app.metric().evaluate(&reference, &output);
                let failure = (output.len() != reference.len() || !error.is_finite())
                    .then(|| format!("{}: output does not match its reference shape", self.label));
                (format!("{output:?} error={error:?}"), failure)
            }
            SimCheck::Storm { slots, iters } => {
                let expected = (0..*iters as u32).fold(0u32, |acc, i| acc.wrapping_add(i));
                let values: Vec<u32> = slots.iter().map(|&s| run.read_u32(s)).collect();
                let failure = values.iter().position(|&v| v != expected).map(|t| {
                    format!(
                        "{}: slot {t} ends at {} not {expected}",
                        self.label, values[t]
                    )
                });
                (format!("{values:?}"), failure)
            }
        };
        SimOutcome {
            label: self.label,
            secs,
            cycles: run.report.cycles,
            digest: Fingerprint::of_parts([
                stats_json.as_str(),
                &output,
                &run.report.cycles.to_string(),
            ])
            .hex(),
            stats: run.report.stats,
            profile: run.profile,
            failure,
        }
    }
}

/// Deterministic per-sweep results.
pub struct SweepResult {
    pub label: String,
    pub secs: f64,
    pub states: u64,
    pub transitions: u64,
    pub fingerprint: String,
}

/// What a repetition kept for checks and for the traced run.
pub enum Detail {
    Cells {
        specs: Vec<RunSpec>,
        records: Vec<RunRecord>,
    },
    Sims(Vec<SimOutcome>),
    Sweeps(Vec<SweepResult>),
}

/// One timed repetition.
pub struct Rep {
    /// Host seconds of each fixed part (cells, simulations or sweeps).
    pub parts: Vec<(String, f64)>,
    /// Simulated loads, stores, scribbles and barriers (checker
    /// transitions for the sweeps).
    pub ops: u64,
    /// Digest of every output; equal across repetitions.
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Rep {
    pub fn secs(&self) -> f64 {
        self.parts.iter().map(|(_, s)| s).sum()
    }
}

/// Simulated operations in `stats`.
pub fn sim_ops(stats: &Stats) -> u64 {
    stats.loads + stats.stores + stats.scribbles + stats.barriers
}

/// Distinct cells of `specs` (by fingerprint), in first-occurrence order.
pub fn distinct(specs: &[RunSpec]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..specs.len())
        .filter(|&i| seen.insert(specs[i].fingerprint()))
        .collect()
}

/// The single-threaded, cache-free engine every cold repetition uses.
fn cold_engine() -> Engine {
    Engine {
        jobs: 1,
        use_cache: false,
        cache: ResultCache::new(out_dir().join("unused-cache")),
    }
}

/// Runs one repetition of `input`.
pub fn run_rep(input: Input) -> (Rep, Detail) {
    match input {
        Input::Cells(specs) => run_cells(specs),
        Input::Sims(sims) => run_sims(sims),
        Input::Sweeps(specs) => run_sweeps(specs),
    }
}

fn run_cells(specs: Vec<RunSpec>) -> (Rep, Detail) {
    let cells = distinct(&specs);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| cold_engine().run(&specs)));
    let secs = t0.elapsed().as_secs_f64();
    let mut rep = Rep {
        parts: vec![("engine".into(), secs)],
        ops: 0,
        digest: String::new(),
        attempted: cells.len() as u64,
        failed: 0,
        failures: Vec::new(),
    };
    match result {
        Ok((records, _log)) => {
            for &i in &cells {
                rep.ops += sim_ops(&records[i].stats);
                if records[i].extra_value("completed") == Some(0.0) {
                    rep.failed += 1;
                    rep.failures.push(format!(
                        "{}: aborted: {}",
                        specs[i].id,
                        records[i].trace.join(" ")
                    ));
                }
            }
            rep.digest = records_fingerprint(&records).hex();
            (rep, Detail::Cells { specs, records })
        }
        Err(panic) => {
            rep.failed = rep.attempted;
            rep.failures
                .push(format!("engine panicked: {}", panic_message(panic)));
            let records = Vec::new();
            (rep, Detail::Cells { specs, records })
        }
    }
}

fn run_sims(sims: Vec<Sim>) -> (Rep, Detail) {
    let outcomes: Vec<SimOutcome> = sims.into_iter().map(|s| s.run(false)).collect();
    let digest_parts: Vec<&str> = outcomes.iter().map(|o| o.digest.as_str()).collect();
    let rep = Rep {
        parts: outcomes
            .iter()
            .map(|o| (o.label.to_string(), o.secs))
            .collect(),
        ops: outcomes.iter().map(|o| sim_ops(&o.stats)).sum(),
        digest: Fingerprint::of_parts(digest_parts).hex(),
        attempted: outcomes.len() as u64,
        failed: outcomes.iter().filter(|o| o.failure.is_some()).count() as u64,
        failures: outcomes.iter().filter_map(|o| o.failure.clone()).collect(),
    };
    (rep, Detail::Sims(outcomes))
}

/// One worker, no shard cache.
pub fn sweep_options() -> ShardOptions {
    ShardOptions {
        jobs: 1,
        use_cache: false,
        cache_dir: out_dir().join("unused-cache"),
        ..ShardOptions::default()
    }
}

fn run_sweeps(specs: Vec<SweepSpec>) -> (Rep, Detail) {
    let opts = sweep_options();
    let mut rep = Rep {
        parts: Vec::new(),
        ops: 0,
        digest: String::new(),
        attempted: specs.len() as u64,
        failed: 0,
        failures: Vec::new(),
    };
    let mut results = Vec::new();
    for spec in &specs {
        let label = spec.label();
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_sweep(spec, &opts).0));
        let secs = t0.elapsed().as_secs_f64();
        rep.parts.push((label.clone(), secs));
        match outcome {
            Ok(o) if o.counterexample.is_none() && !o.truncated => {
                rep.ops += o.transitions;
                results.push(SweepResult {
                    label,
                    secs,
                    states: o.states,
                    transitions: o.transitions,
                    fingerprint: o.fingerprint().hex(),
                });
            }
            Ok(o) => {
                rep.failed += 1;
                rep.failures.push(match &o.counterexample {
                    Some(cex) => format!("{label}: FAIL {}", cex.failure),
                    None => format!("{label}: TRUNCATED"),
                });
            }
            Err(panic) => {
                rep.failed += 1;
                rep.failures
                    .push(format!("{label}: panicked: {}", panic_message(panic)));
            }
        }
    }
    let prints: Vec<&str> = results.iter().map(|r| r.fingerprint.as_str()).collect();
    rep.digest = Fingerprint::of_parts(prints).hex();
    (rep, Detail::Sweeps(results))
}

/// A cache directory under [`out_dir`] that is deleted on drop.
pub struct TempCache {
    pub cache: ResultCache,
}

impl TempCache {
    /// Stores each distinct cell's record, so that an engine run over
    /// `specs` is served entirely from the cache.
    pub fn filled(specs: &[RunSpec], records: &[RunRecord]) -> std::io::Result<TempCache> {
        let dir = out_dir().join(format!("warm-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(dir);
        for i in distinct(specs) {
            cache.store(specs[i].fingerprint(), &specs[i].cache_key(), &records[i])?;
        }
        Ok(TempCache { cache })
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.cache.dir());
    }
}

/// The warm pass: `runs` engine runs over `specs` served from `cache`.
/// Returns each run's host seconds, or why the pass failed its check
/// (every cell a hit, records identical to the cold `digest`).
pub fn warm_runs(
    specs: &[RunSpec],
    cache: &TempCache,
    runs: usize,
    digest: &str,
) -> Result<Vec<f64>, String> {
    let engine = Engine {
        jobs: 1,
        use_cache: true,
        cache: cache.cache.clone(),
    };
    let cells = distinct(specs).len();
    let mut secs = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let (records, log) = engine.run(specs);
        secs.push(t0.elapsed().as_secs_f64());
        if log.cache_hits != cells || log.executed != 0 {
            return Err(format!(
                "warm pass: {} hits, {} executed, expected {cells} hits",
                log.cache_hits, log.executed
            ));
        }
        if records_fingerprint(&records).hex() != digest {
            return Err("warm pass: records differ from the cold pass".into());
        }
    }
    Ok(secs)
}
