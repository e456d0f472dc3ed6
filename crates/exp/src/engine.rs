//! The run-matrix executor: cache probe → work-stealing pool → records.
//!
//! Given a list of [`RunSpec`]s the engine (1) deduplicates them by
//! fingerprint (the Fig. 7–11 experiments all declare the same sweep —
//! each distinct cell simulates once per sweep, ever), (2) probes the
//! content-addressed cache for each distinct cell, (3) executes the
//! misses on the pool, and (4) reassembles records in spec order, which
//! makes the whole pipeline's output independent of `--jobs`. Per-sweep
//! bookkeeping (wall clock, hit/miss/corruption counts, simulated
//! cycles) is returned as a [`SweepLog`] and written as JSON next to the
//! cache.

use std::collections::HashMap;
use std::time::Instant;

use ghostwriter_core::tester::{ProtocolTester, TesterConfig};
use ghostwriter_core::Json;
use ghostwriter_workloads::execute;

use crate::cache::{Miss, ResultCache};
use crate::fingerprint::Fingerprint;
use crate::pool::map_parallel;
use crate::record::RunRecord;
use crate::scenarios::run_scenario;
use crate::spec::{RunKind, RunSpec};

/// Execution policy for one sweep.
pub struct Engine {
    /// Worker threads for the run pool.
    pub jobs: usize,
    /// `false` bypasses the cache entirely (`--no-cache`): no lookups,
    /// no stores.
    pub use_cache: bool,
    /// Where cached records live.
    pub cache: ResultCache,
}

/// Per-run outcome bookkeeping.
#[derive(Clone, Debug)]
pub struct RunLog {
    /// The spec's experiment-local id.
    pub id: String,
    /// Content address (hex).
    pub fingerprint: String,
    /// Served from cache without simulating.
    pub cache_hit: bool,
    /// A cache file existed but failed integrity checks (re-run).
    pub corrupt: bool,
    /// A cache file existed, intact, in an older record format (re-run).
    pub stale: bool,
    /// Wall-clock time spent on this cell (lookup or simulation), ms.
    pub wall_ms: u64,
    /// Simulated cycles of the (cached or fresh) result.
    pub cycles: u64,
}

/// Whole-sweep structured summary.
#[derive(Clone, Debug, Default)]
pub struct SweepLog {
    /// One entry per *distinct* cell, in first-occurrence order.
    pub runs: Vec<RunLog>,
    /// Cells that simulated (cache misses + `--no-cache` runs).
    pub executed: usize,
    /// Cells served from cache.
    pub cache_hits: usize,
    /// Corrupt cache entries detected (subset of `executed`).
    pub corrupt: usize,
    /// Cache entries in an older record format (subset of `executed`,
    /// disjoint from `corrupt`).
    pub stale: usize,
    /// Spec cells folded away by fingerprint dedup.
    pub deduped: usize,
    /// Total simulated cycles across distinct cells.
    pub sim_cycles: u64,
    /// Sweep wall-clock, ms.
    pub wall_ms: u64,
}

impl SweepLog {
    /// JSON form (written as `results/cache/last_sweep.json`).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("executed", Json::U64(self.executed as u64));
        obj.push("cache_hits", Json::U64(self.cache_hits as u64));
        obj.push("corrupt", Json::U64(self.corrupt as u64));
        obj.push("stale", Json::U64(self.stale as u64));
        obj.push("deduped", Json::U64(self.deduped as u64));
        obj.push("sim_cycles", Json::U64(self.sim_cycles));
        obj.push("wall_ms", Json::U64(self.wall_ms));
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let mut o = Json::obj();
                o.push("id", Json::Str(r.id.clone()));
                o.push("fingerprint", Json::Str(r.fingerprint.clone()));
                o.push("cache_hit", Json::Bool(r.cache_hit));
                o.push("corrupt", Json::Bool(r.corrupt));
                o.push("stale", Json::Bool(r.stale));
                o.push("wall_ms", Json::U64(r.wall_ms));
                o.push("cycles", Json::U64(r.cycles));
                o
            })
            .collect();
        obj.push("runs", Json::Arr(runs));
        obj
    }
}

impl Engine {
    /// Engine with the default on-repo cache.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs,
            use_cache: true,
            cache: ResultCache::new(ResultCache::default_dir()),
        }
    }

    /// Runs every spec, returning records aligned with `specs` plus the
    /// sweep log.
    pub fn run(&self, specs: &[RunSpec]) -> (Vec<RunRecord>, SweepLog) {
        let t0 = Instant::now();
        // Dedup by fingerprint (each computed once), keeping
        // first-occurrence order.
        let mut distinct: Vec<(&RunSpec, Fingerprint)> = Vec::new();
        let mut slot_by_fp: HashMap<Fingerprint, usize> = HashMap::with_capacity(specs.len());
        let slot_of: Vec<usize> = specs // spec -> distinct slot
            .iter()
            .map(|spec| {
                let fp = spec.fingerprint();
                *slot_by_fp.entry(fp).or_insert_with(|| {
                    distinct.push((spec, fp));
                    distinct.len() - 1
                })
            })
            .collect();
        let deduped = specs.len() - distinct.len();

        let outcomes = map_parallel(self.jobs, distinct, |_, (spec, fp)| {
            let cell_t0 = Instant::now();
            let (record, hit, miss) = if self.use_cache {
                match self.cache.load(fp) {
                    Ok(rec) => (rec, true, None),
                    Err(miss) => {
                        match &miss {
                            Miss::Absent => {}
                            Miss::Stale(why) => eprintln!(
                                "gwbench: discarding cache entry in an older record format {}: {why}",
                                fp.hex()
                            ),
                            Miss::Corrupt(why) => eprintln!(
                                "gwbench: discarding corrupt cache entry {}: {why}",
                                fp.hex()
                            ),
                        }
                        let rec = execute_spec(spec);
                        if let Err(e) = self.cache.store(fp, &spec.cache_key(), &rec) {
                            eprintln!("gwbench: cache store failed for {}: {e}", fp.hex());
                        }
                        (rec, false, Some(miss))
                    }
                }
            } else {
                (execute_spec(spec), false, None)
            };
            let log = RunLog {
                id: spec.id.clone(),
                fingerprint: fp.hex(),
                cache_hit: hit,
                corrupt: matches!(miss, Some(Miss::Corrupt(_))),
                stale: matches!(miss, Some(Miss::Stale(_))),
                wall_ms: cell_t0.elapsed().as_millis() as u64,
                cycles: record.cycles,
            };
            (record, log)
        });

        let mut log = SweepLog {
            deduped,
            ..Default::default()
        };
        let mut records_by_slot = Vec::with_capacity(outcomes.len());
        for (record, run_log) in outcomes {
            if run_log.cache_hit {
                log.cache_hits += 1;
            } else {
                log.executed += 1;
            }
            log.corrupt += usize::from(run_log.corrupt);
            log.stale += usize::from(run_log.stale);
            log.sim_cycles += record.cycles;
            log.runs.push(run_log);
            records_by_slot.push(record);
        }
        log.wall_ms = t0.elapsed().as_millis() as u64;
        let records = slot_of
            .into_iter()
            .map(|slot| records_by_slot[slot].clone())
            .collect();
        (records, log)
    }
}

/// Executes one cell (always simulates; cache policy lives in the
/// engine).
pub fn execute_spec(spec: &RunSpec) -> RunRecord {
    match &spec.kind {
        RunKind::Workload {
            workload,
            config,
            threads,
            d,
        } => {
            let mut w = workload.build();
            let out = execute(w.as_mut(), config.clone(), *threads, *d);
            if !config.protocol.is_ghostwriter() {
                assert_eq!(
                    out.error_percent, 0.0,
                    "{}: baseline runs must be exact",
                    spec.id
                );
            }
            RunRecord {
                cycles: out.report.cycles,
                error_percent: out.error_percent,
                stats: out.report.stats,
                trace: Vec::new(),
                extra: Vec::new(),
            }
        }
        RunKind::Scenario { scenario, protocol } => run_scenario(*scenario, *protocol),
        RunKind::Fuzz { seeds, accesses } => run_fuzz(*seeds, *accesses),
        RunKind::Resilience {
            workload,
            config,
            threads,
            d,
            faults,
        } => crate::resilience::run_resilience(workload, config, *threads, *d, faults),
    }
}

/// The random-tester sweep previously in the `protocol_fuzz` binary:
/// fully determined by (seed count, access count), so it caches like any
/// other cell.
fn run_fuzz(seeds: u64, accesses: usize) -> RunRecord {
    let mut total_msgs = 0u64;
    for seed in 0..seeds {
        let report = ProtocolTester::new(TesterConfig::seeded(seed, accesses), seed).run();
        total_msgs += report.messages as u64;
    }
    RunRecord {
        extra: vec![
            ("seeds".into(), seeds as f64),
            ("accesses".into(), accesses as f64),
            ("messages".into(), total_msgs as f64),
        ],
        ..Default::default()
    }
}
