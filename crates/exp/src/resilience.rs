//! `gwbench faults` — the resilience campaign runner.
//!
//! Sweeps a fault-rate × protocol × workload grid through the timing
//! simulator with seeded fault injection ([`ghostwriter_core::fault`])
//! and renders resilience curves: output error (the workload's NRMSE /
//! MPE metric) versus fault rate, retry and resend counts, and the
//! recovered-vs-degraded split (tainted fills refetched for precise
//! data vs absorbed into the approximate dataflow). Every cell is an
//! ordinary engine run: content-addressed (the cache key embeds
//! [`FaultConfig::key`]), deduplicated, and byte-identical across
//! `--jobs` levels because the injector draws are counter-based, never
//! order-based.
//!
//! A cell that exhausts its retry budget (or hits any other typed
//! protocol error) is *recorded*, not fatal: the record carries
//! `completed = 0`, the abort cycle and the abort description, so a
//! campaign can chart where graceful degradation ends. Fault-free rate-0
//! cells anchor each curve and double as the zero-fault preservation
//! probe: their stats must match the plain (fault-unaware) runs of the
//! same cells exactly.
//!
//! The smoke-scale report is committed as a golden snapshot
//! (`tests/golden/resilience.smoke.txt`); regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p ghostwriter-exp --test resilience_tests`.

use ghostwriter_core::config::GwConfig;
use ghostwriter_core::{FaultConfig, Protocol, RecoveryParams, Stats};
use ghostwriter_workloads::execute_faulty;

use crate::engine::Engine;
use crate::record::RunRecord;
use crate::spec::{ExperimentSpec, RunKind, RunSpec, Scale, WorkloadSpec};

/// Root seed of every campaign cell's injector. One fixed, documented
/// seed: campaign results are reproductions, not samples.
pub const CAMPAIGN_SEED: u64 = 0xFA17;

/// The fault-rate axis, permille. Every per-message class (drop,
/// duplicate, delay, corrupt) runs at the same rate, so one axis spans
/// "reliable" (0) to "hostile" (200 = 20% of every faultable message)
/// interconnects. The hostile point is where the degraded side of the
/// split becomes visible: enough fills are tainted that some land on
/// in-flight scribble misses and are absorbed rather than refetched.
pub const RATES_PERMILLE: [u16; 5] = [0, 2, 10, 50, 200];

/// Extra cycles a delayed message waits (when the delay class fires).
const DELAY_CYCLES: u64 = 64;

/// The campaign's workload roster: three Table 2 applications plus the
/// §2 naive dot product. Sobel matters specifically because it
/// *blindly* scribbles its output (no load first): a blind scribble to
/// an invalid line goes down the conventional GETX path with the
/// scribble still pending, so a tainted fill can land on an
/// error-tolerant access and be absorbed — the "degraded" side of the
/// split. Read-modify-write scribbles (bad_dot, histogram) normally
/// fill via the preceding precise load and refetch; they reach the
/// absorb path only through races where another core invalidates the
/// line between the load and the scribble.
pub const CAMPAIGN_WORKLOADS: [&str; 4] = ["histogram", "kmeans", "sobel", "bad_dot"];

/// Builds one roster entry at `scale`.
fn campaign_workload(label: &str, scale: Scale) -> WorkloadSpec {
    match label {
        "bad_dot" => WorkloadSpec::BadDot {
            seed: 0xF16,
            n: match scale {
                Scale::Eval => 8_000,
                Scale::Smoke => 512,
            },
            approximate: true,
            work_per_point: 96,
        },
        name => WorkloadSpec::registry(name, scale.class(), ghostwriter_workloads::DEFAULT_SEED),
    }
}

/// The protocol points of every curve: the precise baseline (every
/// tainted fill is quarantined and refetched), full Ghostwriter (GI
/// captures scribble misses locally, so almost no approximate fill is
/// ever in flight to taint), and the GI-ablated Ghostwriter, where
/// scribble misses go down the conventional fetch path — the point
/// where tainted fills actually land on error-tolerant accesses and
/// are absorbed rather than refetched (graceful degradation).
type ProtocolPoint = (&'static str, fn() -> Protocol);

const PROTOCOLS: [ProtocolPoint; 3] = [
    ("mesi", || Protocol::Mesi),
    ("gw", Protocol::ghostwriter),
    ("gw_nogi", || {
        Protocol::Ghostwriter(GwConfig {
            enable_gi: false,
            ..GwConfig::default()
        })
    }),
];

/// d-distance used for every campaign cell (the paper's main setting).
const CAMPAIGN_D: u8 = 4;

/// The injector configuration at one grid rate. Rate 0 is the all-off
/// default — the curve anchor that must be byte-identical to a
/// fault-unaware run.
pub fn campaign_faults(rate_permille: u16) -> FaultConfig {
    if rate_permille == 0 {
        return FaultConfig::default();
    }
    FaultConfig {
        seed: CAMPAIGN_SEED,
        drop_permille: rate_permille,
        dup_permille: rate_permille,
        delay_permille: rate_permille,
        delay_cycles: DELAY_CYCLES,
        corrupt_permille: rate_permille,
        recovery: Some(RecoveryParams::default()),
        ..FaultConfig::default()
    }
}

/// The whole campaign grid at one scale, in render order.
pub fn campaign_spec(scale: Scale) -> ExperimentSpec {
    let mut runs = Vec::new();
    for wl in CAMPAIGN_WORKLOADS {
        for (proto_name, proto) in PROTOCOLS {
            for rate in RATES_PERMILLE {
                runs.push(RunSpec {
                    id: format!("faults/{wl}/{proto_name}/r{rate}"),
                    kind: RunKind::Resilience {
                        workload: campaign_workload(wl, scale),
                        config: crate::experiments::machine(scale, proto()),
                        threads: crate::experiments::cores(scale),
                        d: CAMPAIGN_D,
                        faults: campaign_faults(rate),
                    },
                });
            }
        }
    }
    ExperimentSpec {
        experiment: "faults",
        runs,
    }
}

/// Executes one resilience cell (called from
/// [`crate::engine::execute_spec`]). Aborts are values, not panics.
pub fn run_resilience(
    workload: &WorkloadSpec,
    config: &ghostwriter_core::MachineConfig,
    threads: usize,
    d: u8,
    faults: &FaultConfig,
) -> RunRecord {
    let mut w = workload.build();
    match execute_faulty(w.as_mut(), config.clone(), threads, d, *faults) {
        Ok(out) => RunRecord {
            cycles: out.report.cycles,
            error_percent: out.error_percent,
            // `retries` duplicates `stats.retries` because an outside
            // reader needs it under this name: gw-benchmark's
            // `core.fault.retries_per_cell` (`benchmark/src/trace.rs`).
            extra: vec![
                ("completed".to_string(), 1.0),
                ("retries".to_string(), out.report.stats.retries as f64),
            ],
            stats: out.report.stats,
            trace: Vec::new(),
        },
        Err(abort) => RunRecord {
            cycles: abort.cycle,
            error_percent: 0.0,
            stats: Stats::default(),
            // The abort description (cycle, last delivered message,
            // typed row error) is the cell's result — campaigns chart
            // where recovery gives out, so the "why" must be durable.
            trace: vec![abort.to_string()],
            extra: vec![("completed".to_string(), 0.0)],
        },
    }
}

fn completed(rec: &RunRecord) -> bool {
    rec.extra_value("completed") == Some(1.0)
}

/// Events where recovery machinery restored precise data (the
/// "recovered" side of the resilience split).
fn recovered(s: &Stats) -> u64 {
    s.retries
        + s.nack_retries
        + s.grant_resends
        + s.corrupt_fills_refetched
        + s.corrupt_mem_refetches
}

/// Renders the campaign report: one table per workload plus the curve
/// summaries.
pub fn render_campaign(spec: &ExperimentSpec, records: &[RunRecord]) -> String {
    assert_eq!(spec.runs.len(), records.len());
    let rec = |wl: &str, proto: &str, rate: u16| {
        &records[spec.index_of(&format!("faults/{wl}/{proto}/r{rate}"))]
    };
    let mut s = format!(
        "Resilience campaign: output error and recovery activity vs fault rate\n\
         (seed {CAMPAIGN_SEED:#x}; drop = dup = delay = corrupt at each rate, \
         delay +{DELAY_CYCLES} cycles, d = {CAMPAIGN_D})\n\n"
    );
    for wl in CAMPAIGN_WORKLOADS {
        s.push_str(&format!(
            "{wl}\n\
             proto  rate(permille)  done       cycles    err%  retries  resends  refetch  absorb   drop    dup  delay  corrupt\n"
        ));
        for (proto_name, _) in PROTOCOLS {
            for rate in RATES_PERMILLE {
                let r = rec(wl, proto_name, rate);
                let done = completed(r);
                let st = &r.stats;
                s.push_str(&format!(
                    "{:<6} {:>14} {:<4} {:>12} {:>7.3} {:>8} {:>8} {:>8} {:>7} {:>6} {:>6} {:>6} {:>8}\n",
                    proto_name,
                    rate,
                    if done { "yes" } else { "ABRT" },
                    r.cycles,
                    r.error_percent,
                    st.retries,
                    st.grant_resends + st.nack_retries,
                    st.corrupt_fills_refetched + st.corrupt_mem_refetches,
                    st.corrupt_fills_absorbed,
                    st.faults_dropped,
                    st.faults_duplicated,
                    st.faults_delayed,
                    st.faults_corrupted,
                ));
                if !done {
                    for line in &r.trace {
                        s.push_str(&format!("       ^ {line}\n"));
                    }
                }
            }
        }
        // The curves the campaign exists for: error vs rate per
        // protocol, and the recovered/degraded split at each rate.
        for (proto_name, _) in PROTOCOLS {
            let pts: Vec<String> = RATES_PERMILLE
                .iter()
                .map(|&rate| {
                    let r = rec(wl, proto_name, rate);
                    if completed(r) {
                        format!("{rate}:{:.3}", r.error_percent)
                    } else {
                        format!("{rate}:abort")
                    }
                })
                .collect();
            s.push_str(&format!(
                "  {proto_name} error curve (%, by rate): {}\n",
                pts.join("  ")
            ));
        }
        let split: Vec<String> = RATES_PERMILLE
            .iter()
            .map(|&rate| {
                let by_proto: Vec<String> = PROTOCOLS
                    .iter()
                    .map(|(proto_name, _)| {
                        let r = rec(wl, proto_name, rate);
                        format!(
                            "{proto_name} {}/{}",
                            recovered(&r.stats),
                            r.stats.corrupt_fills_absorbed
                        )
                    })
                    .collect();
                format!("{rate}: {}", by_proto.join(" "))
            })
            .collect();
        s.push_str(&format!(
            "  recovered/degraded (by rate): {}\n\n",
            split.join("  ")
        ));
    }
    s
}

/// `gwbench faults` entry point. Returns the process exit code.
pub fn main_faults(
    jobs: usize,
    use_cache: bool,
    scale: Scale,
    expect_cached: bool,
    quiet: bool,
) -> i32 {
    let spec = campaign_spec(scale);
    let mut engine = Engine::new(jobs);
    engine.use_cache = use_cache;
    let (records, log) = engine.run(&spec.runs);

    let report = render_campaign(&spec, &records);
    if !quiet {
        print!("{report}");
    }
    let out_dir = match scale {
        Scale::Eval => std::path::PathBuf::from("results"),
        Scale::Smoke => std::path::PathBuf::from("results/smoke"),
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gwbench: cannot create {}: {e}", out_dir.display());
        return 1;
    }
    let path = out_dir.join("RESILIENCE.txt");
    if let Err(e) = std::fs::write(&path, &report) {
        eprintln!("gwbench: cannot write {}: {e}", path.display());
        return 1;
    }

    let aborted = records
        .iter()
        .filter(|r| r.extra_value("completed") == Some(0.0))
        .count();
    eprintln!(
        "gwbench faults: {} cells -> {} distinct; {} cache hits, {} executed; \
         {} aborted (recorded); report: {}",
        spec.runs.len(),
        log.runs.len(),
        log.cache_hits,
        log.executed,
        aborted,
        path.display()
    );

    if expect_cached && log.executed > 0 {
        eprintln!(
            "gwbench faults: --expect-cached but {} cell(s) simulated",
            log.executed
        );
        return 3;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_rates_protocols_and_workloads() {
        let spec = campaign_spec(Scale::Smoke);
        assert_eq!(
            spec.runs.len(),
            CAMPAIGN_WORKLOADS.len() * PROTOCOLS.len() * RATES_PERMILLE.len()
        );
        // Every cell is distinct work: no two fingerprints collide.
        for (i, a) in spec.runs.iter().enumerate() {
            for b in &spec.runs[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{} vs {}", a.id, b.id);
            }
        }
    }

    #[test]
    fn rate_zero_is_the_all_off_config() {
        assert!(campaign_faults(0).is_noop());
        let hot = campaign_faults(10);
        assert!(!hot.is_noop());
        assert!(hot.recovery.is_some());
    }
}
