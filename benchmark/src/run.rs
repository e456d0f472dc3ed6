//! `gw-benchmark run`: the end-to-end measurement, tracing off.
//!
//! Per workload it runs repetitions of the fixed work until the time
//! budget is spent, checking that every repetition reproduces the first
//! one's outputs, then times the set-up on its own. With several
//! workloads, repetitions are interleaved round-robin so a slow stretch
//! on the host is spread over all of them.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use ghostwriter_core::Json;

use crate::metrics::{self, Measured, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::{
    distinct, out_dir, run_rep, warm_runs, Detail, Rep, Size, TempCache, Workload,
};

/// Set-up samples per workload. Each sample times a batch of at least
/// [`SETUP_BATCH_SECS`] of back-to-back builds (each input is dropped
/// before the next is built, so the batch reuses the same memory), so a
/// cheap set-up is timed over many builds rather than one.
const SETUP_SAMPLES: usize = 9;
const SETUP_BATCH_SECS: f64 = 0.002;

/// Repetitions every workload runs even if its budget is spent sooner
/// (`--smoke` runs exactly one).
const MIN_REPS: usize = 3;

/// Warm-cache engine runs in the paper sweep's warm pass.
const WARM_RUNS: usize = 5;

/// Default time budget per workload for `run` without `--seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Options of one measurement.
pub struct Options {
    pub seed: u64,
    pub size: Size,
    /// Time budget per workload for its repetitions.
    pub seconds: f64,
}

/// Everything measured for one workload.
pub struct WorkloadRun {
    workload: Workload,
    reps: Vec<Rep>,
    /// Outputs of the latest repetition.
    last: Option<Detail>,
    setup_samples: Vec<f64>,
    peak_rss_mb: f64,
    warm_secs: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Host seconds this workload's repetitions took, set-up included.
    spent: f64,
}

impl WorkloadRun {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            reps: Vec::new(),
            last: None,
            setup_samples: Vec::new(),
            peak_rss_mb: 0.0,
            warm_secs: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spent: 0.0,
        }
    }

    /// Whether another repetition fits the budget.
    fn wants_rep(&self, opts: &Options) -> bool {
        match opts.size {
            Size::Smoke => return self.reps.is_empty(),
            Size::Full if self.reps.len() < MIN_REPS => return true,
            Size::Full => {}
        }
        self.spent + min(&self.rep_secs()) <= opts.seconds
    }

    /// One repetition: set-up and fixed work, with the peak-RSS
    /// watermark reset first so the peak is this workload's own.
    fn rep(&mut self, opts: &Options) {
        reset_peak_rss();
        let t0 = Instant::now();
        let (rep, detail) = run_rep(self.workload.setup(opts.seed, opts.size));
        self.spent += t0.elapsed().as_secs_f64();
        self.peak_rss_mb = self.peak_rss_mb.max(peak_rss_mb().unwrap_or(0.0));
        self.count(rep.attempted, rep.failed, &rep.failures);
        if let Some(first) = self.reps.first() {
            if rep.digest != first.digest && rep.failed == 0 {
                let why = format!(
                    "repetition {} outputs differ from repetition 1",
                    self.reps.len() + 1
                );
                self.count(0, rep.attempted, &[why]);
            }
        }
        self.reps.push(rep);
        self.last = Some(detail);
    }

    fn count(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend_from_slice(failures);
    }

    /// Serves the paper sweep again from a cache filled with the last
    /// cold repetition's records: every cell must hit and the records
    /// must equal the cold ones.
    fn warm_pass(&mut self) {
        let Some(Detail::Cells { specs, records }) = &self.last else {
            return;
        };
        if records.is_empty() || self.workload != Workload::PaperEval {
            return;
        }
        let digest = &self.reps.last().expect("a repetition ran").digest;
        let cells = distinct(specs).len() as u64;
        let result = TempCache::filled(specs, records)
            .map_err(|e| format!("warm pass: cannot fill the cache: {e}"))
            .and_then(|cache| warm_runs(specs, &cache, WARM_RUNS, digest));
        match result {
            Ok(secs) => {
                self.warm_secs = secs;
                self.count(cells, 0, &[]);
            }
            Err(why) => self.count(cells, cells, &[why]),
        }
    }

    fn measure_setup(&mut self, opts: &Options) {
        let samples = match opts.size {
            Size::Full => SETUP_SAMPLES,
            Size::Smoke => 1,
        };
        let build = || drop(black_box(self.workload.setup(opts.seed, opts.size)));
        let t0 = Instant::now();
        build();
        let single = t0.elapsed().as_secs_f64();
        let batch = ((SETUP_BATCH_SECS / single.max(1e-9)).ceil() as usize).clamp(1, 100_000);
        for _ in 0..samples {
            let t0 = Instant::now();
            (0..batch).for_each(|_| build());
            self.setup_samples
                .push(t0.elapsed().as_secs_f64() / batch as f64);
        }
    }

    /// Sum over the repetition's parts of each part's fastest time:
    /// every repetition does identical work, so host noise only ever
    /// adds time, and the per-part minimum is the steadiest estimate.
    fn wall_s(&self) -> f64 {
        self.part_minima().iter().map(|(_, s)| s).sum()
    }

    /// Each part's fastest time over the repetitions.
    fn part_minima(&self) -> Vec<(String, f64)> {
        let Some(first) = self.reps.first() else {
            return Vec::new();
        };
        first
            .parts
            .iter()
            .enumerate()
            .map(|(p, (label, _))| {
                let fastest = self
                    .reps
                    .iter()
                    .filter_map(|r| r.parts.get(p))
                    .map(|(_, s)| *s);
                (label.clone(), fastest.fold(f64::INFINITY, f64::min))
            })
            .collect()
    }

    /// Median set-up sample.
    fn setup_s(&self) -> f64 {
        crate::stats::median(&self.setup_samples)
    }

    fn measured(&self) -> Vec<Measured> {
        vec![
            ("wall_s", self.wall_s()),
            ("setup_s", self.setup_s()),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    fn rep_secs(&self) -> Vec<f64> {
        self.reps.iter().map(Rep::secs).collect()
    }

    /// Simulated operations (checker transitions for the sweeps) per
    /// host second at [`WorkloadRun::wall_s`], in millions.
    fn sim_mops(&self) -> f64 {
        self.reps
            .first()
            .map_or(0.0, |r| r.ops as f64 / self.wall_s() / 1e6)
    }

    fn summary(&self) -> String {
        let secs = self.rep_secs();
        let [_, med, q3] = quartiles(&secs);
        let mut s = format!(
            "{:<14} wall_s {:>8.4}  (reps: median {:.4}, q3 {:.4}, n {})  setup_s {:.6}  peak_rss_mb {:>6.1}  {:>6.2} M ops/s",
            self.workload.name(),
            self.wall_s(),
            med,
            q3,
            secs.len(),
            self.setup_s(),
            self.peak_rss_mb,
            self.sim_mops()
        );
        if !self.warm_secs.is_empty() {
            s.push_str(&format!("  warm {:.4} s", min(&self.warm_secs)));
        }
        s
    }

    fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::F64(*x)).collect());
        let mut j = Json::obj();
        j.push(
            "metrics",
            metrics::metrics_json(&END_TO_END, &self.measured()),
        );
        j.push("rep_secs", nums(&self.rep_secs()));
        let mut parts = Json::obj();
        for (label, secs) in self.part_minima() {
            parts.push(&label, Json::F64(secs));
        }
        j.push("part_min_secs", parts);
        j.push("setup_samples", nums(&self.setup_samples));
        j.push("warm_secs", nums(&self.warm_secs));
        j.push("sim_mops", Json::F64(self.sim_mops()));
        j.push(
            "digest",
            Json::Str(
                self.reps
                    .first()
                    .map_or(String::new(), |r| r.digest.clone()),
            ),
        );
        j.push("attempted", Json::U64(self.attempted));
        j.push("failed", Json::U64(self.failed));
        j.push(
            "failures",
            Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        );
        j
    }
}

pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measures `workloads`: repetitions interleaved round-robin until each
/// budget is spent, then the warm pass, then the set-up samples (last,
/// so that batches of set-ups never inflate a workload's peak RSS).
pub fn measure(workloads: &[Workload], opts: &Options) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = workloads.iter().map(|&w| WorkloadRun::new(w)).collect();
    while runs.iter().any(|s| s.wants_rep(opts)) {
        for s in runs.iter_mut().filter(|s| s.wants_rep(opts)) {
            s.rep(opts);
        }
    }
    for s in &mut runs {
        s.warm_pass();
        s.measure_setup(opts);
    }
    runs
}

/// Prints the table, writes `out/run.json` and returns whether every
/// check passed, plus the result line.
pub fn report(runs: &[WorkloadRun], opts: &Options) -> (bool, String) {
    for s in runs {
        println!("{}", s.summary());
        for f in &s.failures {
            println!("  FAILED {f}");
        }
    }
    let attempted: u64 = runs.iter().map(|s| s.attempted).sum();
    let failed: u64 = runs.iter().map(|s| s.failed).sum();
    let correct = failed == 0 && runs.iter().all(|s| s.peak_rss_mb > 0.0);

    let mut doc = Json::obj();
    doc.push("format", Json::Str("gw-benchmark-run-v1".into()));
    doc.push("seed", Json::U64(opts.seed));
    doc.push("seconds", Json::F64(opts.seconds));
    doc.push("smoke", Json::Bool(opts.size == Size::Smoke));
    let mut by_workload = Json::obj();
    for s in runs {
        by_workload.push(s.workload.name(), s.to_json());
    }
    doc.push("workloads", by_workload);
    crate::write_out("run.json", &doc.to_pretty());
    append_run(&doc);

    let metrics = match runs {
        [one] => metrics::metrics_json(&END_TO_END, &one.measured()),
        many => {
            let mut obj = Json::obj();
            for s in many {
                obj.push(
                    s.workload.name(),
                    metrics::metrics_json(&END_TO_END, &s.measured()),
                );
            }
            obj
        }
    };
    (
        correct,
        metrics::result_line(correct, attempted, failed, metrics),
    )
}

/// Appends `doc` as one line of `out/runs.jsonl`, the history that
/// `gw-benchmark compare` reads.
fn append_run(doc: &Json) {
    let path = out_dir().join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", doc.to_compact()));
    if let Err(e) = appended {
        eprintln!("gw-benchmark: cannot append to {}: {e}", path.display());
    }
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) to the current
/// resident set. Best effort: without it the peak covers the whole
/// process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
