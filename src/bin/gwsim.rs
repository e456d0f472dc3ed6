//! `gwsim` — command-line driver for the Ghostwriter simulator.
//!
//! Runs any Table 2 application (or microbenchmark) on a configurable
//! machine and prints the full report; with `--compare` it runs the
//! baseline/Ghostwriter pair and the paper's derived metrics.
//!
//! ```text
//! gwsim linear_regression --cores 24 --d 8 --compare
//! gwsim jpeg --cores 8 --protocol mesi --scale test
//! gwsim bad_dot_product --capture --timeout 512 --compare
//! gwsim --list
//! ```
//!
//! A flag value the machine cannot run (`--cores 0`, `--timeout 0`,
//! `--switch 0`, `--d 64`, more threads than cores, ...) is a usage
//! error: a message and exit code 2, before anything is simulated.

use ghostwriter::core::config::{GiStorePolicy, GwConfig};
use ghostwriter::core::{BaseProtocol, MachineConfig, Protocol};
use ghostwriter::workloads::{
    execute, micro_benchmarks, paper_benchmarks, BenchmarkEntry, ScaleClass,
};

struct Options {
    app: String,
    cores: usize,
    threads: Option<usize>,
    d: u8,
    mesi: bool,
    msi_base: bool,
    capture: bool,
    timeout: u64,
    bound: Option<u32>,
    contention: bool,
    switch_period: Option<u64>,
    scale: ScaleClass,
    run_compare: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gwsim <app> [options]\n\
         \n\
         options:\n\
           --list               list applications and exit\n\
           --cores N            cores (default 24, paper Table 1)\n\
           --threads N          threads (default = cores)\n\
           --d N                d-distance for scribbles (default 8)\n\
           --protocol mesi|gw   baseline or Ghostwriter (default gw)\n\
           --msi                use the MSI protocol family (no E state)\n\
           --capture            Fig. 3-literal GI store policy\n\
           --timeout N          GI timeout in cycles (default 1024)\n\
           --bound N            §3.5 error bound (max hidden writes)\n\
           --contention         model per-link NoC contention\n\
           --switch N           context-switch period in cycles (§3.5 forfeit)\n\
           --scale test|eval    input scale (default eval)\n\
           --compare            run MESI + Ghostwriter and derive Figs. 7-11"
    );
    std::process::exit(2)
}

fn parse() -> Options {
    let mut args = std::env::args().skip(1);
    let mut o = Options {
        app: String::new(),
        cores: 24,
        threads: None,
        d: 8,
        mesi: false,
        msi_base: false,
        capture: false,
        timeout: 1024,
        bound: None,
        contention: false,
        switch_period: None,
        scale: ScaleClass::Eval,
        run_compare: false,
    };
    fn next_num<T: std::str::FromStr>(args: &mut dyn Iterator<Item = String>, flag: &str) -> T {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric argument");
            usage()
        })
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for e in paper_benchmarks().iter().chain(micro_benchmarks().iter()) {
                    println!("{:<20} {} ({})", e.name, e.domain, e.suite.label());
                }
                std::process::exit(0);
            }
            "--cores" => o.cores = next_num(&mut args, "--cores"),
            "--threads" => o.threads = Some(next_num(&mut args, "--threads")),
            "--d" => o.d = next_num(&mut args, "--d"),
            "--timeout" => o.timeout = next_num(&mut args, "--timeout"),
            "--bound" => o.bound = Some(next_num(&mut args, "--bound")),
            "--capture" => o.capture = true,
            "--msi" => o.msi_base = true,
            "--contention" => o.contention = true,
            "--switch" => o.switch_period = Some(next_num(&mut args, "--switch")),
            "--compare" => o.run_compare = true,
            "--protocol" => match args.next().as_deref() {
                Some("mesi") => o.mesi = true,
                Some("gw") | Some("ghostwriter") => o.mesi = false,
                _ => usage(),
            },
            "--scale" => match args.next().as_deref() {
                Some("test") => o.scale = ScaleClass::Test,
                Some("eval") => o.scale = ScaleClass::Eval,
                _ => usage(),
            },
            "-h" | "--help" => usage(),
            name if !name.starts_with('-') && o.app.is_empty() => o.app = name.to_string(),
            other => {
                eprintln!("unknown option {other}");
                usage()
            }
        }
    }
    if o.app.is_empty() {
        usage()
    }
    o
}

fn find(app: &str) -> BenchmarkEntry {
    paper_benchmarks()
        .into_iter()
        .chain(micro_benchmarks())
        .find(|e| e.name == app)
        .unwrap_or_else(|| {
            eprintln!("unknown application '{app}' (try --list)");
            std::process::exit(2)
        })
}

/// Rejects what `execute` would otherwise panic or hang on.
fn check(o: &Options, threads: usize, cfg: &MachineConfig) -> Result<(), String> {
    cfg.check().map_err(|e| e.to_string())?;
    if !(1..=o.cores).contains(&threads) {
        return Err(format!("--threads must be in 1..={} (--cores)", o.cores));
    }
    if o.d >= 64 {
        return Err("--d must be below 64".into());
    }
    Ok(())
}

fn main() {
    let o = parse();
    let entry = find(&o.app);
    let threads = o.threads.unwrap_or(o.cores);
    let gw = Protocol::Ghostwriter(GwConfig {
        gi_timeout: o.timeout,
        gi_stores: if o.capture {
            GiStorePolicy::Capture
        } else {
            GiStorePolicy::Fallback
        },
        max_hidden_writes: o.bound,
        ..GwConfig::default()
    });
    let cfg = |protocol| MachineConfig {
        cores: o.cores,
        protocol,
        base_protocol: if o.msi_base {
            BaseProtocol::Msi
        } else {
            BaseProtocol::Mesi
        },
        model_contention: o.contention,
        context_switch_period: o.switch_period,
        ..MachineConfig::default()
    };
    // The Ghostwriter config carries every flag, so checking it covers
    // the baseline too.
    if let Err(e) = check(&o, threads, &cfg(gw)) {
        eprintln!("gwsim: {e}");
        std::process::exit(2);
    }

    if o.run_compare {
        let scale = o.scale;
        let base_cfg = cfg(Protocol::Mesi);
        let mut base_w = entry.build(scale);
        let base = execute(base_w.as_mut(), base_cfg, threads, o.d);
        let mut gw_w = entry.build(scale);
        let g = execute(gw_w.as_mut(), cfg(gw), threads, o.d);
        println!(
            "{} @ {} cores, d={} ({})",
            entry.name,
            o.cores,
            o.d,
            entry.metric.label()
        );
        println!(
            "  baseline : {:>9} cycles  {:>8} messages",
            base.report.cycles,
            base.report.stats.traffic.total()
        );
        println!(
            "  ghostwriter: {:>7} cycles  {:>8} messages",
            g.report.cycles,
            g.report.stats.traffic.total()
        );
        println!(
            "  speedup {:.1}%  traffic {:.3}  energy saved {:.1}%  error {:.4}%",
            g.report.speedup_percent_vs(&base.report),
            g.report.normalized_traffic_vs(&base.report),
            g.report.energy_saved_percent_vs(&base.report),
            g.error_percent
        );
        println!(
            "  GS serviced {:.1}%  GI serviced {:.1}%  GS inv {}  GI timeouts {}",
            g.report.stats.gs_service_fraction() * 100.0,
            g.report.stats.gi_service_fraction() * 100.0,
            g.report.stats.gs_invalidations,
            g.report.stats.gi_timeouts
        );
        return;
    }

    let protocol = if o.mesi { Protocol::Mesi } else { gw };
    let mut w = entry.build(o.scale);
    let out = execute(w.as_mut(), cfg(protocol), threads, o.d);
    let s = &out.report.stats;
    println!("{} @ {} cores, {:?}", entry.name, o.cores, protocol);
    println!("  cycles           : {}", out.report.cycles);
    println!(
        "  instructions     : {} loads, {} stores, {} scribbles, {} barriers",
        s.loads, s.stores, s.scribbles, s.barriers
    );
    println!(
        "  L1               : {} hits, {} misses ({:.2}% miss rate)",
        s.l1_load_hits + s.l1_store_hits,
        s.l1_misses(),
        100.0 * s.l1_misses() as f64 / s.l1_accesses().max(1) as f64
    );
    println!(
        "  coherence        : {} messages, {} flit-hops",
        s.traffic.total(),
        s.traffic.flit_hops()
    );
    println!(
        "  approximate      : GS {} entries + {} hits, GI {} entries + {} hits, {} forfeits",
        s.serviced_by_gs,
        s.gs_hits,
        s.serviced_by_gi,
        s.gi_store_hits,
        s.gs_invalidations + s.gi_timeouts + s.approx_evictions
    );
    println!(
        "  DRAM             : {} reads, {} writes",
        s.dram_reads, s.dram_writes
    );
    println!(
        "  energy           : {:.1} nJ memory + {:.1} nJ network",
        out.report.energy.memory_pj / 1000.0,
        out.report.energy.network_pj / 1000.0
    );
    println!(
        "  output error     : {:.4}% ({})",
        out.error_percent,
        entry.metric.label()
    );
    println!(
        "  load imbalance   : {:.3} (max finish / mean finish)",
        out.report.imbalance()
    );
    println!("  per-core         : ops / hits / misses / approx-serviced / finish");
    for (c, pc) in out.report.per_core.iter().enumerate() {
        println!(
            "    core {c:<2}        : {:>7} {:>7} {:>6} {:>6} {:>9}",
            pc.ops, pc.l1_hits, pc.l1_misses, pc.approx_serviced, pc.finish_cycle
        );
    }
}
