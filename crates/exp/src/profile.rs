//! `gwbench profile` — the in-simulator cycle-attribution report.
//!
//! Runs a small set of representative kernels with the engine's
//! profiler enabled ([`ghostwriter_core::Machine::enable_profiling`])
//! and emits, per kernel, a per-phase attribution table ranked by
//! estimated wall time, plus one machine-readable JSON artifact for all
//! kernels. The profiler charges every simulated cycle to the phase
//! whose event advanced the clock, so each kernel's per-phase cycles
//! sum to *exactly* its simulated cycle count — the subcommand verifies
//! this reconciliation and exits non-zero if it ever fails.
//!
//! With `--overhead-check` the storm kernel is additionally run withOUT
//! profiling and its stats JSON compared byte-for-byte against the
//! profiled run's, proving the profiler observes without perturbing the
//! simulation; the profiled run's wall time is also gated against the
//! unprofiled run's (a loose 3x bound, CI noise included).

use std::time::Instant;

use ghostwriter_core::{BaseProtocol, Json, MachineConfig, Phase, Profile, Protocol, ALL_PHASES};
use ghostwriter_workloads::{find_benchmark, ScaleClass, DEFAULT_SEED};

/// Default artifact path (under `results/`, not committed).
pub const DEFAULT_OUT: &str = "results/profile.json";

/// Default phase-share snapshot path (repo root, committed). Regenerate
/// with `UPDATE_GOLDEN=1 gwbench profile --phases`.
pub const DEFAULT_PHASES: &str = "PROFILE_phases.json";

/// Headroom added to each measured share when a snapshot is written:
/// the committed bound is `measured + PHASE_SLACK_PCT` percentage
/// points. Cycle shares are deterministic for a given binary, so the
/// slack only absorbs *legitimate* drift from future changes — a phase
/// silently re-bloating past it fails the gate.
pub const PHASE_SLACK_PCT: f64 = 5.0;

/// One profiled kernel run.
pub struct ProfiledKernel {
    /// Kernel name.
    pub name: String,
    /// `smoke` or `full`.
    pub scale: String,
    /// Simulated cycles from the report.
    pub cycles: u64,
    /// Wall-clock milliseconds of the profiled run.
    pub wall_ms: f64,
    /// The attribution report.
    pub profile: Profile,
}

impl ProfiledKernel {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("name", Json::Str(self.name.clone()));
        j.push("scale", Json::Str(self.scale.clone()));
        j.push("cycles", Json::U64(self.cycles));
        j.push("wall_ms", Json::F64(self.wall_ms));
        j.push("attribution", self.profile.to_json());
        j
    }
}

impl ProfiledKernel {
    /// Percentage of this kernel's attributed cycles charged to `p`.
    /// Cycle attribution is deterministic (unlike sampled wall time),
    /// which is what makes the `--phases` gate reproducible across
    /// machines.
    pub fn cycle_share(&self, p: Phase) -> f64 {
        let total = self.profile.attributed_cycles();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.profile.phases[p as usize].cycles as f64 / total as f64
    }
}

/// Serializes the per-kernel phase-share bounds snapshot: for every
/// kernel and phase, the measured cycle share plus [`PHASE_SLACK_PCT`]
/// points of headroom.
pub fn phases_snapshot(kernels: &[ProfiledKernel]) -> Json {
    let mut j = Json::obj();
    j.push("format", Json::Str("gwbench-phases-v1".into()));
    j.push("slack_pct", Json::F64(PHASE_SLACK_PCT));
    let mut arr = Vec::new();
    for k in kernels {
        let mut kj = Json::obj();
        kj.push("name", Json::Str(k.name.clone()));
        kj.push("scale", Json::Str(k.scale.clone()));
        let mut bounds = Vec::new();
        for p in ALL_PHASES {
            let mut bj = Json::obj();
            bj.push("phase", Json::Str(p.name().into()));
            // Two decimals keep the file diff-stable. No 100% cap:
            // routing is an overlap metric (its latency cycles are
            // charged to the delivery phases too), so its share may
            // legitimately exceed 100.
            let bound = k.cycle_share(p) + PHASE_SLACK_PCT;
            bj.push("max_share_pct", Json::F64((bound * 100.0).round() / 100.0));
            bounds.push(bj);
        }
        kj.push("bounds", Json::Arr(bounds));
        arr.push(kj);
    }
    j.push("kernels", Json::Arr(arr));
    j
}

/// Checks measured cycle shares against the committed snapshot at
/// `path`. Returns the list of violations (empty = pass); `Err` means
/// the snapshot could not be read or parsed, or covers a different
/// scale than this run.
pub fn check_phases(kernels: &[ProfiledKernel], path: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("cannot parse snapshot {path}: {e:?}"))?;
    let snap_kernels = j
        .field("kernels")
        .and_then(|k| k.as_arr())
        .map_err(|e| format!("malformed snapshot {path}: {e:?}"))?;
    let mut violations = Vec::new();
    for sk in snap_kernels {
        let mut parse = || -> Result<(), ghostwriter_core::JsonError> {
            let name = sk.field("name")?.as_str()?;
            let scale = sk.field("scale")?.as_str()?;
            let Some(k) = kernels.iter().find(|k| k.name == name && k.scale == scale) else {
                // Scale mismatch (e.g. a full-scale snapshot checked on
                // a --smoke run) is a configuration error, not a pass.
                violations.push(format!(
                    "{name}/{scale}: present in snapshot but not profiled this run"
                ));
                return Ok(());
            };
            for b in sk.field("bounds")?.as_arr()? {
                let phase_name = b.field("phase")?.as_str()?;
                let bound = b.field("max_share_pct")?.as_f64()?;
                let Some(p) = ALL_PHASES.iter().find(|p| p.name() == phase_name) else {
                    violations.push(format!("{name}/{scale}: unknown phase `{phase_name}`"));
                    continue;
                };
                let share = k.cycle_share(*p);
                if share > bound {
                    violations.push(format!(
                        "{name}/{scale}: {phase_name} cycle share {share:.2}% exceeds bound {bound:.2}%"
                    ));
                }
            }
            Ok(())
        };
        parse().map_err(|e| format!("malformed snapshot {path}: {e:?}"))?;
    }
    Ok(violations)
}

/// Serializes a run to the artifact format.
pub fn to_json(kernels: &[ProfiledKernel]) -> Json {
    let mut j = Json::obj();
    j.push("format", Json::Str("gwbench-profile-v1".into()));
    j.push(
        "kernels",
        Json::Arr(kernels.iter().map(ProfiledKernel::to_json).collect()),
    );
    j
}

/// Runs `m` with profiling enabled and packages the attribution.
fn profiled_run(name: &str, scale: &str, mut m: ghostwriter_core::Machine) -> ProfiledKernel {
    m.enable_profiling();
    let started = Instant::now();
    let run = m.run();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    ProfiledKernel {
        name: name.into(),
        scale: scale.into(),
        cycles: run.report.cycles,
        wall_ms,
        profile: run.profile.expect("profiling was enabled"),
    }
}

/// The NoC contention storm at profile scale: one packed block of
/// per-core `u32` slots, each of 8 MESI cores in a load/store ping-pong
/// on its own slot, with flit-level link contention modelled.
fn storm(scale: &str) -> ghostwriter_core::Machine {
    const CORES: usize = 8;
    let iters: u32 = if scale == "smoke" { 3_000 } else { 30_000 };
    let mut cfg = MachineConfig::small_base(CORES, Protocol::Mesi, BaseProtocol::Mesi);
    cfg.model_contention = true;
    let mut m = ghostwriter_core::Machine::new(cfg);
    let block = m.alloc_padded(4 * CORES as u64);
    for t in 0..CORES {
        let slot = block.add(4 * t as u64);
        m.add_thread(move |ctx| async move {
            for i in 0..iters {
                let v = ctx.load_u32(slot).await;
                ctx.store_u32(slot, v.wrapping_add(i)).await;
            }
            ctx.barrier().await;
        });
    }
    m
}

/// A registry workload built onto a machine we keep control of, so
/// profiling can be switched on before the run.
fn workload_machine(name: &str, scale: &str) -> ghostwriter_core::Machine {
    let entry = find_benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let class = if scale == "smoke" {
        ScaleClass::Test
    } else {
        ScaleClass::Eval
    };
    let mut w = entry.build_seeded(class, DEFAULT_SEED);
    let cfg = MachineConfig {
        cores: 8,
        protocol: Protocol::ghostwriter(),
        ..MachineConfig::default()
    };
    let mut m = ghostwriter_core::Machine::new(cfg);
    w.build(&mut m, 8, 8);
    m
}

/// Profiles every kernel at one scale.
pub fn run_scale(scale: &str) -> Vec<ProfiledKernel> {
    let mut out = vec![profiled_run("noc_contention_storm", scale, storm(scale))];
    for w in ["histogram", "kmeans", "blackscholes"] {
        out.push(profiled_run(w, scale, workload_machine(w, scale)));
    }
    out
}

/// Renders the ranked per-phase table for one kernel.
pub fn render(k: &ProfiledKernel) -> String {
    let mut ranked: Vec<Phase> = ALL_PHASES.to_vec();
    ranked.sort_by_key(|p| std::cmp::Reverse(k.profile.phases[*p as usize].est_wall_ns()));
    let total_wall: u64 = ranked
        .iter()
        .map(|p| k.profile.phases[*p as usize].est_wall_ns())
        .sum();
    let mut s = format!(
        "{} ({}): {} cycles, {:.1} ms wall\n\
         phase          events        cycles    est_wall_ms  wall%\n",
        k.name, k.scale, k.cycles, k.wall_ms
    );
    for p in ranked {
        let c = &k.profile.phases[p as usize];
        let pct = if total_wall == 0 {
            0.0
        } else {
            100.0 * c.est_wall_ns() as f64 / total_wall as f64
        };
        s.push_str(&format!(
            "{:<12} {:>9} {:>13} {:>14.2} {:>6.1}\n",
            p.name(),
            c.events,
            c.cycles,
            c.est_wall_ns() as f64 / 1e6,
            pct
        ));
    }
    s.push_str(&format!(
        "attributed {} / simulated {} cycles; drain: {} cycles / {} events\n",
        k.profile.attributed_cycles(),
        k.cycles,
        k.profile.drain_cycles,
        k.profile.drain_events
    ));
    s
}

/// Runs the storm twice — profiler off, then on — and checks that the
/// stats JSON is byte-identical and the profiled run is not absurdly
/// slower. Returns an error description on failure.
fn overhead_check(scale: &str) -> Result<String, String> {
    let started = Instant::now();
    let off = storm(scale).run();
    let off_secs = started.elapsed().as_secs_f64();

    let mut m = storm(scale);
    m.enable_profiling();
    let started = Instant::now();
    let on = m.run();
    let on_secs = started.elapsed().as_secs_f64();

    let off_stats = off.report.stats.to_json().to_pretty();
    let on_stats = on.report.stats.to_json().to_pretty();
    if off_stats != on_stats {
        return Err("stats JSON differs between profiler-off and profiler-on runs".into());
    }
    if off.report.cycles != on.report.cycles {
        return Err(format!(
            "cycle count differs: {} off vs {} on",
            off.report.cycles, on.report.cycles
        ));
    }
    // Loose gate: sampled spans should keep the profiled run within a
    // small factor of the plain run even on a noisy CI box.
    if on_secs > off_secs * 3.0 + 0.05 {
        return Err(format!(
            "profiled run too slow: {on_secs:.3}s vs {off_secs:.3}s unprofiled"
        ));
    }
    Ok(format!(
        "overhead check: stats identical, {} cycles both runs; wall {:.3}s off vs {:.3}s on",
        off.report.cycles, off_secs, on_secs
    ))
}

/// `gwbench profile` entry point. Returns the process exit code.
pub fn main_profile(
    smoke: bool,
    out_path: &str,
    quiet: bool,
    check_overhead: bool,
    phases: Option<&str>,
) -> i32 {
    let scale = if smoke { "smoke" } else { "full" };
    let kernels = run_scale(scale);

    let mut code = 0;
    for k in &kernels {
        if !quiet {
            print!("{}", render(k));
            println!();
        }
        if k.profile.attributed_cycles() != k.cycles {
            eprintln!(
                "gwbench profile: RECONCILIATION FAILURE {}: attributed {} != simulated {}",
                k.name,
                k.profile.attributed_cycles(),
                k.cycles
            );
            code = 4;
        }
    }

    if check_overhead {
        match overhead_check(scale) {
            Ok(msg) => eprintln!("gwbench profile: {msg}"),
            Err(e) => {
                eprintln!("gwbench profile: OVERHEAD CHECK FAILED: {e}");
                code = 4;
            }
        }
    }

    if let Some(snap_path) = phases {
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            if let Err(e) = std::fs::write(snap_path, phases_snapshot(&kernels).to_pretty()) {
                eprintln!("gwbench profile: cannot write {snap_path}: {e}");
                return 1;
            }
            eprintln!("gwbench profile: regenerated phase-share snapshot {snap_path}");
        } else {
            match check_phases(&kernels, snap_path) {
                Ok(violations) if violations.is_empty() => {
                    eprintln!("gwbench profile: phase shares within {snap_path} bounds");
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("gwbench profile: PHASE SHARE EXCEEDED {v}");
                    }
                    eprintln!(
                        "gwbench profile: a phase re-bloated past its committed bound; \
                         if intentional, regen with UPDATE_GOLDEN=1 gwbench profile --phases"
                    );
                    code = 4;
                }
                Err(e) => {
                    eprintln!("gwbench profile: {e}");
                    return 1;
                }
            }
        }
    }

    if let Some(parent) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(out_path, to_json(&kernels).to_pretty()) {
        eprintln!("gwbench profile: cannot write {out_path}: {e}");
        return 1;
    }
    eprintln!(
        "gwbench profile: wrote {} kernels to {out_path}",
        kernels.len()
    );
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_attribution_reconciles_and_serializes() {
        let k = profiled_run("storm", "smoke", storm("smoke"));
        assert_eq!(k.profile.attributed_cycles(), k.cycles);
        let text = to_json(&[k]).to_pretty();
        let back = Json::parse(&text).expect("artifact parses");
        let kernels = back.field("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(
            kernels[0].field("cycles").unwrap().as_u64().unwrap(),
            kernels[0]
                .field("attribution")
                .unwrap()
                .field("attributed_cycles")
                .unwrap()
                .as_u64()
                .unwrap()
        );
    }

    #[test]
    fn overhead_check_passes_on_the_smoke_storm() {
        let msg = overhead_check("smoke").expect("profiler must not perturb the simulation");
        assert!(msg.contains("stats identical"), "{msg}");
    }

    #[test]
    fn phase_snapshot_round_trips_and_gates() {
        let k = profiled_run("storm", "smoke", storm("smoke"));
        let dir = std::env::temp_dir().join("gw_phases_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phases.json");
        let path = path.to_str().unwrap();

        // A snapshot taken from this very run passes with slack to spare.
        std::fs::write(path, phases_snapshot(std::slice::from_ref(&k)).to_pretty()).unwrap();
        assert_eq!(
            check_phases(std::slice::from_ref(&k), path).unwrap(),
            Vec::<String>::new()
        );

        // Tighten core_step's bound below its measured share: violation.
        let share = k.cycle_share(Phase::CoreStep);
        assert!(share > 1.0, "storm must spend cycles in core_step");
        let text = std::fs::read_to_string(path).unwrap();
        let mut j = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut j {
            let Json::Arr(kernels) =
                &mut fields.iter_mut().find(|(k, _)| k == "kernels").unwrap().1
            else {
                panic!("kernels not an array")
            };
            let Json::Obj(kf) = &mut kernels[0] else {
                panic!()
            };
            let Json::Arr(bounds) = &mut kf.iter_mut().find(|(k, _)| k == "bounds").unwrap().1
            else {
                panic!()
            };
            for b in bounds {
                let Json::Obj(bf) = b else { panic!() };
                if matches!(&bf.iter().find(|(k, _)| k == "phase").unwrap().1,
                            Json::Str(s) if s == "core_step")
                {
                    bf.iter_mut().find(|(k, _)| k == "max_share_pct").unwrap().1 =
                        Json::F64(share - 1.0);
                }
            }
        }
        std::fs::write(path, j.to_pretty()).unwrap();
        let violations = check_phases(std::slice::from_ref(&k), path).unwrap();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("core_step"), "{violations:?}");

        // A kernel in the snapshot that was not profiled is flagged too
        // (catches scale mismatches in CI).
        let missing = check_phases(&[], path).unwrap();
        assert!(!missing.is_empty());
    }

    #[test]
    fn render_mentions_every_phase() {
        let k = profiled_run("storm", "smoke", storm("smoke"));
        let table = render(&k);
        for p in ALL_PHASES {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
    }
}
