//! Deep-dive value-similarity profiler (the instrumentation behind
//! Fig. 2), served from the experiment engine's result cache: the
//! default `linear_regression` profile at the evaluation core count is
//! the Fig. 2 cell, so a warm cache answers instantly.
//!
//! ```text
//! profile_similarity [app] [cores]
//! ```
//!
//! An unknown app, an unparsable core count or one the machine cannot
//! run is a usage error: a `profile_similarity: <message>` line and
//! exit 2.

use ghostwriter_exp::experiments::{profile_similarity_render, profile_similarity_spec};
use ghostwriter_exp::{Engine, ExperimentSpec, RunKind, Scale};

fn main() {
    let mut args = std::env::args().skip(1);
    let app = args.next().unwrap_or_else(|| "linear_regression".into());
    let spec = build(&app, args.next()).unwrap_or_else(|msg| {
        eprintln!("profile_similarity: {msg}");
        std::process::exit(2)
    });
    let (records, _) = Engine::new(1).run(&spec.runs);
    print!("{}", profile_similarity_render(&spec, &records));
}

/// The profile of `app` on `cores` cores (24 if absent), or why it
/// cannot run.
fn build(app: &str, cores: Option<String>) -> Result<ExperimentSpec, String> {
    let cores = match cores {
        None => 24,
        Some(a) => a
            .parse()
            .map_err(|e| format!("bad core count {a:?}: {e}"))?,
    };
    if ghostwriter_workloads::find_benchmark(app).is_none() {
        return Err(format!("unknown app {app}"));
    }
    let spec = profile_similarity_spec(app, cores, Scale::Eval);
    if let RunKind::Workload { config, .. } = &spec.runs[0].kind {
        config.check().map_err(|e| e.to_string())?;
    }
    Ok(spec)
}
