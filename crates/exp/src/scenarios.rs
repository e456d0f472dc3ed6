//! The §2 scripted sharing-pattern scenarios (Figs. 4 and 5).
//!
//! These are not workloads — they are two hand-written thread programs
//! whose *message traces* are the figure. The builders live here so the
//! engine can run them as cached cells: the formatted trace lines
//! are deterministic and stored in the [`RunRecord`], which is what lets
//! a warm `repro-all` render both figures without a single simulation.

use ghostwriter_core::{Machine, MachineConfig, Protocol};

use crate::record::RunRecord;
use crate::spec::Scenario;

/// Runs one scenario under `protocol` and captures stats + trace.
pub fn run_scenario(scenario: Scenario, protocol: Protocol) -> RunRecord {
    match scenario {
        Scenario::Fig04Migratory => migratory(protocol),
        Scenario::Fig05ProducerConsumer => producer_consumer(protocol),
    }
}

/// Fig. 4: two cores alternately load and store/scribble different
/// offsets of one block; Ghostwriter's GS removes the UPGRADE round.
fn migratory(protocol: Protocol) -> RunRecord {
    let mut m = Machine::new(MachineConfig {
        cores: 2,
        protocol,
        ..MachineConfig::default()
    });
    m.enable_trace();
    let block = m.alloc_padded(64);
    let rounds = 4u32;
    // Core 0: epoch 0 store to offset 0, later loads (Fig. 4 epochs).
    m.add_thread(move |ctx| async move {
        ctx.approx_begin(4).await;
        for r in 0..rounds {
            ctx.store_u32(block, r).await; // conventional store, offset 0
            ctx.barrier().await;
            ctx.barrier().await;
            let _ = ctx.load_u32(block).await; // re-read own offset
            ctx.barrier().await;
        }
        ctx.approx_end().await;
    });
    // Core 1: loads offset 1, then scribbles a similar value to it.
    m.add_thread(move |ctx| async move {
        ctx.approx_begin(4).await;
        for r in 0..rounds {
            ctx.barrier().await;
            let v = ctx.load_u32(block.add(4)).await;
            ctx.scribble_u32(block.add(4), v + (r & 1)).await;
            ctx.barrier().await;
            ctx.barrier().await;
        }
        ctx.approx_end().await;
    });
    let run = m.run();
    let trace = run
        .trace
        .iter()
        .map(|t| {
            format!(
                "cycle {:>5}  {:<10} {:?} -> {:?}  {:?}",
                t.cycle, t.name, t.src, t.dst, t.block
            )
        })
        .collect();
    RunRecord {
        cycles: run.report.cycles,
        error_percent: 0.0,
        stats: run.report.stats.clone(),
        trace,
        extra: trace_message_counts(&run.trace),
    }
}

/// Fig. 5: core 0 produces, core 2 consumes, core 1 becomes the next
/// producer; under Ghostwriter its scribble enters GI without a GETX.
fn producer_consumer(protocol: Protocol) -> RunRecord {
    let mut m = Machine::new(MachineConfig {
        cores: 3,
        protocol,
        ..MachineConfig::default()
    });
    m.enable_trace();
    let block = m.alloc_padded(64);
    let rounds = 4u32;
    // Core 0: first producer (conventional store to offset 0).
    m.add_thread(move |ctx| async move {
        ctx.approx_begin(4).await;
        for r in 0..rounds {
            ctx.store_u32(block, 100 + r).await;
            ctx.barrier().await; // epoch 0 -> 1
            ctx.barrier().await; // epoch 1 -> 2
        }
        ctx.approx_end().await;
    });
    // Core 1: next producer — holds a stale copy, scribbles offset 1.
    m.add_thread(move |ctx| async move {
        ctx.approx_begin(4).await;
        // Warm core 1's cache so its copy exists (tag present) and is
        // then invalidated by core 0's store.
        let _ = ctx.load_u32(block.add(4)).await;
        for r in 0..rounds {
            ctx.barrier().await;
            let v = ctx.load_u32(block.add(4)).await;
            ctx.scribble_u32(block.add(4), v + (r & 1)).await;
            ctx.barrier().await;
        }
        ctx.approx_end().await;
    });
    // Core 2: consumer — reads offset 0 every epoch.
    m.add_thread(move |ctx| async move {
        ctx.approx_begin(4).await;
        for _ in 0..rounds {
            ctx.barrier().await;
            let _ = ctx.load_u32(block).await;
            ctx.barrier().await;
        }
        ctx.approx_end().await;
    });
    let run = m.run();
    let trace = run
        .trace
        .iter()
        .map(|t| {
            format!(
                "cycle {:>5}  {:<10} {:?} -> {:?}",
                t.cycle, t.name, t.src, t.dst
            )
        })
        .collect();
    RunRecord {
        cycles: run.report.cycles,
        error_percent: 0.0,
        stats: run.report.stats.clone(),
        trace,
        extra: trace_message_counts(&run.trace),
    }
}

/// The figures' headline numbers: exclusive requests (GETX/UPGRADE) as
/// counted on the wire-name trace, matching what the original binaries
/// printed.
fn trace_message_counts(trace: &[ghostwriter_core::machine::TraceEntry]) -> Vec<(String, f64)> {
    let getx = trace
        .iter()
        .filter(|t| t.name == "GETX" || t.name == "UPGRADE")
        .count() as f64;
    vec![("exclusive_requests".into(), getx)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        for s in [Scenario::Fig04Migratory, Scenario::Fig05ProducerConsumer] {
            let a = run_scenario(s, Protocol::ghostwriter());
            let b = run_scenario(s, Protocol::ghostwriter());
            assert_eq!(a.result_fingerprint(), b.result_fingerprint(), "{s:?}");
            assert!(!a.trace.is_empty());
        }
    }

    #[test]
    fn ghostwriter_reduces_exclusive_requests() {
        for s in [Scenario::Fig04Migratory, Scenario::Fig05ProducerConsumer] {
            let mesi = run_scenario(s, Protocol::Mesi);
            let gw = run_scenario(s, Protocol::ghostwriter());
            assert!(
                gw.extra_value("exclusive_requests") < mesi.extra_value("exclusive_requests"),
                "{s:?}: GS/GI must remove GETX/UPGRADE rounds"
            );
        }
    }
}
