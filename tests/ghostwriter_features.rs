//! Machine-level tests of the paper's programmer-model details (§3.1,
//! §3.5) and this reproduction's extensions.

use ghostwriter::core::config::GwConfig;
use ghostwriter::core::{Machine, MachineConfig, Protocol};
use ghostwriter::workloads::{execute, BadDotProduct};

fn machine(cores: usize, protocol: Protocol) -> Machine {
    Machine::new(MachineConfig {
        cores,
        protocol,
        ..MachineConfig::default()
    })
}

/// §3.1: `approx_dist` can be re-programmed between regions (the
/// `setaprx` instruction): the same store value is approximated under a
/// loose region and published under a tight one.
#[test]
fn per_region_d_distances() {
    let mut m = machine(2, Protocol::ghostwriter());
    let block = m.alloc_padded(64);
    m.add_thread(move |ctx| async move {
        for r in 0..8u32 {
            ctx.store_u32(block, 0x100 * r).await;
            ctx.barrier().await;
            ctx.barrier().await;
        }
    });
    m.add_thread(move |ctx| async move {
        let mut gs_like_hits = 0u32;
        for r in 0..8u32 {
            ctx.barrier().await;
            let v = ctx.load_u32(block.add(4)).await;
            // First half: tight region (d=1) — delta 2 always publishes.
            // Second half: loose region (d=4) — delta 2 is absorbed.
            let d = if r < 4 { 1 } else { 4 };
            ctx.approx_begin(d).await;
            ctx.scribble_u32(block.add(4), v + 2).await;
            ctx.approx_end().await;
            gs_like_hits += 1;
            ctx.barrier().await;
        }
        assert_eq!(gs_like_hits, 8);
    });
    let run = m.run();
    let s = &run.report.stats;
    // The loose region's scribbles (4 of them) were serviced by GS; the
    // tight region's went conventional.
    assert_eq!(s.serviced_by_gs + s.gs_hits, 4, "loose-region scribbles");
    assert!(s.upgrades_from_s + s.stores_on_invalid_tagged >= 4);
}

/// §3.1: `approx_end` does not flush — blocks already in GS remain
/// usable for computation (loads still hit and see the local values).
#[test]
fn approx_end_keeps_gs_blocks_warm() {
    let mut m = machine(2, Protocol::ghostwriter());
    let block = m.alloc_padded(64);
    let result = m.alloc_padded(64);
    m.add_thread(move |ctx| async move {
        ctx.store_u32(block, 5).await;
        ctx.barrier().await;
        ctx.barrier().await;
    });
    m.add_thread(move |ctx| async move {
        ctx.barrier().await;
        // Enter GS with a hidden write...
        let v = ctx.load_u32(block.add(4)).await;
        ctx.approx_begin(4).await;
        ctx.scribble_u32(block.add(4), v + 3).await;
        ctx.approx_end().await;
        // ...after approx_end the local copy still serves loads (hit,
        // hidden value visible to this core).
        let local = ctx.load_u32(block.add(4)).await;
        ctx.store_u32(result, local).await;
        ctx.barrier().await;
    });
    let run = m.run();
    assert_eq!(
        run.read_u32(result),
        3,
        "load after approx_end sees the local GS value"
    );
    assert_eq!(run.report.stats.serviced_by_gs, 1);
}

/// Extension (§3.5): the runtime error bound caps the pathological
/// microbenchmark's error under the Capture policy with only a modest
/// traffic give-back.
#[test]
fn error_bound_tames_capture_divergence() {
    let run = |bound| {
        capture_error_and_traffic(Protocol::Ghostwriter(GwConfig {
            gi_stores: ghostwriter::core::GiStorePolicy::Capture,
            max_hidden_writes: bound,
            ..GwConfig::default()
        }))
    };
    let (unbounded_error, _) = run(None);
    let (bounded_error, bounded_traffic) = run(Some(4));
    assert!(
        bounded_error < unbounded_error / 2.0 || unbounded_error < 1.0,
        "bound must cut error: {bounded_error} vs {unbounded_error}"
    );
    assert!(
        bounded_traffic < 1.0,
        "bounded run should still save traffic"
    );
}

/// Fig. 12's direction at machine level: under Capture semantics, a
/// longer GI timeout hides more work and loses more of it.
#[test]
fn longer_timeout_means_more_error_under_capture() {
    let (short_error, short_traffic) =
        capture_error_and_traffic(Protocol::ghostwriter_capture(128));
    let (long_error, long_traffic) = capture_error_and_traffic(Protocol::ghostwriter_capture(2048));
    assert!(
        long_error >= short_error,
        "error should grow with the timeout: {long_error} vs {short_error}"
    );
    assert!(
        long_traffic <= short_traffic + 1e-9,
        "traffic should shrink with the timeout"
    );
}

/// The pathological dot product on 8 cores at d = 4 under `protocol`:
/// its output error (%) and its coherence traffic normalized to a
/// baseline MESI run of the same inputs.
fn capture_error_and_traffic(protocol: Protocol) -> (f64, f64) {
    let run = |protocol| {
        let mut w = BadDotProduct::with_work(0xF16, 1_200, true, 64);
        let cfg = MachineConfig {
            cores: 8,
            protocol,
            ..MachineConfig::default()
        };
        execute(&mut w, cfg, 8, 4)
    };
    let base = run(Protocol::Mesi);
    assert_eq!(base.error_percent, 0.0, "baseline MESI must be exact");
    let gw = run(protocol);
    (
        gw.error_percent,
        gw.report.stats.normalized_traffic_vs(&base.report.stats),
    )
}

/// The d-legality rule (§3.1): d ≥ 8 on byte accesses demotes to
/// conventional stores — byte data is never blanket-approximated.
#[test]
fn byte_scribbles_at_d8_are_demoted() {
    let mut m = machine(2, Protocol::ghostwriter());
    let block = m.alloc_padded(64);
    m.add_thread(move |ctx| async move {
        ctx.store_u8(block, 1).await;
        ctx.barrier().await;
        ctx.barrier().await;
    });
    m.add_thread(move |ctx| async move {
        ctx.barrier().await;
        let _ = ctx.load_u8(block.add(1)).await;
        ctx.approx_begin(8).await;
        // Byte store at d=8: would admit any value, so it must take the
        // conventional UPGRADE path instead of entering GS.
        ctx.scribble_u8(block.add(1), 200).await;
        ctx.approx_end().await;
        ctx.barrier().await;
    });
    let run = m.run();
    assert_eq!(run.report.stats.serviced_by_gs, 0);
    assert_eq!(run.report.stats.scribbles, 0, "demoted to a store");
    assert_eq!(run.read_u32(block.add(0)) & 0xFF, 1);
}

/// Energy accounting sanity at machine level: events are populated, the
/// split matches the model, and Ghostwriter's savings come from fewer
/// events, not different constants.
#[test]
fn energy_accounting_is_consistent() {
    use ghostwriter::energy::EnergyModel;
    let run = |protocol| {
        let mut m = machine(4, protocol);
        let shared = m.alloc_padded(64);
        for t in 0..4u64 {
            m.add_thread(move |ctx| async move {
                ctx.approx_begin(4).await;
                let slot = shared.add(4 * t);
                for i in 0..100u32 {
                    let v = ctx.load_u32(slot).await;
                    ctx.scribble_u32(slot, v + (i & 1)).await;
                }
                ctx.approx_end().await;
            });
        }
        m.run().report
    };
    let base = run(Protocol::Mesi);
    let gw = run(Protocol::ghostwriter());
    for r in [&base, &gw] {
        let ev = &r.stats.energy_events;
        assert!(ev.l1_reads > 0 && ev.l1_writes > 0);
        assert_eq!(ev.router_flits, r.stats.traffic.router_flits());
        assert_eq!(ev.link_flit_hops, r.stats.traffic.flit_hops());
        // Re-evaluating the model over the events reproduces the report.
        let again = EnergyModel::default().evaluate(ev);
        assert_eq!(again.memory_pj, r.energy.memory_pj);
        assert_eq!(again.network_pj, r.energy.network_pj);
    }
    assert!(gw.energy.total_pj() < base.energy.total_pj());
}

/// The machine honours custom energy models.
#[test]
fn custom_energy_model_scales_results() {
    use ghostwriter::energy::EnergyModel;
    let run = |scale: f64| {
        let mut m = machine(2, Protocol::Mesi);
        let mut model = EnergyModel::default();
        model.l1_read_pj *= scale;
        model.l1_write_pj *= scale;
        model.l2_read_pj *= scale;
        model.l2_write_pj *= scale;
        model.l2_tag_pj *= scale;
        model.l1_tag_pj *= scale;
        model.dram_read_pj *= scale;
        model.dram_write_pj *= scale;
        m.set_energy_model(model);
        let a = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            for i in 0..50u32 {
                ctx.store_u32(a, i).await;
            }
        });
        m.run().report.energy.memory_pj
    };
    let base = run(1.0);
    let doubled = run(2.0);
    assert!((doubled - 2.0 * base).abs() < 1e-6);
}
