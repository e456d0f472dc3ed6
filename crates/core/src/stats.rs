//! Simulation statistics and the end-of-run report.
//!
//! Every quantity the paper's evaluation section plots is collected here:
//! coherence traffic by message class (Fig. 8), approximate-state service
//! counters (Fig. 7), energy events (Fig. 9), cycle counts (Figs. 1/10),
//! and the store value-similarity histogram (Fig. 2). The formulas the
//! figures derive from two runs' counters are defined here once
//! ([`Stats::gs_service_fraction`], [`Stats::normalized_traffic_vs`],
//! [`speedup_percent`]; Fig. 9 is `EnergyBreakdown::percent_saved_vs`),
//! and both `gwsim --compare` and the experiment renderers call them.

use ghostwriter_energy::{EnergyBreakdown, EnergyEvents, EnergyModel};
use ghostwriter_noc::{MessageKind, TrafficStats};

use crate::proto::Coverage;
use crate::scribe::SimilarityHistogram;

/// Names every plain `u64` counter of [`Stats`], in declaration order,
/// with its doc comment, by handing the whole list to `$m`. This is the
/// one list: the struct itself, [`Stats::merge_from`] and the record
/// JSON (`Stats::to_json` and the strict `Stats::from_json`) all expand
/// it, so a new counter is declared, summed and serialised by adding one
/// line here.
macro_rules! for_each_stats_counter {
    ($m:ident) => {
        $m! {
            // ---- instruction stream ----
            /// Loads issued by all cores.
            loads,
            /// Conventional stores issued (including scribbles demoted outside
            /// approximate regions or under the MESI baseline).
            stores,
            /// Scribbles issued inside an active approximate region.
            scribbles,
            /// Explicit compute cycles charged via `ctx.work`.
            work_cycles,
            /// Barrier episodes.
            barriers,

            // ---- L1 behaviour ----
            /// Loads that hit in the L1 (any readable state, including GS/GI).
            l1_load_hits,
            /// Loads that missed (GETS issued).
            l1_load_misses,
            /// Stores/scribbles serviced without a coherence transaction.
            l1_store_hits,
            /// Stores/scribbles that took a coherence transaction
            /// (GETX or UPGRADE).
            l1_store_misses,

            // ---- Ghostwriter counters (Fig. 7) ----
            /// Scribbles on an S block that passed the d-check: `S → GS`.
            serviced_by_gs,
            /// Stores (or failed scribbles) on an S block: conventional UPGRADE.
            upgrades_from_s,
            /// Scribbles on a tag-present Invalid block that passed: `I → GI`.
            serviced_by_gi,
            /// Stores (or failed scribbles) on a tag-present Invalid block:
            /// conventional GETX.
            stores_on_invalid_tagged,
            /// Subsequent store/scribble hits on GS blocks.
            gs_hits,
            /// Load hits on GI blocks (stale reads).
            gi_load_hits,
            /// Store/scribble hits on GI blocks (hidden writes).
            gi_store_hits,
            /// Conventional stores on GS blocks that published via UPGRADE.
            upgrades_from_gs,
            /// GS blocks returned to I by a remote invalidation (updates lost).
            gs_invalidations,
            /// GI blocks returned to I by the periodic timeout (updates lost).
            gi_timeouts,
            /// GI windows ended early by a failed scribble falling back to a
            /// conventional GETX (updates lost, store published).
            gi_breaks,
            /// GS/GI blocks evicted by replacement (updates lost).
            approx_evictions,

            // ---- protocol family (MOESI/MOSI/MESIF) ----
            /// GETS serviced by a dirty owner that retained ownership
            /// (MOESI/MOSI `O`): the L2 fill was elided — the dirty-sharing
            /// writeback elision.
            wb_elisions,
            /// GETS serviced by the clean forwarder (MESIF `F`) without
            /// touching memory.
            clean_forwards,

            // ---- memory system ----
            /// DRAM block reads.
            dram_reads,
            /// DRAM block writes.
            dram_writes,
            /// L2 recalls (inclusive-victim invalidations of L1 copies).
            l2_recalls,

            // ---- fault injection & recovery (`core::fault`) ----
            // All zero in fault-free runs.
            /// Request resends driven by the L1 retry timeout.
            retries,
            /// Request resends driven by a directory conflict NACK.
            nack_retries,
            /// Stale/duplicate grants dropped by sequence-number suppression.
            stale_replies,
            /// Duplicate requests the directory suppressed without a resend.
            dup_reqs_dropped,
            /// Duplicate requests answered by resending the retained grant.
            grant_resends,
            /// Fills NACKed by the directory (nack_on_conflict policy).
            conflict_nacks,
            /// Tainted fills absorbed into the approximate dataflow.
            corrupt_fills_absorbed,
            /// Tainted fills quarantined and refetched (precise data).
            corrupt_fills_refetched,
            /// Tainted DRAM fills the directory discarded and refetched.
            corrupt_mem_refetches,
            /// Messages the injector dropped.
            faults_dropped,
            /// Messages the injector duplicated.
            faults_duplicated,
            /// Messages the injector delayed.
            faults_delayed,
            /// Messages the injector corrupted.
            faults_corrupted,
            /// Resident-line bits flipped by the SEU injector.
            faults_line_flips,
            /// GI timeout sweeps forced by the storm injector.
            gi_storms,
        }
    };
}
pub(crate) use for_each_stats_counter;

macro_rules! declare_stats {
    ($($(#[$doc:meta])* $f:ident,)*) => {
        /// Raw counters accumulated during a run.
        #[derive(Clone, Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $f: u64,)*

            // ---- figures ----
            /// NoC traffic by message class.
            pub traffic: TrafficStats,
            /// Per-event energy counts.
            pub energy_events: EnergyEvents,
            /// Fig. 2 store value-similarity histogram.
            pub similarity: SimilarityHistogram,

            // ---- observability ----
            /// Per-row transition-table hit counters (`core::proto`). Not
            /// serialized into records: coverage reports which table rows a run
            /// exercised, it is not part of the run's result.
            pub coverage: Coverage,
        }
    };
}
for_each_stats_counter!(declare_stats);

impl Stats {
    /// Fraction (0..=1) of stores that would have missed on a Shared
    /// block but were serviced by `GS` — the paper's Fig. 7a ("store/
    /// scribble hits on GS", §4.1): GS entries plus subsequent GS hits,
    /// over those plus the conventional upgrades.
    pub fn gs_service_fraction(&self) -> f64 {
        let serviced = self.serviced_by_gs + self.gs_hits;
        ratio(
            serviced,
            serviced + self.upgrades_from_s + self.upgrades_from_gs,
        )
    }

    /// Fraction of stores that would have missed on an Invalid
    /// (tag-present) block but were serviced by `GI` — Fig. 7b: GI
    /// entries plus store hits on GI, over those plus conventional
    /// stores on invalid-tagged blocks.
    pub fn gi_service_fraction(&self) -> f64 {
        let serviced = self.serviced_by_gi + self.gi_store_hits;
        ratio(serviced, serviced + self.stores_on_invalid_tagged)
    }

    /// All demand accesses that reached the L1.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_load_hits + self.l1_load_misses + self.l1_store_hits + self.l1_store_misses
    }

    /// Demand misses (coherence transactions started).
    pub fn l1_misses(&self) -> u64 {
        self.l1_load_misses + self.l1_store_misses
    }

    /// Coherence traffic normalized to `baseline`'s (Fig. 8 bar height).
    pub fn normalized_traffic_vs(&self, baseline: &Stats) -> f64 {
        let b = baseline.traffic.total();
        if b == 0 {
            return 1.0;
        }
        self.traffic.total() as f64 / b as f64
    }

    /// Per-class traffic, each class normalized to the *baseline total*,
    /// so the stacked classes sum to [`Stats::normalized_traffic_vs`]
    /// (the Fig. 8 stack).
    pub fn normalized_traffic_by_class_vs(&self, baseline: &Stats) -> Vec<(MessageKind, f64)> {
        let b = baseline.traffic.total().max(1) as f64;
        MessageKind::ALL
            .iter()
            .map(|&k| (k, self.traffic.count(k) as f64 / b))
            .collect()
    }
}

impl Stats {
    /// Folds `other` into `self` (used to combine per-core and global
    /// statistics into the run total).
    pub fn merge_from(&mut self, other: &Stats) {
        macro_rules! add {
            ($($(#[$doc:meta])* $f:ident,)*) => { $( self.$f += other.$f; )* };
        }
        for_each_stats_counter!(add);
        self.traffic.merge(&other.traffic);
        self.energy_events.merge(&other.energy_events);
        self.similarity.merge(&other.similarity);
        self.coverage.merge(&other.coverage);
    }
}

/// Per-core activity summary (derived from each core's L1 statistics).
#[derive(Clone, Debug, Default)]
pub struct CoreSummary {
    /// Instructions issued by the core (loads + stores + scribbles).
    pub ops: u64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// L1 demand misses (coherence transactions).
    pub l1_misses: u64,
    /// Stores serviced by the approximate states (entries + hits).
    pub approx_serviced: u64,
    /// Cycle at which the core's thread finished.
    pub finish_cycle: u64,
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The report produced by [`crate::machine::Machine::run`].
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total simulated cycles (latest core finish time).
    pub cycles: u64,
    /// Per-core finish times.
    pub core_finish: Vec<u64>,
    /// Raw counters (whole machine).
    pub stats: Stats,
    /// Per-core activity summaries (loads/stores/hits/misses per core).
    pub per_core: Vec<CoreSummary>,
    /// Energy model evaluated over the run's events.
    pub energy: EnergyBreakdown,
}

impl SimReport {
    /// Builds a report, evaluating `model` over the collected events.
    pub fn new(cycles: u64, core_finish: Vec<u64>, stats: Stats, model: &EnergyModel) -> Self {
        let energy = model.evaluate(&stats.energy_events);
        Self {
            cycles,
            core_finish,
            stats,
            per_core: Vec::new(),
            energy,
        }
    }

    /// Attaches per-core summaries (set by the machine).
    pub fn with_per_core(mut self, per_core: Vec<CoreSummary>) -> Self {
        self.per_core = per_core;
        self
    }

    /// Load-imbalance factor: latest finish time over the mean finish
    /// time (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.core_finish.is_empty() {
            return 1.0;
        }
        let max = *self.core_finish.iter().max().expect("nonempty") as f64;
        let mean = self.core_finish.iter().sum::<u64>() as f64 / self.core_finish.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Speedup of a run of `cycles` over a baseline of `base_cycles`, in
/// percent (the paper's Fig. 10: `(t_base / t_this - 1) × 100`).
pub fn speedup_percent(base_cycles: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    (base_cycles as f64 / cycles as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_from_sums_counters() {
        let mut a = Stats {
            loads: 3,
            serviced_by_gs: 2,
            dram_reads: 1,
            ..Default::default()
        };
        let b = Stats {
            loads: 4,
            serviced_by_gs: 5,
            gi_timeouts: 7,
            ..Default::default()
        };
        a.merge_from(&b);
        assert_eq!(a.loads, 7);
        assert_eq!(a.serviced_by_gs, 7);
        assert_eq!(a.gi_timeouts, 7);
        assert_eq!(a.dram_reads, 1);
    }

    #[test]
    fn imbalance_math() {
        let mut r = report(100, Stats::default());
        r.core_finish = vec![100, 100, 100, 100];
        assert!((r.imbalance() - 1.0).abs() < 1e-12);
        r.core_finish = vec![50, 150];
        assert!((r.imbalance() - 1.5).abs() < 1e-12);
    }

    fn report(cycles: u64, stats: Stats) -> SimReport {
        SimReport::new(cycles, vec![cycles], stats, &EnergyModel::default())
    }

    #[test]
    fn service_fractions() {
        let s = Stats {
            serviced_by_gs: 30,
            upgrades_from_s: 70,
            serviced_by_gi: 5,
            stores_on_invalid_tagged: 15,
            ..Default::default()
        };
        assert!((s.gs_service_fraction() - 0.30).abs() < 1e-12);
        assert!((s.gi_service_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn service_fraction_zero_when_no_events() {
        let s = Stats::default();
        assert_eq!(s.gs_service_fraction(), 0.0);
        assert_eq!(s.gi_service_fraction(), 0.0);
    }

    #[test]
    fn speedup_math() {
        assert!((speedup_percent(2000, 1600) - 25.0).abs() < 1e-9);
        assert!(speedup_percent(2000, 2000).abs() < 1e-9);
    }

    #[test]
    fn normalized_traffic_classes_sum_to_total() {
        use ghostwriter_noc::Mesh;
        let mesh = Mesh::with_paper_timing(2, 2);
        let mut base_stats = Stats::default();
        for _ in 0..10 {
            base_stats.traffic.record(
                &mesh,
                MessageKind::Getx,
                ghostwriter_noc::NodeId(0),
                ghostwriter_noc::NodeId(1),
            );
        }
        let mut gw_stats = Stats::default();
        for _ in 0..6 {
            gw_stats.traffic.record(
                &mesh,
                MessageKind::Getx,
                ghostwriter_noc::NodeId(0),
                ghostwriter_noc::NodeId(1),
            );
        }
        let split = gw_stats.normalized_traffic_by_class_vs(&base_stats);
        let sum: f64 = split.iter().map(|(_, v)| v).sum();
        assert!((sum - gw_stats.normalized_traffic_vs(&base_stats)).abs() < 1e-12);
        assert!((sum - 0.6).abs() < 1e-12);
    }

    #[test]
    fn l1_access_accounting() {
        let s = Stats {
            l1_load_hits: 10,
            l1_load_misses: 2,
            l1_store_hits: 5,
            l1_store_misses: 3,
            ..Default::default()
        };
        assert_eq!(s.l1_accesses(), 20);
        assert_eq!(s.l1_misses(), 5);
    }
}
