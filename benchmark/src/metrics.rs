//! The benchmark's metric tables and its one-line result format.
//!
//! `BENCHMARK.json` at the repository root declares the same names,
//! units, directions and bounds; a unit test keeps the two in step.

use ghostwriter_core::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// True when `x` is strictly better than `y`.
    pub fn is_better(self, x: f64, y: f64) -> bool {
        match self {
            Better::Lower => x < y,
            Better::Higher => x > y,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (unused for
    /// per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, measured with tracing off, reported for every
/// workload.
pub const END_TO_END: [MetricDef; 3] = [
    // Sum over the repetition's parts of each part's fastest time.
    e2e("wall_s", "s", 0.25),
    // Median time to build what one repetition consumes.
    e2e("setup_s", "s", 0.25),
    // Peak resident set over the workload's set-up and repetitions.
    e2e("peak_rss_mb", "MB", 0.10),
];

use Better::{Higher, Lower};

/// Per-layer metrics, produced by the traced run.
pub const PER_LAYER: [MetricDef; 36] = [
    layer("sim.queue.mops", "Mops/s", Higher),
    layer("sim.queue_churn.share", "ratio", Lower),
    layer("sim.host_ns_per_cycle", "ns", Lower),
    layer("workloads.core_step.share", "ratio", Lower),
    layer("workloads.core_step.ns_per_event", "ns", Lower),
    layer("mem.probe_hit.mops", "Mops/s", Higher),
    layer("mem.plru.mops", "Mops/s", Higher),
    layer("mem.fill_evict.mops", "Mops/s", Higher),
    layer("mem.dram.share", "ratio", Lower),
    layer("noc.route.mops", "Mops/s", Higher),
    layer("noc.routing.share", "ratio", Lower),
    layer("noc.routing.ns_per_msg", "ns", Lower),
    layer("noc.msgs_per_op", "msgs/op", Lower),
    layer("core.l1.dispatch.share", "ratio", Lower),
    layer("core.l1.dispatch.ns_per_event", "ns", Lower),
    layer("core.l1.hit_ratio", "ratio", Higher),
    layer("core.dir.dispatch.share", "ratio", Lower),
    layer("core.dir.dispatch.ns_per_event", "ns", Lower),
    layer("core.harness.step.mops", "Mops/s", Higher),
    layer("core.harness.fingerprint.mops", "Mops/s", Higher),
    layer("core.harness.invariants.mops", "Mops/s", Higher),
    layer("core.fault.retries_per_cell", "count", Lower),
    layer("core.fault.aborted_cells", "count", Lower),
    layer("core.fault.unattributed_share", "ratio", Lower),
    layer("check.states_per_s", "1/s", Higher),
    layer("check.transitions_per_s", "1/s", Higher),
    layer("check.states", "count", Lower),
    layer("check.visited_insert.mops", "Mops/s", Higher),
    layer("exp.cell_ms.p50", "ms", Lower),
    layer("exp.cell_ms.p90", "ms", Lower),
    layer("exp.fuzz.share", "ratio", Lower),
    layer("exp.overhead_ms", "ms", Lower),
    layer("exp.warm_ms", "ms", Lower),
    layer("exp.cache_load.kops", "kops/s", Higher),
    layer("exp.spec_fingerprint.kops", "kops/s", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a declared metric up by name (end-to-end first).
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// A measured metric value.
pub type Measured = (&'static str, f64);

/// The JSON object of `{"name": {"value": v, "unit": u}}` for `values`,
/// in declaration order of `defs`. Panics if a declared metric is
/// missing: every run reports its whole table.
pub fn metrics_json(defs: &[MetricDef], values: &[Measured]) -> Json {
    let mut obj = Json::obj();
    for def in defs {
        let value = values
            .iter()
            .find(|(n, _)| *n == def.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
            .1;
        let mut m = Json::obj();
        m.push("value", Json::F64(value));
        m.push("unit", Json::Str(def.unit.into()));
        obj.push(def.name, m);
    }
    obj
}

/// The single-line result every run prints last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    let mut line = Json::obj();
    line.push("correct", Json::Bool(correct));
    line.push("attempted", Json::U64(attempted));
    line.push("failed", Json::U64(failed));
    line.push("metrics", metrics);
    line.to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository-root `BENCHMARK.json` must declare exactly the
    /// tables above, and the workloads `workloads::Workload::ALL` runs.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.field("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names("workloads"), workloads);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.field(key).unwrap().as_arr().unwrap();
            assert_eq!(declared.len(), defs.len(), "{key} count");
            for (m, def) in declared.iter().zip(defs) {
                assert_eq!(m.field("name").unwrap().as_str().unwrap(), def.name);
                assert_eq!(m.field("unit").unwrap().as_str().unwrap(), def.unit);
                assert_eq!(
                    m.field("better").unwrap().as_str().unwrap(),
                    def.better.label(),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(m.field("bound").unwrap().as_f64().unwrap(), def.bound);
                }
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = metrics_json(
            &END_TO_END,
            &[("wall_s", 1.5), ("setup_s", 0.25), ("peak_rss_mb", 12.0)],
        );
        let line = result_line(true, 3, 0, metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc.field("metrics").unwrap().field("wall_s").unwrap();
        assert_eq!(wall.field("value").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(wall.field("unit").unwrap().as_str().unwrap(), "s");
    }
}
