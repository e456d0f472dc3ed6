//! The cached result of one run, and derived-quantity views.
//!
//! A [`RunRecord`] holds everything a renderer may need — simulated
//! cycles, output error, the full [`Stats`] block (every counter: see
//! `ghostwriter_core::stats_io`), optional message-trace lines (scenario
//! runs) and named scalar extras (the fuzzer, the campaign's
//! `completed` flag) — and nothing non-deterministic: wall-clock time
//! lives in the sweep log, not here, so a record's canonical JSON is a
//! pure function of its run spec and can be diffed, checksummed and
//! content-addressed. A record that lacks a counter (one written before
//! the counter existed) fails the strict reader, so the cache re-runs it.

use ghostwriter_core::{speedup_percent, Json, JsonError, Stats};
use ghostwriter_energy::{EnergyBreakdown, EnergyModel};
use ghostwriter_noc::MessageKind;

use crate::fingerprint::Fingerprint;

/// Record-schema version inside the cache file (independent of
/// [`crate::spec::SPEC_REVISION`], which versions run *semantics*).
pub const RECORD_SCHEMA: u64 = 1;

/// One run's deterministic results.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Output error vs the precise reference, percent (0 for baseline,
    /// scenario and fuzz runs).
    pub error_percent: f64,
    /// Full simulator statistics.
    pub stats: Stats,
    /// Message-trace lines (scenario runs only).
    pub trace: Vec<String>,
    /// Named scalar extras (e.g. the fuzzer's message count).
    pub extra: Vec<(String, f64)>,
}

impl RunRecord {
    /// Canonical JSON form (the cached payload).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("schema", Json::U64(RECORD_SCHEMA));
        obj.push("cycles", Json::U64(self.cycles));
        obj.push("error_percent", Json::F64(self.error_percent));
        obj.push("stats", self.stats.to_json());
        obj.push(
            "trace",
            Json::Arr(self.trace.iter().map(|l| Json::Str(l.clone())).collect()),
        );
        let mut extra = Json::obj();
        for (k, v) in &self.extra {
            extra.push(k, Json::F64(*v));
        }
        obj.push("extra", extra);
        obj
    }

    /// Strict inverse of [`RunRecord::to_json`].
    pub fn from_json(doc: &Json) -> Result<RunRecord, JsonError> {
        let schema = doc.field("schema")?.as_u64()?;
        if schema != RECORD_SCHEMA {
            return Err(JsonError {
                pos: 0,
                msg: format!("record schema {schema}, expected {RECORD_SCHEMA}"),
            });
        }
        let trace = doc
            .field("trace")?
            .as_arr()?
            .iter()
            .map(|l| l.as_str().map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let extra = match doc.field("extra")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                .collect::<Result<Vec<_>, _>>()?,
            other => {
                return Err(JsonError {
                    pos: 0,
                    msg: format!("extra must be an object, got {other:?}"),
                })
            }
        };
        Ok(RunRecord {
            cycles: doc.field("cycles")?.as_u64()?,
            error_percent: doc.field("error_percent")?.as_f64()?,
            stats: Stats::from_json(doc.field("stats")?)?,
            trace,
            extra,
        })
    }

    /// Canonical serialized form (what the cache stores and checksums).
    pub fn canonical_text(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Content fingerprint of the record itself (golden-stats identity:
    /// two runs agree iff their record fingerprints agree).
    pub fn result_fingerprint(&self) -> Fingerprint {
        Fingerprint::of(self.canonical_text().as_bytes())
    }

    /// Energy model evaluated over this record's events (recomputed at
    /// render time; the model is deterministic, so caching it would be
    /// redundant state).
    pub fn energy(&self) -> EnergyBreakdown {
        EnergyModel::default().evaluate(&self.stats.energy_events)
    }

    /// Named extra lookup.
    pub fn extra_value(&self, key: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

impl crate::cache::CacheRecord for RunRecord {
    fn to_json(&self) -> Json {
        RunRecord::to_json(self)
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        RunRecord::from_json(doc).map_err(|e| e.to_string())
    }

    fn canonical_text(&self) -> String {
        RunRecord::canonical_text(self)
    }
}

/// One combined fingerprint over an ordered record set (the whole-sweep
/// identity the determinism suite compares across `--jobs` settings).
pub fn records_fingerprint(records: &[RunRecord]) -> Fingerprint {
    let texts: Vec<String> = records.iter().map(|r| r.canonical_text()).collect();
    Fingerprint::of_parts(texts.iter().map(|s| s.as_str()))
}

/// A baseline/Ghostwriter record pair with the paper's derived
/// quantities. Each one applies the formula defined once in
/// `ghostwriter_core` (or, for Fig. 9, `ghostwriter_energy`) to the
/// cached records.
pub struct PairView<'a> {
    pub base: &'a RunRecord,
    pub gw: &'a RunRecord,
}

impl PairView<'_> {
    /// Fig. 7a: % of would-be S misses serviced by GS.
    pub fn gs_serviced_percent(&self) -> f64 {
        self.gw.stats.gs_service_fraction() * 100.0
    }

    /// Fig. 7b: % of would-be I misses serviced by GI.
    pub fn gi_serviced_percent(&self) -> f64 {
        self.gw.stats.gi_service_fraction() * 100.0
    }

    /// Fig. 8: traffic normalized to the baseline total.
    pub fn normalized_traffic(&self) -> f64 {
        self.gw.stats.normalized_traffic_vs(&self.base.stats)
    }

    /// Fig. 8 stack: per-class traffic normalized to the baseline total.
    pub fn normalized_traffic_by_class(&self) -> Vec<(MessageKind, f64)> {
        self.gw
            .stats
            .normalized_traffic_by_class_vs(&self.base.stats)
    }

    /// Fig. 9: % dynamic energy saved vs the baseline.
    pub fn energy_saved_percent(&self) -> f64 {
        self.gw.energy().percent_saved_vs(&self.base.energy())
    }

    /// Fig. 10: % speedup over the baseline.
    pub fn speedup_percent(&self) -> f64 {
        speedup_percent(self.base.cycles, self.gw.cycles)
    }

    /// Fig. 11: the Ghostwriter run's output error, percent.
    pub fn output_error_percent(&self) -> f64 {
        self.gw.error_percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip_with_trace_and_extras() {
        let mut r = RunRecord {
            cycles: u64::MAX,
            error_percent: 0.125,
            ..Default::default()
        };
        r.stats.loads = 7;
        r.trace = vec!["cycle 1 GETS".into(), "line \"quoted\"".into()];
        r.extra = vec![("messages".into(), 123.0)];
        let text = r.canonical_text();
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.canonical_text(), text);
        assert_eq!(back.result_fingerprint(), r.result_fingerprint());
        assert_eq!(back.extra_value("messages"), Some(123.0));
        assert_eq!(back.trace.len(), 2);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut doc = RunRecord::default().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::U64(99);
        }
        assert!(RunRecord::from_json(&doc).is_err());
    }

    #[test]
    fn pair_view_matches_stats_math() {
        let mut base = RunRecord {
            cycles: 2000,
            ..Default::default()
        };
        base.stats.energy_events.l1_reads = 100;
        let mut gw = RunRecord {
            cycles: 1600,
            ..Default::default()
        };
        gw.stats.energy_events.l1_reads = 50;
        let pair = PairView {
            base: &base,
            gw: &gw,
        };
        assert!((pair.speedup_percent() - 25.0).abs() < 1e-9);
        assert!(pair.energy_saved_percent() > 0.0);
        assert_eq!(pair.normalized_traffic(), 1.0);
    }

    #[test]
    fn records_fingerprint_is_order_sensitive() {
        let a = RunRecord {
            cycles: 1,
            ..Default::default()
        };
        let b = RunRecord {
            cycles: 2,
            ..Default::default()
        };
        assert_ne!(
            records_fingerprint(&[a.clone(), b.clone()]),
            records_fingerprint(&[b, a])
        );
    }
}
