//! JSON serialization for [`Stats`] (the experiment engine's cached
//! record payload).
//!
//! The format is a flat object per sub-structure, written through the
//! canonical [`crate::json`] writer so identical statistics always
//! produce identical bytes. Every `u64` counter of [`Stats`] is written:
//! both directions expand `stats::for_each_stats_counter!`, the one list
//! that also declares the struct. The reader is strict (a missing or
//! mistyped field is an error, not a default), so a record written
//! before a counter existed is rejected — the result cache treats it as
//! a miss and re-runs the cell — rather than silently zero-filled.

use ghostwriter_energy::EnergyEvents;
use ghostwriter_noc::{MessageKind, TrafficStats};

use crate::json::{Json, JsonError};
use crate::scribe::SimilarityHistogram;
use crate::stats::{for_each_stats_counter, Stats};

macro_rules! for_each_energy_event {
    ($m:ident) => {
        $m!(
            l1_reads,
            l1_writes,
            l1_tag_probes,
            l2_reads,
            l2_writes,
            l2_tag_probes,
            dram_reads,
            dram_writes,
            router_flits,
            link_flit_hops
        );
    };
}

impl Stats {
    /// Serializes every counter into a canonical JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        macro_rules! put {
            ($($(#[$doc:meta])* $f:ident,)*) => { $( obj.push(stringify!($f), Json::U64(self.$f)); )* };
        }
        for_each_stats_counter!(put);

        let mut traffic = Json::obj();
        for kind in MessageKind::ALL {
            traffic.push(kind.label(), Json::U64(self.traffic.count(kind)));
        }
        traffic.push("flit_hops", Json::U64(self.traffic.flit_hops()));
        traffic.push("router_flits", Json::U64(self.traffic.router_flits()));
        obj.push("traffic", traffic);

        let mut energy = Json::obj();
        macro_rules! put_energy {
            ($($f:ident),*) => { $( energy.push(stringify!($f), Json::U64(self.energy_events.$f)); )* };
        }
        for_each_energy_event!(put_energy);
        obj.push("energy_events", energy);

        let counts: Vec<Json> = (0..=64u32)
            .map(|d| Json::U64(self.similarity.count_at(d)))
            .collect();
        obj.push("similarity", Json::Arr(counts));
        obj
    }

    /// Strictly reconstructs statistics from [`Stats::to_json`] output.
    pub fn from_json(doc: &Json) -> Result<Stats, JsonError> {
        let mut s = Stats::default();
        macro_rules! take {
            ($($(#[$doc:meta])* $f:ident,)*) => { $( s.$f = doc.field(stringify!($f))?.as_u64()?; )* };
        }
        for_each_stats_counter!(take);

        let traffic = doc.field("traffic")?;
        let mut kind_counts = [0u64; 5];
        for (i, kind) in MessageKind::ALL.iter().enumerate() {
            kind_counts[i] = traffic.field(kind.label())?.as_u64()?;
        }
        s.traffic = TrafficStats::from_raw(
            |kind| {
                let i = MessageKind::ALL
                    .iter()
                    .position(|k| *k == kind)
                    .expect("ALL");
                kind_counts[i]
            },
            traffic.field("flit_hops")?.as_u64()?,
            traffic.field("router_flits")?.as_u64()?,
        );

        let energy = doc.field("energy_events")?;
        let mut ev = EnergyEvents::default();
        macro_rules! take_energy {
            ($($f:ident),*) => { $( ev.$f = energy.field(stringify!($f))?.as_u64()?; )* };
        }
        for_each_energy_event!(take_energy);
        s.energy_events = ev;

        let sim = doc.field("similarity")?.as_arr()?;
        if sim.len() != 65 {
            return Err(JsonError {
                pos: 0,
                msg: format!("similarity histogram needs 65 bins, got {}", sim.len()),
            });
        }
        let mut counts = [0u64; 65];
        for (slot, v) in counts.iter_mut().zip(sim) {
            *slot = v.as_u64()?;
        }
        s.similarity = SimilarityHistogram::from_counts(counts);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostwriter_noc::{Mesh, NodeId};

    fn exercised_stats() -> Stats {
        let mesh = Mesh::with_paper_timing(2, 2);
        let mut s = Stats {
            loads: 0, // edge: zero survives
            stores: u64::MAX,
            scribbles: 3,
            serviced_by_gs: 1 << 60,
            gi_timeouts: 7,
            wb_elisions: 5,
            gi_storms: 11,
            ..Default::default()
        };
        s.energy_events.l1_reads = u64::MAX;
        s.energy_events.link_flit_hops = 12;
        s.traffic
            .record(&mesh, MessageKind::Data, NodeId(0), NodeId(3));
        s.traffic
            .record(&mesh, MessageKind::Getx, NodeId(1), NodeId(2));
        s.similarity.record(10, 10, 32);
        s.similarity.record(0, u64::MAX, 64);
        s
    }

    #[test]
    fn round_trip_preserves_every_counter() {
        let s = exercised_stats();
        let text = s.to_json().to_pretty();
        let back = Stats::from_json(&Json::parse(&text).unwrap()).unwrap();
        // Canonical writer ⇒ byte-identical re-serialization is the
        // strongest whole-struct equality we have (Stats is not PartialEq).
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(back.stores, u64::MAX);
        assert_eq!(back.serviced_by_gs, 1 << 60);
        assert_eq!(back.wb_elisions, 5);
        assert_eq!(back.gi_storms, 11);
        assert_eq!(back.traffic.count(MessageKind::Data), 1);
        assert_eq!(back.traffic.flit_hops(), s.traffic.flit_hops());
        assert_eq!(back.energy_events.l1_reads, u64::MAX);
        assert_eq!(back.similarity.total(), 2);
        assert_eq!(back.similarity.count_at(64), 1);
    }

    #[test]
    fn default_stats_round_trip() {
        let text = Stats::default().to_json().to_pretty();
        let back = Stats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(back.l1_accesses(), 0);
    }

    #[test]
    fn missing_field_is_an_error_not_a_default() {
        let mut doc = exercised_stats().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "gi_timeouts");
        }
        let err = Stats::from_json(&doc).unwrap_err();
        assert!(err.msg.contains("gi_timeouts"), "{err}");
    }

    #[test]
    fn truncated_similarity_is_rejected() {
        let mut doc = exercised_stats().to_json();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "similarity" {
                    *v = Json::Arr(vec![Json::U64(1); 64]);
                }
            }
        }
        assert!(Stats::from_json(&doc).is_err());
    }
}
