//! The persisted unit of the campaign service: one completed campaign —
//! its spec, its full [`CoverageReport`], its [`RedundancyStats`] —
//! serialized losslessly through the `eraser-netlist` JSON layer.
//!
//! Serialization is *bit-faithful* for everything the acceptance
//! invariants care about: detections round-trip as
//! `[fault, step, output]` triples and every stats counter by name, so a
//! record read back from a [`ResultStore`](crate::ResultStore) compares
//! equal (`CoverageReport` and the counter fields of `RedundancyStats`)
//! to the in-memory result of the `run_campaign` call that produced it.
//! Durations are stored as integer nanoseconds.

use eraser_core::{CampaignSpec, RedundancyStats};
use eraser_fault::{CoverageReport, Detection, FaultId};
use eraser_ir::SignalId;
use eraser_netlist::json::{self, JsonValue};
use std::time::Duration;

/// Counters added to [`RedundancyStats`] after records were first
/// journaled. A record writes one only when it is non-zero and reads a
/// missing one as 0, so a journal written before it existed replays and
/// re-encodes to the same bytes.
const LATER_COUNTERS: [&str; 1] = ["good_run_steps"];

/// One completed campaign, as persisted by a result store.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRecord {
    /// The service-assigned campaign id (`"c1"`, `"c2"`, ...).
    pub id: String,
    /// The spec the campaign ran under, as submitted. It determines the
    /// campaign's config by itself ([`CampaignSpec::resolve`] is pure), so
    /// the record says everything the run depended on.
    pub spec: CampaignSpec,
    /// The resolved design name (benchmark table name, fixture module
    /// name, or the file's module name).
    pub design_name: String,
    /// Size of the generated fault universe.
    pub num_faults: usize,
    /// Stimulus length in settle steps.
    pub steps: usize,
    /// Good-run settle steps this campaign executed
    /// (`stats.good_run_steps`). The service runs the concurrent engine,
    /// which records no good run, so a new record reads `0` at any
    /// `checkpoint_interval` — as does a repeat answered from the store,
    /// which ran nothing. Records journaled while a checkpointed
    /// concurrent campaign still recorded a good run keep the steps it
    /// replayed, and replay byte-identically.
    pub good_run_steps: u64,
    /// `true` when the service answered this submission with a copy of an
    /// earlier record of the same spec instead of running it (see the
    /// [`service`](crate::service) module docs). Journals from releases
    /// that reused good runs carry `true` on repeats too, and still replay.
    pub cache_hit: bool,
    /// Full per-fault detection records.
    pub coverage: CoverageReport,
    /// Redundancy and timing counters.
    pub stats: RedundancyStats,
}

impl CampaignRecord {
    /// The record as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        let mut detections: Vec<JsonValue> = Vec::new();
        for i in 0..self.coverage.total() {
            if let Some(d) = self.coverage.detection(FaultId(i as u32)) {
                detections.push(JsonValue::Arr(vec![
                    JsonValue::num(i as u64),
                    JsonValue::num(d.step as u64),
                    JsonValue::num(d.output.index() as u64),
                ]));
            }
        }
        let coverage = JsonValue::Obj(vec![
            ("total".into(), JsonValue::num(self.coverage.total() as u64)),
            (
                "detected".into(),
                JsonValue::num(self.coverage.detected() as u64),
            ),
            (
                "percent".into(),
                JsonValue::Num(self.coverage.coverage_percent()),
            ),
            ("detections".into(), JsonValue::Arr(detections)),
        ]);
        let s = &self.stats;
        let stats = JsonValue::Obj(
            s.clone()
                .counters_mut()
                .into_iter()
                .filter(|(k, v)| **v != 0 || !LATER_COUNTERS.contains(k))
                .map(|(k, v)| (k.to_string(), JsonValue::num(*v)))
                .chain([
                    (
                        "time_behavioral_ns".to_string(),
                        JsonValue::num(s.time_behavioral.as_nanos() as u64),
                    ),
                    (
                        "time_total_ns".to_string(),
                        JsonValue::num(s.time_total.as_nanos() as u64),
                    ),
                ])
                .collect(),
        );
        JsonValue::Obj(vec![
            ("id".into(), JsonValue::str(self.id.clone())),
            ("spec".into(), self.spec.to_json_value()),
            ("design".into(), JsonValue::str(self.design_name.clone())),
            ("faults".into(), JsonValue::num(self.num_faults as u64)),
            ("steps".into(), JsonValue::num(self.steps as u64)),
            ("good_run_steps".into(), JsonValue::num(self.good_run_steps)),
            ("cache_hit".into(), JsonValue::Bool(self.cache_hit)),
            ("coverage".into(), coverage),
            ("stats".into(), stats),
        ])
    }

    /// The record as compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(&self.to_json_value())
    }

    /// Parses a record back from its JSON value.
    ///
    /// # Errors
    ///
    /// A message naming the missing or ill-typed key.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let id = want_str(v, "id")?;
        let spec =
            CampaignSpec::from_json_value(v.get("spec").ok_or("missing required key `spec`")?)
                .map_err(|e| e.to_string())?;
        let design_name = want_str(v, "design")?;
        let num_faults = want_u64(v, "faults")? as usize;
        let steps = want_u64(v, "steps")? as usize;
        let good_run_steps = want_u64(v, "good_run_steps")?;
        let cache_hit = v
            .get("cache_hit")
            .and_then(JsonValue::as_bool)
            .ok_or("key `cache_hit`: expected true or false")?;

        let cov = v.get("coverage").ok_or("missing required key `coverage`")?;
        let total = want_u64(cov, "total")? as usize;
        let mut coverage = CoverageReport::new(total);
        for d in cov
            .get("detections")
            .and_then(JsonValue::as_arr)
            .ok_or("key `detections`: expected an array")?
        {
            let triple = d
                .as_arr()
                .ok_or("detection: expected [fault, step, output]")?;
            let [f, s, o] = triple else {
                return Err("detection: expected [fault, step, output]".into());
            };
            let fault = f.as_u64().ok_or("detection fault: expected an integer")? as u32;
            let step = s.as_u64().ok_or("detection step: expected an integer")? as usize;
            let output = o.as_u64().ok_or("detection output: expected an integer")? as u32;
            coverage.record(
                FaultId(fault),
                Detection {
                    step,
                    output: SignalId(output),
                },
            );
        }

        let st = v.get("stats").ok_or("missing required key `stats`")?;
        let mut stats = RedundancyStats {
            time_behavioral: Duration::from_nanos(want_u64(st, "time_behavioral_ns")?),
            time_total: Duration::from_nanos(want_u64(st, "time_total_ns")?),
            ..RedundancyStats::default()
        };
        for (key, slot) in stats.counters_mut() {
            *slot = match st.get(key) {
                None if LATER_COUNTERS.contains(&key) => 0,
                _ => want_u64(st, key)?,
            };
        }

        Ok(CampaignRecord {
            id,
            spec,
            design_name,
            num_faults,
            steps,
            good_run_steps,
            cache_hit,
            coverage,
            stats,
        })
    }

    /// Parses a record from JSON text.
    ///
    /// # Errors
    ///
    /// As [`from_json_value`](Self::from_json_value), plus JSON syntax
    /// errors with line/column.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&v)
    }
}

fn want_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("key `{key}`: expected a string"))
}

fn want_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("key `{key}`: expected a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(id: &str) -> CampaignRecord {
        let mut coverage = CoverageReport::new(5);
        coverage.record(
            FaultId(1),
            Detection {
                step: 7,
                output: SignalId(3),
            },
        );
        coverage.record(
            FaultId(4),
            Detection {
                step: 0,
                output: SignalId(0),
            },
        );
        CampaignRecord {
            id: id.to_string(),
            spec: eraser_core::CampaignSpec::benchmark("APB")
                .seed(9)
                .threads(2),
            design_name: "APB".into(),
            num_faults: 5,
            steps: 40,
            good_run_steps: 40,
            cache_hit: false,
            coverage,
            stats: RedundancyStats {
                good_activations: 11,
                opportunities: 500,
                explicit_skipped: 300,
                implicit_skipped: 100,
                fault_executions: 100,
                skipped_prefix_steps: 17,
                good_run_steps: 40,
                time_behavioral: Duration::from_micros(250),
                time_total: Duration::from_micros(900),
                ..RedundancyStats::default()
            },
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let rec = sample("c1");
        let back = CampaignRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.coverage, rec.coverage);
        assert_eq!(back.stats, rec.stats);
    }

    /// `rec` as JSON text with the stats counter `key` left out.
    fn without(rec: &CampaignRecord, key: &str) -> String {
        let mut v = rec.to_json_value();
        let JsonValue::Obj(fields) = &mut v else {
            unreachable!("a record is an object")
        };
        let (_, stats) = fields.iter_mut().find(|(k, _)| k == "stats").unwrap();
        let JsonValue::Obj(counters) = stats else {
            unreachable!("stats is an object")
        };
        counters.retain(|(k, _)| k != key);
        json::to_string(&v)
    }

    /// A record journaled before `stats.good_run_steps` existed still
    /// parses, the counter read as 0, and a zero counter is not written;
    /// any other missing counter is an error.
    #[test]
    fn a_record_without_the_good_run_counter_parses() {
        let rec = sample("c1");
        assert_eq!(rec.stats.good_run_steps, 40);
        let old = CampaignRecord::from_json(&without(&rec, "good_run_steps")).unwrap();
        let zeroed = CampaignRecord {
            stats: RedundancyStats {
                good_run_steps: 0,
                ..rec.stats.clone()
            },
            ..rec.clone()
        };
        assert_eq!(old, zeroed);
        assert_eq!(zeroed.to_json(), without(&rec, "good_run_steps"));
        let err = CampaignRecord::from_json(&without(&rec, "deltas")).unwrap_err();
        assert!(err.contains("deltas"), "{err}");
    }

    #[test]
    fn rejects_truncated_json() {
        let rec = sample("c1");
        let text = rec.to_json();
        assert!(CampaignRecord::from_json(&text[..text.len() / 2]).is_err());
        assert!(CampaignRecord::from_json("{}").is_err());
    }
}
