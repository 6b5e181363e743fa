//! Telemetry frames: the wire form of a worker's registry.
//!
//! The out-of-process data plane runs one worker process per (stage,
//! instance); each worker records into its own local [`Registry`] and
//! periodically ships a frame to the parent, which stores it into the
//! process-wide registry under a per-worker name prefix. Every frame
//! carries the worker's *cumulative* totals: each counter, each gauge,
//! and each non-empty histogram's bucket counts with its count, sum and
//! max. The parent replaces what it held with the frame's values, as
//! OpenMetrics counters work, rather than adding to it. So:
//!
//! * a lost or unparsable frame costs nothing — the next one carries
//!   everything it did;
//! * the last frame, taken after the worker's last record, makes the
//!   parent's series equal the worker's exactly;
//! * the worker keeps no baseline and the parent no per-worker history.
//!
//! Bucket indices derive from the f64 bit pattern alone (see
//! `metrics::bucket_index`), so they mean the same in every process and
//! summing one metric's buckets over workers is exact.
//!
//! Sampled journey events ride along in the same frame: the ones
//! drained from the worker's ring since the previous frame, already
//! re-based by the producer to the plan's shared `CLOCK_REALTIME` epoch
//! so cross-process journeys stitch without clock negotiation.
//!
//! The JSON form is tagged [`schema::TELEMETRY`];
//! [`TelemetryFrame::collect`] builds a frame on the worker side and
//! [`TelemetryFrame::store`] writes one into the parent's registry.

use crate::journey::JourneyEvent;
use crate::json::Value;
use crate::metrics::{Recorder, Registry, BUCKETS};
use crate::schema;

/// One histogram's cumulative cells.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramCells {
    /// Metric name in the worker's registry (unprefixed).
    pub name: String,
    /// Sparse `(bucket_index, count)` pairs over the non-empty buckets,
    /// in increasing index order.
    pub buckets: Vec<(u32, u64)>,
    /// Observations so far.
    pub count: u64,
    /// Sum of the observations so far.
    pub sum: f64,
    /// Largest observation so far.
    pub max: f64,
}

/// One worker's cumulative totals at one tick.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TelemetryFrame {
    /// The worker's OS process id.
    pub pid: u32,
    /// Frame sequence number (1, 2, 3, ... within one worker run).
    pub seq: u64,
    /// Every counter's value.
    pub counters: Vec<(String, u64)>,
    /// Every gauge's value.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram with at least one observation.
    pub histograms: Vec<HistogramCells>,
    /// Journey events drained from the worker's ring since the previous
    /// frame, timestamps already on the shared epoch.
    pub journeys: Vec<JourneyEvent>,
}

impl TelemetryFrame {
    /// Read `registry`'s totals into frame `seq` of worker `pid`.
    /// Histograms with no observation yet are left out: a histogram
    /// first appears downstream with its first observation.
    pub fn collect(registry: &Registry, pid: u32, seq: u64) -> Self {
        let snap = registry.snapshot();
        let histograms = registry
            .histogram_cells()
            .into_iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| HistogramCells {
                name,
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
            })
            .collect();
        Self {
            pid,
            seq,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms,
            journeys: Vec::new(),
        }
    }

    /// Parent side: write this frame into `rec` with every metric name
    /// prefixed by `prefix` (e.g. `exec.worker.s0i1.p4242.`). Each
    /// series takes the frame's value, replacing what an earlier frame
    /// stored. Journey events are NOT stored here — they carry stitching
    /// semantics, so the caller routes them to its journey collector.
    ///
    /// [`collect`](Self::collect) reads counters before histograms and
    /// this writes them the other way round, so a reader of `rec` that
    /// sees a frame's `items` sees histograms at least as new: every
    /// item it counts has its `service_s` observation counted too.
    pub fn store(&self, rec: &Recorder, prefix: &str) {
        for h in &self.histograms {
            rec.histogram(&format!("{prefix}{}", h.name))
                .store_cells(&h.buckets, h.count, h.sum, h.max);
        }
        for (name, value) in &self.gauges {
            rec.gauge_set(&format!("{prefix}{name}"), *value);
        }
        for (name, value) in &self.counters {
            rec.counter_set(&format!("{prefix}{name}"), *value);
        }
    }

    /// Compact single-line JSON (the TELEMETRY frame payload).
    pub fn to_json(&self) -> String {
        let mut o = Value::object();
        o.set("schema", schema::TELEMETRY);
        o.set("pid", self.pid as u64);
        o.set("seq", self.seq);
        let mut counters = Value::object();
        for (k, v) in &self.counters {
            counters.set(k.clone(), *v);
        }
        o.set("counters", counters);
        let mut gauges = Value::object();
        for (k, v) in &self.gauges {
            gauges.set(k.clone(), *v);
        }
        o.set("gauges", gauges);
        let hists: Vec<Value> = self
            .histograms
            .iter()
            .map(|h| {
                let mut ho = Value::object();
                ho.set("name", h.name.clone());
                ho.set("count", h.count);
                ho.set("sum", h.sum);
                ho.set("max", h.max);
                let buckets: Vec<Value> = h
                    .buckets
                    .iter()
                    .map(|&(idx, c)| Value::Array(vec![(idx as u64).into(), c.into()]))
                    .collect();
                ho.set("buckets", Value::Array(buckets));
                ho
            })
            .collect();
        o.set("histograms", Value::Array(hists));
        let journeys: Vec<Value> = self.journeys.iter().map(|e| e.to_value()).collect();
        o.set("journeys", Value::Array(journeys));
        o.to_json()
    }

    /// Decode a frame payload produced by [`to_json`](Self::to_json).
    /// Rejects, never panics on, anything else: bytes that are not
    /// UTF-8 or JSON, an unknown schema tag (a `v1` frame carried
    /// deltas, not totals), a missing field, and bucket indices out of
    /// range or out of order.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("telemetry frame: {e}"))?;
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let tag = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("telemetry frame missing 'schema'")?;
        if tag != schema::TELEMETRY {
            return Err(format!(
                "unsupported telemetry schema '{tag}' (expected '{}')",
                schema::TELEMETRY
            ));
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("telemetry frame missing numeric '{key}'"))
        };
        let mut counters = Vec::new();
        if let Some(pairs) = v.get("counters").and_then(Value::as_object) {
            for (k, c) in pairs {
                let c = c
                    .as_f64()
                    .ok_or_else(|| format!("non-numeric counter '{k}'"))?;
                counters.push((k.clone(), c as u64));
            }
        }
        let mut gauges = Vec::new();
        if let Some(pairs) = v.get("gauges").and_then(Value::as_object) {
            for (k, g) in pairs {
                // Non-finite gauges serialise as JSON null; skip them.
                if let Some(g) = g.as_f64() {
                    gauges.push((k.clone(), g));
                }
            }
        }
        let mut histograms = Vec::new();
        for h in v.get("histograms").and_then(Value::as_array).unwrap_or(&[]) {
            let name = h
                .get("name")
                .and_then(Value::as_str)
                .ok_or("histogram missing 'name'")?
                .to_string();
            let field = |key: &str| {
                h.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("histogram '{name}' missing '{key}'"))
            };
            let mut buckets: Vec<(u32, u64)> = Vec::new();
            for pair in h.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
                let (idx, c) = match pair.as_array() {
                    Some([idx, c]) => (idx.as_f64(), c.as_f64()),
                    _ => (None, None),
                };
                let idx = idx
                    .filter(|&i| i >= 0.0 && i < BUCKETS as f64)
                    .map(|i| i as u32)
                    .filter(|&i| buckets.last().is_none_or(|&(prev, _)| prev < i))
                    .ok_or_else(|| format!("histogram '{name}': bad bucket index"))?;
                let c = c.ok_or_else(|| format!("histogram '{name}': bad bucket count"))?;
                buckets.push((idx, c as u64));
            }
            histograms.push(HistogramCells {
                count: field("count")? as u64,
                sum: field("sum")?,
                max: field("max")?,
                name,
                buckets,
            });
        }
        let mut journeys = Vec::new();
        for e in v.get("journeys").and_then(Value::as_array).unwrap_or(&[]) {
            journeys.push(JourneyEvent::from_value(e)?);
        }
        Ok(Self {
            pid: num("pid")? as u32,
            seq: num("seq")? as u64,
            counters,
            gauges,
            histograms,
            journeys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::JourneyKind;

    fn sample_frame() -> TelemetryFrame {
        TelemetryFrame {
            pid: 4242,
            seq: 3,
            counters: vec![("items".into(), 17), ("exec.batch.messages".into(), 2)],
            gauges: vec![("cpu_pct".into(), 42.5), ("rss_bytes".into(), 1.5e7)],
            histograms: vec![HistogramCells {
                name: "service_s".into(),
                buckets: vec![(500, 3), (501, 1)],
                count: 4,
                sum: 0.012,
                max: 0.004,
            }],
            journeys: vec![JourneyEvent {
                seq: 9,
                stage: 1,
                instance: 0,
                kind: JourneyKind::ServiceEnd,
                t_us: 1234.5,
                batch: 7,
            }],
        }
    }

    #[test]
    fn frame_json_round_trips() {
        let frame = sample_frame();
        let back = TelemetryFrame::decode(frame.to_json().as_bytes()).expect("decodes");
        assert_eq!(back, frame);
    }

    #[test]
    fn decode_rejects_wrong_schema() {
        for tag in ["pipemap-telemetry/v9", "pipemap-telemetry/v1"] {
            let text = format!(r#"{{"schema":"{tag}","pid":1,"seq":1}}"#);
            let err = TelemetryFrame::decode(text.as_bytes()).unwrap_err();
            assert!(err.contains("unsupported"), "{tag}: {err}");
        }
        assert!(TelemetryFrame::decode(br#"{"pid":1,"seq":1}"#).is_err());
        assert!(TelemetryFrame::decode(b"not json").is_err());
    }
}
