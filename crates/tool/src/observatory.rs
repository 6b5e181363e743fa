//! The live cost-model observatory: one decayed service window per
//! stage, published as `/model.json`.
//!
//! An [`Observatory`] ingests stitched journeys from a live
//! [`JourneyCollector`], feeds each hop's service time into its stage's
//! [`Decayed`] window, and publishes the windows as JSON into a
//! [`ModelPublisher`] (served at `/model.json`). It holds no static model
//! and raises no alert: whether the model still holds is the doctor's
//! verdict (`pipemap doctor --attach <addr> --model online`).
//!
//! [`spawn_observatory`] runs the ingest→publish loop on a background
//! thread against a live collector, so `pipemap load --serve` exposes the
//! windows while the run is in flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pipemap_obs::{stitch, JourneyCollector, JourneyEvent, ModelPublisher, Value};
use pipemap_profile::Decayed;

/// Schema identifier stamped into `/model.json`.
pub const MODEL_SCHEMA: &str = pipemap_obs::schema::MODEL;

/// Half-life of each stage's window, in samples.
const HALF_LIFE: f64 = 64.0;

/// Decayed per-stage service windows over a stream of journeys.
pub struct Observatory {
    windows: Vec<Decayed>,
    procs: Vec<usize>,
    publisher: ModelPublisher,
    ingested: u64,
    last_seq: Option<u64>,
}

impl Observatory {
    /// An observatory for `procs.len()` stages; `procs[s]` is stage `s`'s
    /// processor count per instance (the executor's threads per
    /// instance), published as its `p`.
    pub fn new(procs: Vec<usize>, publisher: ModelPublisher) -> Self {
        Self {
            windows: vec![Decayed::new(HALF_LIFE); procs.len()],
            procs,
            publisher,
            ingested: 0,
            last_seq: None,
        }
    }

    /// Ingest a raw (possibly repeated) collector snapshot: drop events
    /// at or below the sequence watermark *before* stitching, so a
    /// polling loop pays for the new tail of the ring, not the whole
    /// accumulated history every round, and each data set is ingested
    /// once. Every new hop's service time feeds its stage's window.
    /// Returns how many journeys were new.
    pub fn ingest_events(&mut self, events: &[JourneyEvent]) -> usize {
        let fresh: Vec<JourneyEvent> = match self.last_seq {
            None => events.to_vec(),
            Some(last) => events.iter().filter(|e| e.seq > last).copied().collect(),
        };
        let journeys = stitch(&fresh);
        for j in &journeys {
            self.last_seq = Some(j.seq);
            for hop in &j.hops {
                let (Some(s0), Some(s1)) = (hop.service_start_us, hop.service_end_us) else {
                    continue;
                };
                if let Some(w) = self.windows.get_mut(hop.stage as usize) {
                    w.push((s1 - s0) / 1e6);
                }
            }
        }
        self.ingested += journeys.len() as u64;
        journeys.len()
    }

    /// Publish the current windows as `/model.json`.
    pub fn publish(&self) {
        self.publisher.publish(self.model_json().to_json());
    }

    /// The current windows as the `/model.json` document. With no static
    /// model there is nothing to drift from: each stage's `drift` is 0,
    /// its `factor` 1 and its `static` model zero.
    pub fn model_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("model_schema", MODEL_SCHEMA);
        doc.set("journeys_ingested", self.ingested);
        let stages: Vec<Value> = self
            .windows
            .iter()
            .zip(&self.procs)
            .enumerate()
            .map(|(i, (w, &p))| {
                let mut st = Value::object();
                st.set("stage", i as u64);
                st.set("samples", w.count());
                if w.count() > 0 {
                    let mean = w.mean();
                    let fitted = w.fitted(0.0);
                    st.set("p", p as u64);
                    st.set("mean_s", mean);
                    st.set("sd_s", w.sd());
                    st.set("drift", 0.0);
                    st.set("factor", 1.0);
                    let fit_rel_err = if mean > 0.0 {
                        (fitted - mean).abs() / mean
                    } else {
                        0.0
                    };
                    st.set("fit_rel_err", fit_rel_err);
                    st.set("confidence", w.confidence());
                    st.set("static", poly_json(0.0));
                    st.set("fitted", poly_json(fitted));
                } else {
                    st.set("static", poly_json(0.0));
                }
                st
            })
            .collect();
        doc.set("stages", Value::Array(stages));
        doc
    }

    /// Total journeys ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }
}

/// A constant cost model `c1` in the `f_exec` coefficient form.
fn poly_json(c1: f64) -> Value {
    let mut o = Value::object();
    o.set("c1", c1);
    o.set("c2", 0.0);
    o.set("c3", 0.0);
    o
}

/// Handle to a background observatory loop; [`stop`](Self::stop) joins
/// it and returns the final [`Observatory`] state.
pub struct ObservatoryHandle {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Observatory>,
}

impl ObservatoryHandle {
    /// Signal the loop and wait for its final ingest and publish.
    pub fn stop(self) -> Observatory {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("observatory thread panicked")
    }
}

/// Run `observatory` against a live collector on a background thread:
/// every `period`, snapshot the collector, ingest new journeys, and
/// publish. A final round runs on stop, so short runs still land in
/// `/model.json`.
pub fn spawn_observatory(
    collector: JourneyCollector,
    mut observatory: Observatory,
    period: Duration,
) -> ObservatoryHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::spawn(move || {
        let mut published = false;
        loop {
            let stopping = stop_flag.load(Ordering::Relaxed);
            let new = observatory.ingest_events(&collector.snapshot());
            // Publishing with nothing new republishes an identical model;
            // skip it (after the first publish) to keep the idle loop
            // off the CPU — on a saturated box this thread competes with
            // the very pipeline it watches.
            if new > 0 || stopping || !published {
                observatory.publish();
                published = true;
            }
            if stopping {
                return observatory;
            }
            // Sleep in small slices so stop() never waits a full period.
            let mut remaining = period;
            while remaining > Duration::ZERO && !stop_flag.load(Ordering::Relaxed) {
                let slice = remaining.min(Duration::from_millis(20));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
        }
    });
    ObservatoryHandle { stop, handle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_obs::{JourneyConfig, JourneyKind};

    /// `n` data sets over `service_s[stage]` seconds each.
    fn synth_events(n: usize, service_s: &[f64]) -> Vec<JourneyEvent> {
        let col = JourneyCollector::new(JourneyConfig::default().with_capacity(64 * n));
        let mut sink = col.sink();
        let mut t = 0.0f64;
        for seq in 0..n {
            sink.record_at(t, JourneyKind::Source, seq, 0, 0, 0);
            for (stage, &s) in service_s.iter().enumerate() {
                sink.record_at(t, JourneyKind::ServiceStart, seq, stage as u32, 0, 0);
                t += s * 1e6;
                sink.record_at(t, JourneyKind::ServiceEnd, seq, stage as u32, 0, 0);
            }
            sink.record_at(t, JourneyKind::Sink, seq, service_s.len() as u32, 0, 0);
        }
        drop(sink);
        col.drain()
    }

    #[test]
    fn ingest_is_incremental_and_publishes_model_json() {
        let publisher = ModelPublisher::default();
        let mut obs = Observatory::new(vec![1, 1], publisher.clone());
        let events = synth_events(50, &[0.01, 0.02]);
        assert_eq!(obs.ingest_events(&events), 50);
        // Re-ingesting the same snapshot is a no-op.
        assert_eq!(obs.ingest_events(&events), 0);
        obs.publish();
        let doc = Value::parse(&publisher.current()).expect("valid model json");
        assert_eq!(
            doc.get("model_schema").and_then(Value::as_str),
            Some(MODEL_SCHEMA)
        );
        let stages = doc.get("stages").and_then(Value::as_array).unwrap();
        assert_eq!(stages.len(), 2);
        let mean = stages[0].get("mean_s").and_then(Value::as_f64).unwrap();
        assert!((mean - 0.01).abs() < 1e-9, "mean {mean}");
    }
}
