//! `pipemap doctor --model online`: the drift verdict priced against a
//! decayed window of each stage's recent service times.
//!
//! The static verdict compares whole-run means with the model, which
//! dilutes a cost change that happened mid-stream. The online verdict
//! keeps one [`Decayed`] window per stage (half-life [`HALF_LIFE`]
//! samples) over every hop with a measured service time — complete
//! journey or not — and localises the stage whose fitted cost is
//! furthest off its static cost. The static cost is the model header's
//! `service_s`; a log without a header (a live scrape) uses each stage's
//! whole-run mean instead, so the residual reads "recent behaviour vs the
//! run as a whole".

use pipemap_obs::{Journey, Value};
use pipemap_profile::Decayed;

use crate::ModelPrediction;

/// Half-life of each stage's window, in samples: short enough for the
/// fit to forget the regime before a mid-stream change.
pub const HALF_LIFE: f64 = 16.0;

/// One stage's fitted-vs-static verdict.
#[derive(Clone, Debug)]
pub struct OnlineStageDrift {
    /// Stage index.
    pub stage: usize,
    /// Stage name from the log's model header (`stage<i>` without one).
    pub name: String,
    /// Static (deployed) per-dataset service seconds.
    pub static_s: f64,
    /// Fitted service seconds from the decayed window.
    pub fitted_s: f64,
    /// `|fitted − static| / static`.
    pub residual: f64,
    /// Fit confidence in `[0, 1]`.
    pub confidence: f64,
    /// Samples behind the fit.
    pub samples: u64,
}

/// The online drift verdict.
#[derive(Clone, Debug)]
pub struct OnlineDrift {
    /// Per-stage verdicts, in pipeline order.
    pub stages: Vec<OnlineStageDrift>,
    /// The threshold a residual must clear to localise drift.
    pub threshold: f64,
    /// Stage with the largest above-threshold residual, if any.
    pub drifted: Option<usize>,
}

/// Per-stage windows and whole-run (sum, count) totals, filled in the
/// doctor's pass over the stitched journeys.
#[derive(Default)]
pub(crate) struct Windows {
    decayed: Vec<Decayed>,
    totals: Vec<(f64, u64)>,
}

impl Windows {
    /// Absorb every hop of `journey` that has a service start and end.
    pub(crate) fn push(&mut self, journey: &Journey) {
        for hop in &journey.hops {
            let (Some(s0), Some(s1)) = (hop.service_start_us, hop.service_end_us) else {
                continue;
            };
            let stage = hop.stage as usize;
            if self.totals.len() <= stage {
                self.decayed.resize(stage + 1, Decayed::new(HALF_LIFE));
                self.totals.resize(stage + 1, (0.0, 0));
            }
            let x = (s1 - s0) / 1e6;
            self.decayed[stage].push(x);
            self.totals[stage].0 += x;
            self.totals[stage].1 += 1;
        }
    }

    /// Price each window against the model header, or against the
    /// whole-run means without one. `None` when there is no header and
    /// no hop carried a service time.
    pub(crate) fn verdict(
        &self,
        model: Option<&ModelPrediction>,
        threshold: f64,
    ) -> Option<OnlineDrift> {
        let statics: Vec<(String, f64)> = match model {
            Some(m) => m
                .stages
                .iter()
                .map(|s| (s.name.clone(), s.service_s))
                .collect(),
            None if self.totals.is_empty() => return None,
            None => self
                .totals
                .iter()
                .enumerate()
                .map(|(i, &(s, c))| {
                    let mean = if c > 0 { s / c as f64 } else { 0.0 };
                    (format!("stage{i}"), mean)
                })
                .collect(),
        };
        let empty = Decayed::new(HALF_LIFE);
        let mut drifted: Option<(usize, f64)> = None;
        let stages = statics
            .into_iter()
            .enumerate()
            .map(|(i, (name, static_s))| {
                let w = self.decayed.get(i).unwrap_or(&empty);
                let fitted_s = w.fitted(static_s);
                let residual = if static_s.is_finite() && static_s > 0.0 {
                    (fitted_s - static_s).abs() / static_s
                } else {
                    0.0
                };
                if residual > threshold && drifted.is_none_or(|(_, r)| residual > r) {
                    drifted = Some((i, residual));
                }
                OnlineStageDrift {
                    stage: i,
                    name,
                    static_s,
                    fitted_s,
                    residual,
                    confidence: w.confidence(),
                    samples: w.count(),
                }
            })
            .collect();
        Some(OnlineDrift {
            stages,
            threshold,
            drifted: drifted.map(|(i, _)| i),
        })
    }
}

/// JSON form of an [`OnlineDrift`] (the `online` key of
/// `pipemap doctor --model online --report json`).
pub fn online_json(d: &OnlineDrift) -> Value {
    let mut doc = Value::object();
    doc.set("threshold", d.threshold);
    if let Some(s) = d.drifted {
        doc.set("drifted_stage", s as u64);
    }
    let stages: Vec<Value> = d
        .stages
        .iter()
        .map(|s| {
            let mut o = Value::object();
            o.set("stage", s.stage as u64);
            o.set("name", s.name.as_str());
            o.set("static_s", s.static_s);
            o.set("fitted_s", s.fitted_s);
            o.set("residual", s.residual);
            o.set("confidence", s.confidence);
            o.set("samples", s.samples);
            o
        })
        .collect();
    doc.set("stages", Value::Array(stages));
    doc
}

/// Human-readable rendering of an [`OnlineDrift`].
pub fn render_online(d: &OnlineDrift) -> String {
    let mut out = String::from("online model (decay-weighted refit from journeys):\n");
    for s in &d.stages {
        out.push_str(&format!(
            "  stage {} ({}): static {:.6}s  fitted {:.6}s  residual {:>5.1}%  confidence {:.2}  ({} samples)\n",
            s.stage,
            s.name,
            s.static_s,
            s.fitted_s,
            s.residual * 100.0,
            s.confidence,
            s.samples
        ));
    }
    match d.drifted {
        Some(i) => out.push_str(&format!(
            "  drift localised: stage {i} ({}) is {:.1}% off its static model (> {:.0}% threshold) — re-solve the mapping\n",
            d.stages[i].name,
            d.stages[i].residual * 100.0,
            d.threshold * 100.0
        )),
        None => out.push_str(&format!(
            "  no stage exceeds the {:.0}% residual threshold — static model still holds\n",
            d.threshold * 100.0
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::synth;
    use crate::{diagnose_log, DoctorOptions, JourneyLog};
    use pipemap_obs::{JourneyEvent, JourneyKind};

    /// `n` data sets of `service_us[stage]` µs of service each, stage
    /// `k`'s cost multiplied by `factor` from data set `after` onward.
    fn perturbed(
        n: usize,
        service_us: &[f64],
        after: usize,
        k: usize,
        factor: f64,
    ) -> Vec<JourneyEvent> {
        let stages = |g: f64| -> Vec<(f64, f64, f64, f64)> {
            let at = |s: usize, sv: f64| if s == k { sv * g } else { sv };
            service_us
                .iter()
                .enumerate()
                .map(|(s, &sv)| (0.0, 0.0, at(s, sv), 0.0))
                .collect()
        };
        let mut events = synth(after, &stages(1.0), 1e6);
        let late = synth(n - after, &stages(factor), 1e6);
        events.extend(late.into_iter().map(|e| JourneyEvent {
            seq: e.seq + after as u64,
            t_us: e.t_us + after as f64 * 1e6,
            ..e
        }));
        events
    }

    fn online(log: &JourneyLog) -> Option<OnlineDrift> {
        diagnose_log(log, None, &DoctorOptions::default()).online
    }

    #[test]
    fn online_drift_without_model_header_uses_whole_run_baseline() {
        // No model snapshot (the live-scrape case): the whole-run mean is
        // the baseline, so a stage that triples mid-run still localises.
        let log = JourneyLog {
            source: "live".to_string(),
            sample: 1,
            dropped: 0,
            model: None,
            events: perturbed(120, &[10e3, 20e3], 60, 1, 3.0),
        };
        let drift = online(&log).expect("journeys present");
        assert_eq!(drift.drifted, Some(1), "{drift:?}");
        assert_eq!(drift.stages[1].name, "stage1");
        assert!((drift.stages[1].static_s - 0.040).abs() < 1e-9);
        // A log with no service events at all yields None.
        let empty = JourneyLog {
            events: Vec::new(),
            ..log
        };
        assert!(online(&empty).is_none());
    }

    #[test]
    fn online_drift_localises_a_perturbed_stage() {
        // Static model says [10ms, 20ms, 5ms]; stage 1 triples mid-run.
        let events = perturbed(120, &[10e3, 20e3, 5e3], 60, 1, 3.0);
        let log = JourneyLog {
            source: "test".to_string(),
            sample: 1,
            dropped: 0,
            model: Some(ModelPrediction::from_measured(
                &["a".into(), "b".into(), "c".into()],
                &[1, 1, 1],
                &[0.010, 0.020, 0.005],
            )),
            events,
        };
        let drift = online(&log).expect("model present");
        assert_eq!(drift.drifted, Some(1), "{drift:?}");
        // The decayed fit tracks the *perturbed* cost within 10%.
        let fitted = drift.stages[1].fitted_s;
        assert!(
            (fitted - 0.060).abs() / 0.060 < 0.10,
            "fitted {fitted} vs perturbed truth 0.060"
        );
        // Unperturbed stages stay close to their statics.
        assert!(drift.stages[0].residual < 0.05);
        assert!(drift.stages[2].residual < 0.05);
        let text = render_online(&drift);
        assert!(text.contains("drift localised: stage 1"), "{text}");
        let json = online_json(&drift);
        assert_eq!(json.get("drifted_stage").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn windows_count_hops_of_incomplete_journeys() {
        // Drop stage 1's service end from every other data set: those
        // journeys never complete, yet their stage-0 hops still count,
        // and stage 1's window keeps only the measured hops.
        let events: Vec<JourneyEvent> = perturbed(40, &[10e3, 20e3], 40, 0, 1.0)
            .into_iter()
            .filter(|e| !(e.seq % 2 == 1 && e.stage == 1 && e.kind == JourneyKind::ServiceEnd))
            .collect();
        let log = JourneyLog {
            source: "test".to_string(),
            sample: 1,
            dropped: 0,
            model: Some(ModelPrediction::from_measured(
                &["a".into(), "b".into()],
                &[1, 1],
                &[0.010, 0.020],
            )),
            events,
        };
        let report = diagnose_log(&log, None, &DoctorOptions::default());
        assert_eq!(report.complete, 20);
        let drift = report.online.expect("model present");
        assert_eq!(drift.stages[0].samples, 40);
        assert_eq!(drift.stages[1].samples, 20);
        assert_eq!(drift.drifted, None, "{drift:?}");
        assert!(render_online(&drift).contains("static model still holds"));
    }
}
