//! The metric catalogue and the one-line result the driver reads.
//!
//! `BENCHMARK.json` at the repo root declares the same names, units and
//! directions; a unit test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

pub const WORKLOADS: [&str; 7] = [
    "plan_cold",
    "plan_replan",
    "plan_automap",
    "serve_inproc",
    "serve_uds",
    "serve_observed",
    "serve_fft",
];

/// Bounds are three times the widest spread (interquartile range over
/// median) any workload showed over ten seeds on the shared two-core box
/// the benchmark was written on, capped at the 0.25 the driver allows.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("plan_s", "s", "lower", 0.25),
    e2e("plan_quality", "ratio", "higher", 0.001),
    e2e("pred_accuracy", "frac", "higher", 0.06),
    e2e("throughput_dps", "datasets/s", "higher", 0.25),
    e2e("latency_p50_s", "s", "lower", 0.25),
    e2e("latency_p90_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    // Carried by the result line's own `failed` / `attempted` as well;
    // it cannot be an end-to-end metric because it is 0 on a good run.
    pl(
        "failed_frac",
        "frac",
        "lower",
        "every metric on every workload: a failed run measures nothing",
    ),
    pl(
        "pred_error_frac",
        "frac",
        "lower",
        "pred_accuracy (= 1 - this) on plan_automap and the serve workloads' planning request",
    ),
    pl(
        "threads_available",
        "count",
        "higher",
        "plan_s on plan_cold through core.par_speedup",
    ),
    pl(
        "machine.synthesize_s",
        "s",
        "lower",
        "setup_s on plan_cold, plan_s on plan_automap",
    ),
    pl(
        "machine.feasible_s",
        "s",
        "lower",
        "plan_s on plan_automap (about 95 % of it); nothing on plan_cold",
    ),
    pl(
        "machine.feasible_calls",
        "count",
        "lower",
        "plan_s on plan_automap",
    ),
    pl(
        "machine.feasible_found_frac",
        "frac",
        "higher",
        "plan_quality on plan_automap",
    ),
    pl(
        "chain.table_build_s",
        "s",
        "lower",
        "plan_s on plan_cold (under 1 %), setup_s on plan_replan",
    ),
    pl(
        "chain.eval_s",
        "s",
        "lower",
        "plan_s on plan_cold (under 1 %)",
    ),
    pl("core.greedy_s", "s", "lower", "plan_s on plan_cold"),
    pl("core.dp_assignment_s", "s", "lower", "plan_s on plan_cold"),
    pl(
        "core.dp_mapping_s",
        "s",
        "lower",
        "plan_s on plan_cold; flat on plan_automap (DP is 2 % there)",
    ),
    pl(
        "core.cells_total",
        "count",
        "lower",
        "plan_s on plan_cold; repeats exactly",
    ),
    pl(
        "core.cells_pruned_frac",
        "frac",
        "higher",
        "plan_s on plan_cold",
    ),
    pl("core.cells_per_s", "1/s", "higher", "plan_s on plan_cold"),
    pl("core.par_speedup", "ratio", "higher", "plan_s on plan_cold"),
    pl(
        "core.artifact_build_s",
        "s",
        "lower",
        "setup_s on plan_replan",
    ),
    pl(
        "core.resolve_shortcircuit_s",
        "s",
        "lower",
        "plan_s on plan_replan",
    ),
    pl(
        "core.resolve_suffix_s",
        "s",
        "lower",
        "plan_s on plan_replan",
    ),
    pl(
        "core.resolve_shortcircuit_frac",
        "frac",
        "higher",
        "plan_s on plan_replan",
    ),
    pl(
        "core.resolve_cells",
        "count",
        "lower",
        "plan_s on plan_replan; repeats exactly",
    ),
    pl(
        "core.resolve_over_cold",
        "ratio",
        "lower",
        "plan_s on plan_replan",
    ),
    pl("core.provenance_s", "s", "lower", "setup_s on plan_replan"),
    pl("profile.fit_s", "s", "lower", "plan_s on plan_automap"),
    pl(
        "profile.fit_error_frac",
        "frac",
        "lower",
        "pred_accuracy on plan_automap",
    ),
    pl(
        "sim.simulate_s",
        "s",
        "lower",
        "plan_s on plan_automap (under 0.1 %)",
    ),
    pl(
        "sim.datasets_per_s",
        "1/s",
        "higher",
        "plan_s on plan_automap",
    ),
    pl(
        "tool.automap_self_s",
        "s",
        "lower",
        "plan_s on plan_automap",
    ),
    pl(
        "tool.spec_roundtrip_s",
        "s",
        "lower",
        "plan_s on plan_cold (not in the timed section)",
    ),
    pl(
        "exec.kernel_ns_per_dataset",
        "ns",
        "lower",
        "throughput_dps on serve_fft",
    ),
    pl(
        "exec.kernel_alone_ns",
        "ns",
        "lower",
        "throughput_dps on serve_fft",
    ),
    pl(
        "exec.busy_frac_max",
        "frac",
        "higher",
        "throughput_dps: at least 0.8 on serve_fft, at most 0.5 on serve_inproc / serve_uds",
    ),
    pl(
        "exec.wait_recv_frac",
        "frac",
        "lower",
        "throughput_dps on serve_inproc / serve_uds",
    ),
    pl(
        "exec.wait_send_frac",
        "frac",
        "lower",
        "throughput_dps on serve_inproc / serve_uds",
    ),
    pl(
        "exec.source_wait_frac",
        "frac",
        "lower",
        "throughput_dps on serve_inproc / serve_uds",
    ),
    pl(
        "exec.achieved_over_predicted",
        "ratio",
        "higher",
        "throughput_dps on every serve workload",
    ),
    pl(
        "exec.mean_batch_fill",
        "datasets/msg",
        "higher",
        "throughput_dps on serve_inproc; latency_p50_s on paced phases",
    ),
    pl(
        "exec.messages_per_dataset",
        "msg/dataset",
        "lower",
        "throughput_dps on serve_inproc",
    ),
    pl(
        "exec.pool_hit_rate",
        "frac",
        "higher",
        "throughput_dps and peak_rss_mb on serve_inproc",
    ),
    pl(
        "exec.link_bytes_per_dataset",
        "B",
        "lower",
        "throughput_dps on serve_uds; flat on serve_inproc / serve_fft",
    ),
    pl(
        "exec.link_items_per_frame",
        "datasets/frame",
        "higher",
        "throughput_dps on serve_uds",
    ),
    pl(
        "exec.transport_us_per_msg_64",
        "us",
        "lower",
        "throughput_dps on serve_uds",
    ),
    pl(
        "exec.transport_us_per_msg_4k",
        "us",
        "lower",
        "throughput_dps on serve_uds",
    ),
    pl(
        "exec.transport_naive_us_per_msg_64",
        "us",
        "lower",
        "throughput_dps on serve_uds",
    ),
    pl(
        "exec.spawn_s",
        "s",
        "lower",
        "setup_s on serve_uds / serve_observed",
    ),
    pl(
        "exec.latency_p99_s",
        "s",
        "lower",
        "latency_p90_s on every serve workload (too noisy to gate)",
    ),
    pl(
        "exec.latency_max_s",
        "s",
        "lower",
        "latency_p90_s on every serve workload (too noisy to gate)",
    ),
    pl(
        "exec.cpu_us_per_dataset",
        "us",
        "lower",
        "throughput_dps on every serve workload",
    ),
    pl(
        "exec.orphans",
        "count",
        "lower",
        "failed_frac on serve_uds / serve_observed; must be 0",
    ),
    pl(
        "obs.overhead_frac",
        "frac",
        "lower",
        "throughput_dps on serve_observed; serve_uds is the bypass",
    ),
    pl(
        "obs.journey_events",
        "count",
        "higher",
        "throughput_dps on serve_observed",
    ),
    pl(
        "obs.journey_dropped_frac",
        "frac",
        "lower",
        "throughput_dps on serve_observed",
    ),
    pl(
        "obs.snapshot_render_s",
        "s",
        "lower",
        "throughput_dps on serve_observed",
    ),
    pl(
        "doctor.diagnose_s",
        "s",
        "lower",
        "nothing end to end: runs after serve_observed's passes",
    ),
    pl(
        "doctor.journeys_per_s",
        "1/s",
        "higher",
        "nothing end to end: runs after serve_observed's passes",
    ),
    pl(
        "loadgen.late_p50_s",
        "s",
        "lower",
        "latency_p50_s on paced phases (latency is stamped at push, not at the due time)",
    ),
    pl(
        "loadgen.late_p90_s",
        "s",
        "lower",
        "latency_p90_s on paced phases",
    ),
    pl(
        "loadgen.offered_rate_frac",
        "frac",
        "higher",
        "failed_frac: a paced pass under 0.99 fails whole",
    ),
    pl(
        "loadgen.latency_samples",
        "count",
        "higher",
        "latency_p50_s / latency_p90_s: how many samples each pass's percentiles rest on",
    ),
    pl(
        "loadgen.passes",
        "count",
        "higher",
        "every median: how many timed passes it is taken over",
    ),
    pl(
        "loadgen.trace_overhead_frac",
        "frac",
        "lower",
        "nothing: end-to-end metrics come from untraced passes",
    ),
    pl(
        "loadgen.input_hash",
        "count",
        "higher",
        "nothing: low 32 bits of the hash of the generated inputs, equal for equal seeds",
    ),
    pl(
        "loadgen.checks",
        "count",
        "higher",
        "failed_frac: output checks made against references",
    ),
];

/// The catalogue as text, one metric a line (`--list`).
pub fn catalogue() -> String {
    let mut out = String::from("workloads: ");
    out.push_str(&WORKLOADS.join(" "));
    out.push_str("\n\nend to end (--trace 0), on every workload:\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<16} {:<10} {} is better, may worsen by {} of the parent's median",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("\nper layer (--trace 1), 0 where the layer does not run:\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<36} {:<14} {:<6} -> {}",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Fail the whole run (`failed_frac` = 1).
    pub fn fail_whole(&mut self, why: String) {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
        self.failures.push(why);
    }

    /// After [`fail_whole`](Self::fail_whole): give every end-to-end metric
    /// the run never got to a 0, so the failure can still be printed as a
    /// result line (with `failed` = `attempted`) instead of vanishing.
    pub fn fill_unmeasured(&mut self) {
        for m in &END_TO_END {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The last line of standard output. With `trace` the per-layer metrics
/// (0 where the layer did not run on this workload), otherwise the
/// end-to-end metrics, all of which every workload must have produced.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_obs::Value;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let doc = declared();
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better, "{}", m.name);
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (d, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better, "{}", m.name);
            assert!(!m.moves.is_empty());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (d, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(d, "name"), w);
            assert!(field(d, "why").len() <= 200 && !field(d, "why").is_empty());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count")))
        {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "{n} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        for m in &END_TO_END {
            o.set(m.name, 1.25);
        }
        o.check(true, String::new);
        o.check(false, || "bad".into());
        let line = result_line(&o, false).unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
        assert_eq!(o.failed_frac(), 0.5);

        // A missing end-to-end metric is an error; a missing layer reads 0.
        let empty = Outcome::default();
        assert!(result_line(&empty, false).is_err());
        let traced = Value::parse(&result_line(&empty, true).unwrap()).unwrap();
        assert_eq!(
            traced
                .get("metrics")
                .and_then(Value::as_object)
                .map(|m| m.len()),
            Some(PER_LAYER.len())
        );
        let mut nan = Outcome::default();
        nan.set("failed_frac", f64::NAN);
        assert!(result_line(&nan, true).is_err());
    }
}
