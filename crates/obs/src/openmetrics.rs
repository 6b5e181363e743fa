//! OpenMetrics / Prometheus text exposition of a [`Registry`].
//!
//! [`render_openmetrics`] turns the live registry into the text format
//! Prometheus scrapes: one `counter` family per counter (`_total`
//! sample), one `gauge` family per gauge, and for every histogram both a
//! `histogram` family (cumulative `_bucket{le=...}` series over the
//! non-empty log buckets, plus `_sum`/`_count`) and a companion
//! `summary` family `<name>_q` carrying the p50/p95/p99 estimates. The
//! document ends with the `# EOF` terminator OpenMetrics requires.
//!
//! Per-worker series (`exec.worker.s<stage>i<inst>.p<pid>.<metric>`) fold
//! the worker's identity into `stage`/`instance`/`pid` labels of one
//! `pipemap_exec_worker_<metric>` family, and per-link transport counters
//! fold theirs into a `link` label.
//!
//! Metric names are sanitised to `[a-zA-Z0-9_:]` (the registry's dotted
//! names become underscored) and prefixed with `pipemap_`.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::metrics::Registry;

/// Sanitise a registry metric name into an exposition metric name.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 8);
    out.push_str("pipemap_");
    // The "pipemap_" prefix guarantees a valid first character, so
    // digits are acceptable anywhere in the remainder.
    for c in raw.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Escape a label *value* for the exposition format: inside the double
/// quotes, backslash, double quote, and newline must be escaped as
/// `\\`, `\"`, and `\n` respectively (anything else passes through).
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    push_escaped(&mut out, raw);
    out
}

fn push_escaped(out: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Append one sample line, `name{k1="v1",k2="v2"} value`, to `out`, with
/// every label value escaped as [`escape_label_value`] does.
fn labelled_sample<'a>(
    out: &mut String,
    name: &str,
    labels: impl IntoIterator<Item = (&'a str, &'a str)>,
    value: impl std::fmt::Display,
) {
    out.push_str(name);
    let mut open = false;
    for (k, v) in labels {
        out.push(if open { ',' } else { '{' });
        open = true;
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if open {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Format a float the way Prometheus expects (`+Inf`/`-Inf`/`NaN` words).
fn number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Split `exec.link.<link>.<metric>` into `(link, metric)`; `None` for
/// any other name. The metric is the last dot-separated segment.
fn split_link_counter(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix(crate::names::EXEC_LINK_PREFIX)?;
    let (link, metric) = rest.rsplit_once('.')?;
    if link.is_empty() || !matches!(metric, "bytes" | "frames" | "items") {
        return None;
    }
    Some((link, metric))
}

/// Split `exec.worker.s<stage>i<inst>.p<pid>.<metric>` into
/// `(stage, instance, pid, metric)`; `None` for any other name. The
/// metric may itself contain dots (a worker registry ships its full
/// dotted names).
fn split_worker_metric(name: &str) -> Option<(&str, &str, &str, &str)> {
    let rest = name.strip_prefix(crate::names::EXEC_WORKER_PREFIX)?;
    let (ident, rest) = rest.split_once('.')?;
    let (stage, instance) = ident.strip_prefix('s')?.split_once('i')?;
    let (pid, metric) = rest.split_once('.')?;
    let pid = pid.strip_prefix('p')?;
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !numeric(stage) || !numeric(instance) || !numeric(pid) || metric.is_empty() {
        return None;
    }
    Some((stage, instance, pid, metric))
}

/// A series' labels.
type Labels = Vec<(&'static str, String)>;

/// The exposition family and labels of a registry name. Per-boundary
/// transport counters (`exec.link.<link>.<metric>`) fold the link into a
/// `link` label and per-worker series their identity into
/// `stage`/`instance`/`pid` labels, instead of mangling either into the
/// metric name: one family, one series per boundary or worker.
fn family(name: &str) -> (String, Labels) {
    if let Some((link, metric)) = split_link_counter(name) {
        return (
            format!("pipemap_exec_link_{metric}"),
            vec![("link", link.to_string())],
        );
    }
    match split_worker_metric(name) {
        Some((stage, instance, pid, metric)) => (
            metric_name(&format!("exec.worker.{metric}")),
            vec![
                ("stage", stage.to_string()),
                ("instance", instance.to_string()),
                ("pid", pid.to_string()),
            ],
        ),
        None => (metric_name(name), Vec::new()),
    }
}

/// Group named series into families in first-appearance order, so each
/// family renders under one `# TYPE` line with its series together.
fn families<T>(series: impl IntoIterator<Item = (String, T)>) -> Vec<(String, Vec<(Labels, T)>)> {
    let mut out: Vec<(String, Vec<(Labels, T)>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for (name, value) in series {
        let (m, labels) = family(&name);
        match index.get(&m) {
            Some(&i) => out[i].1.push((labels, value)),
            None => {
                index.insert(m.clone(), out.len());
                out.push((m, vec![(labels, value)]));
            }
        }
    }
    out
}

/// A series' labels, with one more appended.
fn with<'a>(
    labels: &'a Labels,
    extra: Option<(&'a str, &'a str)>,
) -> impl Iterator<Item = (&'a str, &'a str)> {
    labels.iter().map(|(k, v)| (*k, v.as_str())).chain(extra)
}

/// Render the registry's current metrics as OpenMetrics text.
pub fn render_openmetrics(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();
    for (m, all) in families(snap.counters) {
        let _ = writeln!(out, "# TYPE {m} counter");
        let total = format!("{m}_total");
        for (labels, v) in &all {
            labelled_sample(&mut out, &total, with(labels, None), v);
        }
    }
    for (m, all) in families(snap.gauges) {
        let _ = writeln!(out, "# TYPE {m} gauge");
        for (labels, v) in &all {
            labelled_sample(&mut out, &m, with(labels, None), number(*v));
        }
    }
    let histograms = registry
        .histogram_cells()
        .into_iter()
        .map(|(name, h)| (name, (h.cumulative_buckets(), h.summary())));
    for (m, all) in families(histograms) {
        let _ = writeln!(out, "# TYPE {m} histogram");
        let [bucket, sum, count] = ["bucket", "sum", "count"].map(|s| format!("{m}_{s}"));
        for (labels, (buckets, summary)) in &all {
            for (le, cum) in buckets {
                let le = number(*le);
                labelled_sample(&mut out, &bucket, with(labels, Some(("le", &le))), cum);
            }
            let inf = with(labels, Some(("le", "+Inf")));
            labelled_sample(&mut out, &bucket, inf, summary.count);
            labelled_sample(&mut out, &sum, with(labels, None), number(summary.sum));
            labelled_sample(&mut out, &count, with(labels, None), summary.count);
        }
        // Companion summary family with the quantile estimates.
        let _ = writeln!(out, "# TYPE {m}_q summary");
        let [q_name, q_sum, q_count] = ["q", "q_sum", "q_count"].map(|s| format!("{m}_{s}"));
        for (labels, (_, s)) in &all {
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let quantile = with(labels, Some(("quantile", q)));
                labelled_sample(&mut out, &q_name, quantile, number(v));
            }
            labelled_sample(&mut out, &q_sum, with(labels, None), number(s.sum));
            labelled_sample(&mut out, &q_count, with(labels, None), s.count);
        }
    }

    let up = metric_name("uptime_seconds");
    let _ = writeln!(out, "# TYPE {up} gauge");
    let _ = writeln!(out, "{up} {}", number(registry.uptime_s()));
    out.push_str("# EOF\n");
    out
}

impl Registry {
    /// The registry's metrics in OpenMetrics text form (see
    /// [`render_openmetrics`]).
    pub fn to_openmetrics(&self) -> String {
        render_openmetrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitised_and_prefixed() {
        assert_eq!(
            metric_name("solver.dp_mapping.cells"),
            "pipemap_solver_dp_mapping_cells"
        );
        assert_eq!(metric_name("9lives"), "pipemap_9lives");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("C:\\tmp\\x"), "C:\\\\tmp\\\\x");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        // All three at once, in order.
        assert_eq!(escape_label_value("\"\\\n"), "\\\"\\\\\\n");
    }

    #[test]
    fn labelled_samples_escape_their_values_and_stay_single_line() {
        let mut line = String::new();
        let labels = [("stage", "fft \"rows\""), ("path", "a\\b\nc")];
        labelled_sample(&mut line, "pipemap_m", labels, "1");
        assert_eq!(
            line,
            "pipemap_m{stage=\"fft \\\"rows\\\"\",path=\"a\\\\b\\nc\"} 1\n"
        );
        // A hostile label value cannot break the sample across lines.
        assert_eq!(line.matches('\n').count(), 1);
        // No labels at all: a bare sample.
        let mut bare = String::new();
        labelled_sample(&mut bare, "pipemap_m", [], "2");
        assert_eq!(bare, "pipemap_m 2\n");
    }

    #[test]
    fn exposition_has_counter_gauge_and_histogram_families() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("solver.cells", 7);
        r.gauge_set("pipeline.utilization", 0.5);
        r.observe("solver.wall_s", 0.25);
        r.observe("solver.wall_s", 0.5);
        let text = registry.to_openmetrics();

        assert!(text.contains("# TYPE pipemap_solver_cells counter\n"));
        assert!(text.contains("pipemap_solver_cells_total 7\n"));
        assert!(text.contains("# TYPE pipemap_pipeline_utilization gauge\n"));
        assert!(text.contains("pipemap_pipeline_utilization 0.5\n"));
        assert!(text.contains("# TYPE pipemap_solver_wall_s histogram\n"));
        assert!(text.contains("pipemap_solver_wall_s_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("pipemap_solver_wall_s_count 2\n"));
        assert!(text.contains("pipemap_solver_wall_s_q{quantile=\"0.5\"}"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn link_counters_become_labelled_series() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("exec.link.source->mix:7.bytes", 4096);
        r.add("exec.link.source->mix:7.items", 32);
        r.add("exec.link.mix:7->sink.bytes", 2048);
        // A counter that merely shares the prefix but has no metric
        // suffix stays a plain counter.
        r.add("exec.link.weird", 1);
        let text = registry.to_openmetrics();

        assert!(text.contains("# TYPE pipemap_exec_link_bytes counter\n"));
        assert!(text.contains("pipemap_exec_link_bytes_total{link=\"source->mix:7\"} 4096\n"));
        assert!(text.contains("pipemap_exec_link_bytes_total{link=\"mix:7->sink\"} 2048\n"));
        assert!(text.contains("pipemap_exec_link_items_total{link=\"source->mix:7\"} 32\n"));
        // One TYPE line per family, not per series.
        assert_eq!(
            text.matches("# TYPE pipemap_exec_link_bytes counter")
                .count(),
            1
        );
        assert!(text.contains("pipemap_exec_link_weird_total 1\n"));
    }

    #[test]
    fn worker_series_become_labelled_families() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("exec.worker.s0i1.p4242.items", 96);
        r.add("exec.worker.s2i0.p4243.items", 41);
        r.add("exec.worker.s0i1.p4242.exec.batch.messages", 3);
        r.add("exec.worker.s2i0.p4243.exec.batch.messages", 1);
        r.gauge_set("exec.worker.s0i1.p4242.cpu_pct", 37.5);
        r.gauge_set("exec.worker.s2i0.p4243.cpu_pct", 12.0);
        r.gauge_set("exec.worker.s0i1.p4242.rss_bytes", 1.5e7);
        r.observe("exec.worker.s0i1.p4242.service_s", 0.25);
        r.observe("exec.worker.s0i1.p4242.service_s", 0.5);
        r.observe("exec.worker.s2i0.p4243.service_s", 0.125);
        // Near-misses stay flat: malformed identity segments.
        r.add("exec.worker.s0.p1.items", 5);
        r.add("exec.worker.sxiy.pz.items", 5);
        let text = registry.to_openmetrics();

        assert!(text.contains("# TYPE pipemap_exec_worker_items counter\n"));
        assert!(text.contains(
            "pipemap_exec_worker_items_total{stage=\"0\",instance=\"1\",pid=\"4242\"} 96\n"
        ));
        assert!(text.contains(
            "pipemap_exec_worker_items_total{stage=\"2\",instance=\"0\",pid=\"4243\"} 41\n"
        ));
        // Dotted worker metrics sanitise into the family name.
        assert!(text.contains(
            "pipemap_exec_worker_exec_batch_messages_total{stage=\"0\",instance=\"1\",pid=\"4242\"} 3\n"
        ));
        assert!(text.contains("# TYPE pipemap_exec_worker_cpu_pct gauge\n"));
        assert!(text.contains(
            "pipemap_exec_worker_cpu_pct{stage=\"0\",instance=\"1\",pid=\"4242\"} 37.5\n"
        ));
        assert!(text.contains(
            "pipemap_exec_worker_rss_bytes{stage=\"0\",instance=\"1\",pid=\"4242\"} 15000000\n"
        ));
        // One TYPE line per family across all workers.
        assert_eq!(
            text.matches("# TYPE pipemap_exec_worker_items counter")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE pipemap_exec_worker_cpu_pct gauge")
                .count(),
            1
        );
        // Series of one family render together even where their names
        // interleave with another family's.
        let lines: Vec<&str> = text.lines().collect();
        let at = |needle: &str| lines.iter().position(|l| l.contains(needle)).unwrap();
        let batches = "pipemap_exec_worker_exec_batch_messages_total{";
        assert_eq!(
            at(&format!("{batches}stage=\"2\"")),
            at(&format!("{batches}stage=\"0\"")) + 1
        );
        // Histograms: one labelled histogram family and one labelled
        // summary family, each declared once with its series together.
        let w0 = "stage=\"0\",instance=\"1\",pid=\"4242\"";
        let w2 = "stage=\"2\",instance=\"0\",pid=\"4243\"";
        for line in [
            format!("pipemap_exec_worker_service_s_bucket{{{w0},le=\"+Inf\"}} 2\n"),
            format!("pipemap_exec_worker_service_s_count{{{w0}}} 2\n"),
            format!("pipemap_exec_worker_service_s_sum{{{w0}}} 0.75\n"),
            format!("pipemap_exec_worker_service_s_count{{{w2}}} 1\n"),
            format!("pipemap_exec_worker_service_s_q{{{w2},quantile=\"0.5\"}}"),
            format!("pipemap_exec_worker_service_s_q_count{{{w0}}} 2\n"),
        ] {
            assert!(text.contains(&line), "missing {line:?} in\n{text}");
        }
        assert!(!text.contains("p4242_service_s"), "{text}");
        let family = text
            .split("# TYPE pipemap_exec_worker_service_s histogram\n")
            .nth(1)
            .expect("one histogram family")
            .split("# TYPE pipemap_exec_worker_service_s_q summary\n")
            .collect::<Vec<_>>();
        assert_eq!(family.len(), 2, "one summary family after it");
        assert!(family[0]
            .lines()
            .all(|l| l.starts_with("pipemap_exec_worker_service_s_")));
        assert_eq!(family[0].matches("_count{").count(), 2);
        assert_eq!(
            text.matches("# TYPE pipemap_exec_worker_service_s").count(),
            2
        );
        // Malformed identities fall back to flat sanitised names.
        assert!(text.contains("pipemap_exec_worker_s0_p1_items_total 5\n"));
        assert!(text.contains("pipemap_exec_worker_sxiy_pz_items_total 5\n"));
    }

    #[test]
    fn link_labels_are_escaped() {
        let registry = Registry::new();
        let r = registry.recorder();
        r.add("exec.link.a\"b->c.frames", 3);
        let text = registry.to_openmetrics();
        assert!(
            text.contains("pipemap_exec_link_frames_total{link=\"a\\\"b->c\"} 3\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_ordered() {
        let registry = Registry::new();
        let r = registry.recorder();
        for v in [0.1, 0.2, 0.4, 0.8, 1.6] {
            r.observe("h", v);
        }
        let text = registry.to_openmetrics();
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = 0u64;
        let mut seen = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("pipemap_h_bucket{le=\"") {
                let (le_s, cum_s) = rest.split_once("\"} ").unwrap();
                let le = if le_s == "+Inf" {
                    f64::INFINITY
                } else {
                    le_s.parse().unwrap()
                };
                let cum: u64 = cum_s.parse().unwrap();
                assert!(le > last_le, "le bounds must increase: {line}");
                assert!(cum >= last_cum, "cumulative counts must not drop: {line}");
                last_le = le;
                last_cum = cum;
                seen += 1;
            }
        }
        assert!(seen >= 5, "expected one bucket per distinct octave + Inf");
        assert_eq!(last_cum, 5);
    }
}
