//! End-to-end tests of the `pipemap` command-line binary.

use std::io::Write;
use std::process::Command;

fn pipemap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipemap"))
}

fn write_spec(dir: &std::path::Path, name: &str, body: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(body.as_bytes()).unwrap();
    path
}

const SPEC: &str = "\
procs 16
mem_per_proc 1e9

task front
  exec poly 0.02 1.0 0.001

edge
  icom poly 0.0 0.02 0.0
  ecom poly 0.01 0.05 0.05 0 0

task back
  exec poly 0.05 0.5 0.0
  replicable no
";

#[test]
fn help_prints_usage() {
    let out = pipemap().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
}

#[test]
fn template_is_parseable_by_map() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-template");
    std::fs::create_dir_all(&dir).unwrap();
    let tmpl = pipemap().arg("template").output().unwrap();
    assert!(tmpl.status.success());
    let spec = write_spec(&dir, "tmpl.pmap", &String::from_utf8_lossy(&tmpl.stdout));
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .arg("--greedy-only")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("greedy"), "{text}");
    assert!(text.contains("data sets/s"));
}

#[test]
fn map_solves_a_spec() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-map");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .arg("--min-procs")
        .arg("1.0")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimal"), "{text}");
    assert!(text.contains("procs"), "{text}");
}

/// Two tasks that each need 3 of the 4 processors: no all-singleton
/// mapping fits, so the greedy heuristic fails, but the merged module does
/// and the DP finds it.
const MERGE_ONLY_SPEC: &str = "\
procs 4
mem_per_proc 1e9

task a
  exec poly 0.0 1.0 0.0
  min_procs 3

edge
  icom poly 0.0 0.0 0.0
  ecom poly 0.01 0 0 0 0

task b
  exec poly 0.0 1.0 0.0
  min_procs 3
";

#[test]
fn map_reports_the_dp_when_only_merging_fits() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-merge-only");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "m.pmap", MERGE_ONLY_SPEC);

    let out = pipemap().arg("map").arg(&spec).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("optimal  : [a+b: 1 x 4p]"), "{text}");
    assert!(!text.contains("greedy"), "{text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("greedy mapping failed"),
        "the greedy failure goes to stderr"
    );

    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .args(["--report", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let solutions = doc.get("solutions").unwrap();
    assert!(solutions.get("optimal").is_some(), "{solutions:?}");
    assert!(solutions.get("greedy").is_none(), "{solutions:?}");

    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .arg("--greedy-only")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no valid mapping exists"), "{err}");
}

#[test]
fn simulate_runs_a_mapping() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-sim");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let out = pipemap()
        .arg("simulate")
        .arg(&spec)
        .arg("0-0:2x4,1-1:1x8")
        .arg("--datasets")
        .arg("120")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("analytic"), "{text}");
    assert!(text.contains("simulated"), "{text}");
    assert!(text.contains("utilisation"));
}

#[test]
fn simulate_rejects_invalid_mappings() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    // The non-replicable `back` task must not be replicated.
    let out = pipemap()
        .arg("simulate")
        .arg(&spec)
        .arg("0-0:2x4,1-1:4x2")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid"), "{err}");
}

#[test]
fn map_refuses_nan_and_negative_costs() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-invalid-cost");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, fixed, shown) in [("nan.pmap", "NaN", "NaN"), ("neg.pmap", "-5.0", "-4")] {
        let body = format!(
            "procs 8\nmem_per_proc 1e9\n\ntask a\n  exec poly 0.0 4.0 0.0\n\n\
             edge\n  icom poly 0.0 0.0 0.0\n  ecom poly 0.01 0 0 0 0\n\n\
             task b\n  exec poly {fixed} 1.0 0.0\n"
        );
        let spec = write_spec(&dir, name, &body);
        let out = pipemap().arg("map").arg(&spec).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{name}: exit 0, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            err.contains(&format!(
                "invalid cost: exec of task 'b' is {shown} at p = 1"
            )),
            "{name}: {err}"
        );
    }
}

#[test]
fn bad_spec_reports_line_numbers() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-err");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "bad.pmap", "procs 4\ntask t\n  exec poly oops 1 1\n");
    let out = pipemap().arg("map").arg(&spec).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
}

#[test]
fn map_refuses_procs_above_u16_max() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-procs");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(
        &dir,
        "huge.pmap",
        "# too many processors\nprocs 70000\ntask t\n  exec poly 0 1 0\n",
    );
    let start = std::time::Instant::now();
    let out = pipemap().arg("map").arg(&spec).output().unwrap();
    assert!(start.elapsed().as_secs_f64() < 5.0, "{:?}", start.elapsed());
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2") && err.contains("procs 70000"),
        "{err}"
    );
}

/// `load` refuses sizes that would start a thread or a worker process per
/// replica, or preallocate a queue slot per message, without bound. One
/// past each cap is enough to show it: these sizes are cheap to run.
#[test]
fn load_refuses_replicas_and_queue_depth_beyond_their_caps() {
    for (flag, value) in [("--replicas", "65"), ("--queue-depth", "65537")] {
        let out = pipemap()
            .args(["load", "micro", "--transport", "inproc", "--datasets", "1"])
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{flag} {value}: {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag} {value}: {err}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = pipemap().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

/// `simulate` with stand-ins for its two positionals.
const SIMULATE: &[&str] = &["simulate", "x.pmap", "0-0:1x1"];

/// Every value-taking flag of every subcommand, as `(leading arguments,
/// flag, an unparsable value)`. The leading arguments stand in for the
/// positionals; the flag is rejected before any of them is opened.
const VALUE_FLAGS: &[(&[&str], &str, Option<&str>)] = &[
    (&["map", "x.pmap"], "--calibration", None),
    (&["map", "x.pmap"], "--edge-bytes", Some("8k")),
    (&["map", "x.pmap"], "--report", None),
    (&["map", "x.pmap"], "--latency-floor", Some("fast")),
    (&["map", "x.pmap"], "--latency-floor", Some("-1")),
    (&["map", "x.pmap"], "--latency-floor", Some("inf")),
    (&["map", "x.pmap"], "--latency-floor", Some("NaN")),
    (&["map", "x.pmap"], "--min-procs", Some("fast")),
    (&["map", "x.pmap"], "--min-procs", Some("0")),
    (&["map", "x.pmap"], "--min-procs", Some("-1")),
    (&["map", "x.pmap"], "--min-procs", Some("inf")),
    (&["map", "x.pmap"], "--min-procs", Some("NaN")),
    (&["calibrate"], "--sizes", Some("64")),
    (&["calibrate"], "--messages", Some("many")),
    (&["calibrate"], "--batch", Some("0")),
    (&["calibrate"], "--out", None),
    (&["explain", "x.pmap"], "--report", None),
    (&["explain", "x.pmap"], "--out", None),
    (&["explain", "x.pmap"], "--trace-out", None),
    (&["explain", "x.pmap"], "--robustness", Some("0")),
    (&["explain", "x.pmap"], "--spread", Some("-1")),
    (&["explain", "x.pmap"], "--seed", Some("x")),
    (SIMULATE, "--datasets", Some("x")),
    (SIMULATE, "--noise", Some("x")),
    (SIMULATE, "--seed", Some("x")),
    (SIMULATE, "--report", None),
    (SIMULATE, "--journey-out", None),
    (SIMULATE, "--journey-sample", Some("0")),
    (SIMULATE, "--serve", None),
    (SIMULATE, "--hold", Some("x")),
    (SIMULATE, "--recorder-out", None),
    (&["demo", "radar"], "--trace-out", None),
    (&["demo", "radar"], "--serve", None),
    (&["demo", "radar"], "--hold", Some("x")),
    (&["demo", "radar"], "--recorder-out", None),
    (&["bench"], "--out", None),
    (&["bench"], "--compare", None),
    (&["bench"], "--against", None),
    (&["bench"], "--threshold", Some("0")),
    (&["bench"], "--validate", None),
    (&["load", "micro"], "--rate", Some("x")),
    (&["load", "micro"], "--rate", Some("400:200:3")),
    (&["load", "micro"], "--duration", Some("x")),
    (&["load", "micro"], "--transport", Some("tcp")),
    (&["load", "micro"], "--admit-rate", Some("0")),
    (&["load", "micro"], "--shed-queue", Some("0")),
    (&["load", "micro"], "--calibration", None),
    (&["load", "micro"], "--datasets", Some("x")),
    (&["load", "micro"], "--batch", Some("x")),
    (&["load", "micro"], "--flush-us", Some("x")),
    (&["load", "micro"], "--queue-depth", Some("x")),
    (&["load", "micro"], "--stages", Some("x")),
    (&["load", "micro"], "--size", Some("x")),
    (&["load", "micro"], "--replicas", Some("x")),
    (&["load", "micro"], "--threads", Some("x")),
    (&["load", "micro"], "--report", None),
    (&["load", "micro"], "--journey-out", None),
    (&["load", "micro"], "--journey-sample", Some("0")),
    (&["load", "micro"], "--serve", None),
    (&["load", "micro"], "--hold", Some("x")),
    (&["load", "micro"], "--recorder-out", None),
    (&["doctor", "j.jsonl"], "--attach", None),
    (&["doctor", "j.jsonl"], "--report", None),
    (&["doctor", "j.jsonl"], "--model", None),
    (&["doctor", "j.jsonl"], "--margins", None),
    (&["doctor", "j.jsonl"], "--threshold", Some("-1")),
    (&["doctor", "j.jsonl"], "--min-samples", Some("x")),
    (&["doctor", "j.jsonl"], "--spec", None),
    (&["doctor", "j.jsonl"], "--mapping", None),
    (&["doctor", "j.jsonl"], "--trace-out", None),
    (&["doctor", "j.jsonl"], "--serve", None),
    (&["doctor", "j.jsonl"], "--hold", Some("x")),
    (&["doctor", "j.jsonl"], "--recorder-out", None),
    (&["resolve", "x.pmap"], "--drift", None),
    (&["resolve", "x.pmap"], "--doctor", None),
    (&["resolve", "x.pmap"], "--report", None),
    (&["top"], "--attach", None),
    (&["top"], "--interval", Some("0")),
    (&["top"], "--duration", Some("x")),
];

/// A flag with no value, or with one that does not parse, makes every
/// command exit nonzero with a stderr line naming the flag, and never
/// panic.
#[test]
fn every_value_flag_rejects_missing_and_unparsable_values() {
    for &(lead, flag, bad) in VALUE_FLAGS {
        for value in std::iter::once(None).chain(bad.map(Some)) {
            let out = pipemap().args(lead).arg(flag).args(value).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            let call = format!("{lead:?} {flag} {value:?}");
            assert!(!out.status.success(), "{call} succeeded");
            assert!(
                err.lines().any(|l| l.contains(flag)),
                "{call}: stderr does not name the flag:\n{err}"
            );
            assert!(!err.contains("panicked at"), "{call} panicked:\n{err}");
        }
    }
}

/// Every command, with stand-ins for its positionals.
const COMMANDS: &[&[&str]] = &[
    &["map", "x.pmap"],
    &["calibrate"],
    &["explain", "x.pmap"],
    SIMULATE,
    &["demo", "radar"],
    &["bench"],
    &["load", "micro"],
    &["doctor", "j.jsonl"],
    &["resolve", "x.pmap"],
    &["top"],
    &["fit", "radar"],
    &["template"],
];

/// An unknown flag is rejected by name in every command, before or after
/// the positionals — never taken for a positional, never ignored.
#[test]
fn every_command_rejects_unknown_flags() {
    for args in COMMANDS {
        let (cmd, positionals) = args.split_first().unwrap();
        let bogus: &[&str] = &["--bogus"];
        for (first, second) in [(bogus, positionals), (positionals, bogus)] {
            let out = pipemap()
                .arg(cmd)
                .args(first)
                .args(second)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            let call = format!("{cmd} {first:?} {second:?}");
            assert!(!out.status.success(), "{call} succeeded");
            assert!(
                err.contains("unexpected argument '--bogus'"),
                "{call}: {err}"
            );
        }
    }
}

/// Flags may come before, between or after the positionals.
#[test]
fn flags_may_precede_positionals() {
    let run = |args: &[&str]| {
        let out = pipemap().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        run(&["fit", "--systolic", "radar"]),
        run(&["fit", "radar", "--systolic"])
    );
    let dir = std::env::temp_dir().join("pipemap-cli-test-flag-order");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let spec = spec.to_str().unwrap();
    assert_eq!(
        run(&["map", "--greedy-only", spec]),
        run(&["map", spec, "--greedy-only"])
    );
    let mapping = "0-0:2x4,1-1:1x8";
    assert_eq!(
        run(&["simulate", "--datasets", "50", spec, "--seed", "3", mapping]),
        run(&["simulate", spec, mapping, "--datasets", "50", "--seed", "3"])
    );
}

/// `simulate --report json` is virtual-time only, so a seeded run is
/// byte-for-byte reproducible — and a different seed actually changes
/// the noise draw.
#[test]
fn simulate_json_report_is_deterministic_per_seed() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let run = |seed: &str| {
        let out = pipemap()
            .arg("simulate")
            .arg(&spec)
            .arg("0-0:2x4,1-1:1x8")
            .args(["--datasets", "80", "--noise", "0.08", "--seed", seed])
            .args(["--report", "json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run("42");
    let b = run("42");
    assert_eq!(a, b, "same seed must reproduce the report byte-for-byte");
    let c = run("43");
    assert_ne!(a, c, "a different seed must change the noisy measurements");
    // And the output is valid JSON with the advertised fields.
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&a)).unwrap();
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("seed"))
            .and_then(pipemap_obs::Value::as_f64),
        Some(42.0)
    );
    assert!(doc.get("simulated_throughput").is_some());
    assert!(doc.get("latency").and_then(|l| l.get("p99")).is_some());
}

fn http_get(addr: &str, path: &str) -> String {
    use std::io::Read;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

/// `--serve` exposes live OpenMetrics over HTTP while the command runs:
/// the body must carry at least one counter, gauge, and histogram family
/// and end with the OpenMetrics EOF marker.
#[test]
fn simulate_serve_exposes_openmetrics_over_http() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join("pipemap-cli-test-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let mut child = pipemap()
        .arg("simulate")
        .arg(&spec)
        .arg("0-0:2x4,1-1:1x8")
        .args(["--datasets", "200", "--noise", "0.05"])
        .args(["--serve", "127.0.0.1:0", "--hold", "20"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The bound address (port 0 = ephemeral) is announced on stderr.
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();

    // Poll until the run has published its counters and, a moment later,
    // its histograms (the simulation is fast; the server holds the
    // registry open afterwards).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let body = loop {
        let resp = http_get(&addr, "/metrics");
        if resp.contains("pipemap_sim_datasets_completed_total")
            && resp.lines().any(|l| l.ends_with(" histogram"))
        {
            break resp;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "metrics never appeared; last response: {resp}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(body.contains("200 OK"), "{body}");
    assert!(body.contains("application/openmetrics-text"), "{body}");
    for family in ["counter", "gauge", "histogram"] {
        assert!(
            body.lines()
                .any(|l| l.starts_with("# TYPE ") && l.ends_with(family)),
            "no {family} family in:\n{body}"
        );
    }
    assert!(body.contains("# EOF"), "{body}");

    // The JSON snapshot and the flight-recorder dump are also served.
    let snap = http_get(&addr, "/snapshot.json");
    assert!(snap.contains("200 OK"), "{snap}");
    assert!(snap.contains("sim.datasets.completed"), "{snap}");
    let rec = http_get(&addr, "/recorder.jsonl");
    assert!(rec.contains("200 OK"), "{rec}");
    assert!(rec.contains("\"t_s\""), "{rec}");

    child.kill().unwrap();
    let _ = child.wait();
}

fn bench_doc(dir: &std::path::Path, name: &str, entries: &[(&str, f64)]) -> std::path::PathBuf {
    let mut metrics = String::new();
    for (i, (metric, value)) in entries.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"s\", \"direction\": \"lower\", \"slack\": 0.0}}"
        ));
    }
    let body = format!(
        "{{\"schema\": \"pipemap-bench/v1\", \"git_sha\": \"test\", \"metrics\": {{{metrics}}}}}"
    );
    write_spec(dir, name, &body)
}

/// `bench --compare` must exit nonzero when the current run regresses
/// past the threshold, stay green within it, and honour `--warn-only`.
#[test]
fn bench_compare_exits_nonzero_on_regression() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = bench_doc(&dir, "base.json", &[("suite.wall_s", 1.0)]);
    let regressed = bench_doc(&dir, "bad.json", &[("suite.wall_s", 2.0)]);
    let fine = bench_doc(&dir, "fine.json", &[("suite.wall_s", 1.05)]);

    let compare = |current: &std::path::Path, extra: &[&str]| {
        pipemap()
            .arg("bench")
            .arg("--compare")
            .arg(&baseline)
            .arg("--against")
            .arg(current)
            .args(extra)
            .output()
            .unwrap()
    };

    let out = compare(&regressed, &[]);
    assert!(!out.status.success(), "2x slower must fail the gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "{text}");

    let out = compare(&fine, &[]);
    assert!(
        out.status.success(),
        "5% drift is inside the default threshold: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A tight threshold flags the small drift too...
    let out = compare(&fine, &["--threshold", "0.01"]);
    assert!(!out.status.success());
    // ...unless the caller asked for warnings only.
    let out = compare(&regressed, &["--warn-only"]);
    assert!(out.status.success());
}

#[test]
fn bench_validate_checks_schema() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-bench-validate");
    std::fs::create_dir_all(&dir).unwrap();
    let good = bench_doc(&dir, "good.json", &[("m.wall_s", 0.5)]);
    let out = pipemap()
        .arg("bench")
        .arg("--validate")
        .arg(&good)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid"));

    let bad = write_spec(&dir, "bad.json", "{\"schema\": \"nope\"}");
    let out = pipemap()
        .arg("bench")
        .arg("--validate")
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn fit_emits_a_mappable_spec() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-fit");
    std::fs::create_dir_all(&dir).unwrap();
    let fit = pipemap()
        .arg("fit")
        .arg("radar")
        .arg("--systolic")
        .output()
        .unwrap();
    assert!(
        fit.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&fit.stderr)
    );
    let spec = write_spec(&dir, "radar.pmap", &String::from_utf8_lossy(&fit.stdout));
    let map = pipemap()
        .arg("map")
        .arg(&spec)
        .arg("--greedy-only")
        .output()
        .unwrap();
    assert!(
        map.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&map.stderr)
    );
    let text = String::from_utf8_lossy(&map.stdout);
    assert!(text.contains("data sets/s"), "{text}");
}

#[test]
fn load_counted_run_reports_throughput() {
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--datasets", "300", "--size", "64"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("datasets/s"), "{text}");
    assert!(text.contains("micro"), "{text}");
}

#[test]
fn load_json_report_completes_every_dataset() {
    let out = pipemap()
        .arg("load")
        .arg("fft-hist")
        .args(["--datasets", "24", "--size", "16", "--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("workload").and_then(pipemap_obs::Value::as_str),
        Some("fft-hist")
    );
    assert_eq!(
        doc.get("result")
            .and_then(|r| r.get("completed"))
            .and_then(pipemap_obs::Value::as_f64),
        Some(24.0)
    );
    assert!(doc
        .get("result")
        .and_then(|r| r.get("latency"))
        .and_then(|l| l.get("p99_s"))
        .is_some());
    assert!(doc.get("transport").is_some());
    assert!(doc.get("pool").is_some(), "pool stats on by default");
}

#[test]
fn load_reference_mode_disables_batching_and_pool() {
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--datasets", "50", "--size", "32", "--reference"])
        .args(["--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("batch"))
            .and_then(pipemap_obs::Value::as_f64),
        Some(1.0)
    );
    assert!(doc.get("pool").is_none(), "reference path must not pool");
}

#[test]
fn load_rejects_bad_flags() {
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--batch", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = pipemap().arg("load").arg("nonsense").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn bench_validate_explains_stale_schemas() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-bench-stale");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = write_spec(
        &dir,
        "stale.json",
        "{\"schema\": \"pipemap-bench/v0\", \"git_sha\": \"x\", \"metrics\": {}}",
    );
    let out = pipemap()
        .arg("bench")
        .arg("--validate")
        .arg(&stale)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("older than"), "{err}");
    assert!(err.contains("regenerate the baseline"), "{err}");
}

/// `simulate --journey-out` followed by `doctor` on the same files: the
/// self-consistent run must be diagnosed drift-free, and the JSON
/// report must be structurally complete.
#[test]
fn simulate_journeys_doctor_round_trip() {
    use pipemap_obs::Value;
    let dir = std::env::temp_dir().join("pipemap-cli-test-doctor");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let journeys = dir.join("j.jsonl");
    // One replica of `front` on 4 procs (~274ms effective) against
    // `back` on 8 (~141ms): a clearly unbalanced pipeline, so a wrong
    // bottleneck prediction is material rather than a near-tie.
    let out = pipemap()
        .arg("simulate")
        .arg(&spec)
        .arg("0-0:1x4,1-1:1x8")
        .args(["--datasets", "120", "--noise", "0.02", "--seed", "11"])
        .arg("--journey-out")
        .arg(&journeys)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pipemap()
        .arg("doctor")
        .arg(&journeys)
        .args(["--report", "json", "--fail-on-drift"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "self-consistent run flagged drift: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("pipemap-doctor/v1")
    );
    assert_eq!(doc.get("complete").and_then(Value::as_f64), Some(120.0));
    assert_eq!(doc.get("drift"), Some(&Value::Bool(false)));
    let stages = doc.get("stages").and_then(Value::as_array).unwrap();
    assert_eq!(stages.len(), 2);
    for s in stages {
        for comp in ["queue", "transport", "service", "batching"] {
            let mean = s
                .get(comp)
                .and_then(|c| c.get("mean_s"))
                .and_then(Value::as_f64)
                .unwrap();
            assert!(mean >= 0.0, "{comp} mean negative");
        }
    }

    // Re-pricing against a spec whose second task is 3x slower than
    // what actually ran must move the predicted bottleneck (to `back`,
    // away from the measured bottleneck at `front`) and flag drift;
    // `--fail-on-drift` turns that into a nonzero exit.
    let slow_back = SPEC.replace("exec poly 0.05 0.5 0.0", "exec poly 0.15 1.5 0.0");
    let stale = write_spec(&dir, "stale.pmap", &slow_back);
    let out = pipemap()
        .arg("doctor")
        .arg(&journeys)
        .args(["--spec", stale.to_str().unwrap()])
        .args(["--mapping", "0-0:1x4,1-1:1x8", "--fail-on-drift"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "stale model must flag drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DRIFT"), "{text}");
    assert!(text.contains("re-solve"), "{text}");
}

#[test]
fn doctor_rejects_missing_and_empty_input() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-doctor-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let out = pipemap()
        .arg("doctor")
        .arg(dir.join("nope.jsonl"))
        .output()
        .unwrap();
    assert!(!out.status.success());

    let empty = write_spec(&dir, "empty.jsonl", "");
    let out = pipemap().arg("doctor").arg(&empty).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no complete journeys"), "{err}");
}

/// A spec whose optimum has tight, finite stability margins: both tasks
/// keep state (not replicable), so the 12 processors genuinely split
/// 7/5 and a ~4% drift on `front` already flips the optimum, while
/// `back` tolerates ~27%.
const MARGIN_SPEC: &str = "\
procs 12
mem_per_proc 1e9

task front
  exec poly 0.0 5.0 0.02
  replicable no

edge
  icom poly 0.0 0.05 0.0
  ecom poly 0.02 0.3 0.3 0.01 0.01

task back
  exec poly 0.05 3.0 0.02
  replicable no
";

/// The optimal mapping `explain` reports for [`MARGIN_SPEC`].
const MARGIN_MAPPING: &str = "0-0:1x7,1-1:1x5";

#[test]
fn explain_renders_margins_and_emits_parseable_json() {
    use pipemap_obs::Value;
    let dir = std::env::temp_dir().join("pipemap-cli-test-explain");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "m.pmap", MARGIN_SPEC);
    let out = pipemap().arg("explain").arg(&spec).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exec margin"), "{text}");
    assert!(text.contains("pruning heatmap"), "{text}");
    assert!(text.contains("tightest margin"), "{text}");

    let out = pipemap()
        .arg("explain")
        .arg(&spec)
        .args(["--report", "json", "--robustness", "6", "--spread", "0.02"])
        .args(["--seed", "42"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("pipemap-explain/v1")
    );
    let stages = doc.get("stages").and_then(Value::as_array).unwrap();
    assert_eq!(stages.len(), 2);
    assert!(stages[0].get("margins").is_some());
    // ±2% perturbations stay inside the 4.1% margin, so the sampled
    // study must agree the mapping never loses.
    let rob = doc.get("robustness").unwrap();
    assert_eq!(rob.get("regret_max").and_then(Value::as_f64), Some(0.0));
}

/// The acceptance scenario for margin-aware drift: a seeded DES run is
/// doctored against the exact margins from `explain`. A +10% drift on
/// `front` escapes its 4.1% margin and must be flagged; a +20% drift on
/// `back` stays inside its 26.7% margin and must stay quiet — exactly
/// where the fixed near-tie threshold doctor false-positives.
#[test]
fn doctor_margins_flags_exactly_at_the_stability_boundary() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-margins");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "m.pmap", MARGIN_SPEC);
    let explain_json = dir.join("explain.json");
    let out = pipemap()
        .arg("explain")
        .arg(&spec)
        .args(["--report", "json"])
        .arg("--out")
        .arg(&explain_json)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The world the model believes in, perturbed two ways: `front` 10%
    // costlier (outside its margin), `back` 20% costlier (inside).
    let front_drift = MARGIN_SPEC.replace("exec poly 0.0 5.0 0.02", "exec poly 0.0 5.5 0.022");
    let back_drift = MARGIN_SPEC.replace("exec poly 0.05 3.0 0.02", "exec poly 0.06 3.6 0.024");
    let simulate = |name: &str, body: &str| {
        let drifted = write_spec(&dir, name, body);
        let journeys = dir.join(format!("{name}.jsonl"));
        let out = pipemap()
            .arg("simulate")
            .arg(&drifted)
            .arg(MARGIN_MAPPING)
            .args(["--datasets", "80", "--noise", "0.01", "--seed", "7"])
            .args(["--journey-sample", "1"])
            .arg("--journey-out")
            .arg(&journeys)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        journeys
    };
    let doctor = |journeys: &std::path::Path, margins: bool| {
        let mut cmd = pipemap();
        cmd.arg("doctor")
            .arg(journeys)
            .args(["--spec", spec.to_str().unwrap()])
            .args(["--mapping", MARGIN_MAPPING, "--fail-on-drift"]);
        if margins {
            cmd.arg("--margins").arg(&explain_json);
        }
        let out = cmd.output().unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    let jf = simulate("front_drift.pmap", &front_drift);
    let (ok, text) = doctor(&jf, true);
    assert!(!ok, "front +10% escapes its 4.1% margin: {text}");
    assert!(text.contains("MARGIN DRIFT"), "{text}");
    assert!(text.contains("CROSSED"), "{text}");

    let jb = simulate("back_drift.pmap", &back_drift);
    let (ok, text) = doctor(&jb, true);
    assert!(ok, "back +20% is inside its 26.7% margin: {text}");
    assert!(text.contains("no drift"), "{text}");
    // The same journeys through the fixed near-tie threshold page: the
    // measured bottleneck moved, even though the mapping is provably
    // still optimal. This is the false positive the margins remove.
    let (ok, text) = doctor(&jb, false);
    assert!(!ok, "fixed threshold should false-positive here: {text}");
    assert!(text.contains("DRIFT"), "{text}");
}

// ---------------------------------------------------------------------------
// Out-of-process data plane: uds loads, overload discipline, calibration
// ---------------------------------------------------------------------------
//
// These run here rather than in the tool's lib tests because the uds
// path re-executes the current binary as a worker: under the `pipemap`
// binary the hidden `__worker` dispatch answers the probe, under the
// libtest harness it cannot.

fn json_f64(doc: &pipemap_obs::Value, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for k in path {
        v = v.get(k)?;
    }
    pipemap_obs::Value::as_f64(v)
}

#[test]
fn uds_load_completes_and_reports_links() {
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--transport", "uds"])
        .args(["--datasets", "2000", "--size", "256", "--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("transport"))
            .and_then(pipemap_obs::Value::as_str),
        Some("uds")
    );
    assert_eq!(json_f64(&doc, &["result", "completed"]), Some(2000.0));
    // Per-boundary link rows: nstages + 1 of them, every item accounted
    // for on the first boundary.
    let links = doc
        .get("links")
        .and_then(pipemap_obs::Value::as_array)
        .unwrap();
    assert_eq!(links.len(), 5, "4 stages -> 5 boundary links");
    assert_eq!(json_f64(&links[0], &["items"]), Some(2000.0));
    assert!(json_f64(&links[0], &["bytes"]).unwrap() > 0.0);
    // Coalescing must actually coalesce: far fewer frames than items.
    assert!(json_f64(&links[0], &["frames"]).unwrap() < 1000.0);
}

#[test]
fn uds_load_admission_control_reports_rejections() {
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--transport", "uds"])
        .args(["--datasets", "3000", "--size", "64"])
        .args(["--rate", "60000", "--admit-rate", "4000"])
        .args(["--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(json_f64(&doc, &["config", "admit_rate"]), Some(4000.0));
    let offered = json_f64(&doc, &["result", "offered"]).unwrap();
    let rejected = json_f64(&doc, &["result", "rejected"]).unwrap();
    let completed = json_f64(&doc, &["result", "completed"]).unwrap();
    assert_eq!(offered, 3000.0);
    assert!(rejected > 0.0, "15x overload past the bucket must reject");
    assert_eq!(completed + rejected, offered, "no arrival unaccounted");
}

#[test]
fn load_rate_sweep_reports_knee_below_saturation() {
    // Rates far below the micro pipeline's capacity: every point keeps
    // up, so the knee is the top of the ramp.
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--rate", "200:400:3"])
        .args(["--duration", "200ms", "--size", "64"])
        .args(["--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let points = doc
        .get("points")
        .and_then(pipemap_obs::Value::as_array)
        .unwrap();
    assert_eq!(points.len(), 3);
    assert_eq!(json_f64(&points[0], &["offered_rate"]), Some(200.0));
    assert_eq!(json_f64(&points[2], &["offered_rate"]), Some(400.0));
    assert_eq!(json_f64(&doc, &["knee_rate"]), Some(400.0));

    // A malformed ramp is rejected before any run starts.
    let out = pipemap()
        .arg("load")
        .arg("micro")
        .args(["--rate", "400:200:3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn calibrate_emits_schema_versioned_fit() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-calibrate");
    std::fs::create_dir_all(&dir).unwrap();
    let cal = dir.join("cal.json");
    let out = pipemap()
        .arg("calibrate")
        .args(["--sizes", "64,4096", "--messages", "2000"])
        .args(["--out", cal.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&std::fs::read_to_string(&cal).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(pipemap_obs::Value::as_str),
        Some("pipemap-calibration/v1")
    );
    assert!(json_f64(&doc, &["per_msg_s"]).unwrap() > 0.0);
    assert!(json_f64(&doc, &["per_byte_s"]).unwrap() >= 0.0);
    let samples = doc
        .get("samples")
        .and_then(pipemap_obs::Value::as_array)
        .unwrap();
    assert_eq!(samples.len(), 2);

    // The fit round-trips into `map --calibration`.
    let spec = write_spec(&dir, "cal.pmap", SPEC);
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .args(["--calibration", cal.to_str().unwrap()])
        .args(["--edge-bytes", "1048576"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("data sets/s"), "{text}");
}

#[test]
fn map_calibration_flags_must_be_consistent() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-cal-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir, "p.pmap", SPEC);
    let cal = write_spec(
        &dir,
        "cal.json",
        "{\"schema\": \"pipemap-calibration/v1\", \"per_msg_s\": 1e-6, \
          \"per_byte_s\": 1e-9, \"r2\": 1.0, \"samples\": []}",
    );
    // --calibration without --edge-bytes is an error, and vice versa.
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .args(["--calibration", cal.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .args(["--edge-bytes", "100"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // The byte list must cover every edge (this spec has exactly one).
    let out = pipemap()
        .arg("map")
        .arg(&spec)
        .args(["--calibration", cal.to_str().unwrap()])
        .args(["--edge-bytes", "100,200"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn uds_journeys_are_complete_for_doctor() {
    let dir = std::env::temp_dir().join("pipemap-cli-test-uds-journeys");
    std::fs::create_dir_all(&dir).unwrap();
    let journeys = dir.join("uds.jsonl");
    let out = pipemap()
        .arg("load")
        .arg("fft-hist")
        .args(["--transport", "uds"])
        .args(["--datasets", "600", "--size", "32"])
        .args(["--journey-out", journeys.to_str().unwrap()])
        .args(["--journey-sample", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pipemap()
        .arg("doctor")
        .arg(&journeys)
        .args(["--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = pipemap_obs::Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    // Cross-process events stitch into complete journeys: every sampled
    // data set contributes all three hops.
    let complete = json_f64(&doc, &["complete"]).unwrap();
    assert!(complete > 0.0, "no complete journeys from the uds run");
    assert_eq!(
        doc.get("stages")
            .and_then(pipemap_obs::Value::as_array)
            .map(|s| s.len()),
        Some(3)
    );
}
