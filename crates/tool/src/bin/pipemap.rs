//! `pipemap` — the command-line automatic mapping tool. Its commands and
//! flags are documented once, in `USAGE` (`pipemap --help`).

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use pipemap_apps::{fft_hist, radar, stereo, FftHistConfig, RadarConfig, StereoConfig};
use pipemap_chain::{Mapping, Problem};
use pipemap_core::{
    best_latency_mapping, cluster_heuristic, dp_mapping, dp_mapping_free, min_procs_mapping,
    GreedyOptions,
};
use pipemap_machine::MachineConfig;
use pipemap_obs::{FlightRecorder, MetricsServer, RecorderConfig};
use pipemap_profile::TransportCalibration;
use pipemap_tool::bench::{compare_bench, git_sha, run_bench_suite, validate_bench, BenchOptions};
use pipemap_tool::spec::{parse_mapping, parse_spec};
use pipemap_tool::{
    auto_map, demo_report_json, map_report_json, mapping_json, render_mapping, render_report,
    simulate_report_json, MapperOptions,
};

const USAGE: &str = "\
pipemap — optimal mapping of pipelines of data parallel tasks

USAGE:
    pipemap map <spec-file> [--greedy-only] [--latency-floor <thr>]
                            [--min-procs <thr>] [--report json]
                            [--calibration <file> --edge-bytes <b1,b2,..>]
    pipemap calibrate [--sizes <b1,b2,..>] [--messages <n>] [--batch <B>]
                      [--out <file>]
    pipemap explain <spec-file> [--assignment] [--report json]
                    [--out <file>] [--trace-out <file>]
                    [--robustness <trials>] [--spread <frac>] [--seed <n>]
    pipemap simulate <spec-file> <mapping> [--datasets <n>] [--noise <spread>]
                     [--seed <n>] [--report json] [--journey-out <file>]
                     [--journey-sample <n>] [--serve <addr>]
                     [--hold <secs>] [--recorder-out <file>]
    pipemap demo <fft-hist-256|fft-hist-512|radar|stereo> [--systolic]
                 [--metrics] [--trace-out <file>] [--serve <addr>]
                 [--hold <secs>] [--recorder-out <file>]
    pipemap bench [--quick] [--out <file>] [--compare <baseline.json>]
                  [--against <current.json>] [--threshold <frac>]
                  [--warn-only] [--validate <file>]
    pipemap load [micro|fft-hist] [--rate <ds/s | lo:hi:steps>]
                 [--duration <secs|Nms>] [--transport inproc|uds]
                 [--admit-rate <ds/s>] [--shed-queue <n>]
                 [--calibration <file>]
                 [--datasets <n>] [--batch <B>] [--flush-us <us>]
                 [--queue-depth <d>] [--stages <k>] [--size <n>]
                 [--replicas <r>] [--threads <t>] [--no-pool] [--reference]
                 [--report json] [--journey-out <file>] [--journey-sample <n>]
                 [--serve <addr>] [--hold <secs>] [--recorder-out <file>]
    pipemap doctor <journeys.jsonl> [--attach <addr>] [--report json]
                   [--model static|online] [--fail-on-drift]
                   [--margins <explain.json>]
                   [--threshold <frac>] [--min-samples <n>]
                   [--spec <file> --mapping <m>] [--trace-out <file>]
                   [--serve <addr>] [--hold <secs>] [--recorder-out <file>]
    pipemap resolve <spec-file> [--assignment]
                    [--drift <exec|icom|ecom>:<idx>=<factor>]...
                    [--doctor <report.json>] [--report json]
    pipemap top [--attach <addr>] [--once] [--interval <secs|Nms>]
                [--duration <secs|Nms>]
    pipemap fit <fft-hist-256|fft-hist-512|radar|stereo> [--systolic]
    pipemap template

COMMANDS:
    map       read a pipeline spec and print its optimal mapping
              (--report json emits a machine-readable report including
              solver counters: DP cells, lookups, prunings, wall time).
              --calibration + --edge-bytes re-price every edge's external
              transfer with the *measured* transport cost from
              'pipemap calibrate': edge i costs per_msg + per_byte * b_i
              seconds, so the mapping optimises against the transport the
              machine actually has instead of the spec's assumed f_ecom
    calibrate measure real cross-process transport cost: push messages of
              each --sizes payload through a spawned worker over a Unix
              socket, fit t(B) = per_msg_s + per_byte_s*B by least
              squares, and print (or --out write) the
              pipemap-calibration/v1 JSON that 'map --calibration' and
              'load --calibration' consume
    explain   solve with full decision provenance and print *why*: the
              winning DP path with each stage's runner-up alternative,
              exact stability margins (how far each stage's fitted
              exec/transfer cost can drift before the optimum flips —
              closed form from the value tables, no sampling), marginal
              throughput contributions, and a pruning heatmap.
              --report json emits the pipemap-explain/v1 document that
              'doctor --margins' and the observatory consume (--out
              writes it to a file as well); --trace-out writes the
              decision path as a Chrome trace; --robustness <trials>
              cross-checks the exact margins with the §6.4 Monte-Carlo
              study (--spread sets the perturbation, default 0.10);
              --assignment explains the per-task assignment DP instead
              of the clustering DP
    simulate  run a given mapping (e.g. '0-0:8x3,1-2:10x4') through the
              pipeline simulator and report measured throughput
              (--seed makes a --noise run reproducible; --report json
              emits a deterministic machine-readable report)
    demo      run the full profile→fit→map→simulate methodology on a
              built-in application from the paper; --metrics prints a
              JSON report (per-stage utilisation, recv/send wait,
              predicted-vs-measured error, solver metrics) and
              --trace-out writes a Chrome trace of the measured run
              (open in Perfetto / chrome://tracing)
    bench     run the fixed perf suite (solvers, end-to-end methodology,
              threaded executor) and write BENCH_<git-sha>.json;
              --compare prints per-metric verdicts against a baseline and
              exits nonzero on regression, naming each regressed metric
              with its unit and baseline -> current values (--threshold
              overrides the default 30% relative change; --warn-only
              never fails);
              --validate checks a bench file against the schema
    load      drive a real threaded pipeline at a target rate (or open
              loop) and report achieved datasets/s, p50/p99 end-to-end
              latency, per-stage backpressure, batching fill, and buffer
              pool hit rate; the achieved rate is checked against the
              closed form 1/max(s_i/r_i) on the measured service means.
              --reference runs the unbatched/unpooled data plane for A/B
              comparison; stop conditions combine (--duration default 2s);
              --journey-out records sampled per-dataset journeys (enqueue/
              dequeue/service/send per stage) to a JSONL file for 'doctor'.
              With --serve the run exposes the full observatory surface:
              journeys at /journeys.jsonl, SLO burn-rate and backpressure
              events at /events.jsonl, and a continuously refitted online
              cost model at /model.json (for 'top' and 'doctor --attach').
              --transport uds runs the pipeline as worker *processes*
              over Unix sockets (bit-identical output, measured per-link
              frame/byte counters); an *observed* uds run (--serve or
              --recorder-out) also streams per-worker telemetry — live
              counters, service histograms, CPU/RSS sampled from /proc,
              and journey events — into the parent's registry as
              exec.worker.s<stage>i<inst>.p<pid>.* series, labelled
              per process on /metrics and rendered by 'top'; a worker
              whose stream dies is marked stale rather than dropped;
              --admit-rate caps the accepted rate
              with a token bucket and --shed-queue drops arrivals beyond
              an in-flight bound (rejected/shed are reported);
              --calibration folds the measured f_ecom into the predicted
              throughput; --rate lo:hi:steps ramps the offered rate and
              reports the saturation knee (last rate with achieved >=
              95% of offered)
    doctor    explain a run from its journey trace: per-stage latency
              decomposition (queue wait vs transport vs service vs
              batching delay), per-dataset critical path, measured vs
              model-predicted service means with 95% confidence
              intervals, and a drift verdict when the measured bottleneck
              is not the one the DP solver predicted (recommending a
              re-solve). Reads a --journey-out file, or scrapes a live
              run's /journeys.jsonl via --attach <addr>. --spec/--mapping
              rebuild the prediction from a spec instead of the file
              header; --fail-on-drift exits nonzero on drift;
              --model online refits the cost model from the journeys
              themselves (recent data sets weighted heaviest) and
              localises the stage whose live cost drifted from the static
              model — catching mid-run changes whole-run means dilute;
              --margins <explain.json> replaces the fixed near-tie
              threshold with each stage's exact stability interval from
              'explain --report json': quiet while drift provably cannot
              flip the mapping, flagged the moment it can;
              --trace-out writes the journeys as a Chrome trace with flow
              arrows stitching each data set across stages
    resolve   incremental warm-start re-solve: build the retained solver
              artifact (dense cost table, DP value tables, optimal
              mapping, exact stability margins) from the spec, apply a
              cost-drift vector, and re-solve only what the drift
              invalidated — throughput bit-identical to a cold solve of
              the re-priced problem, verified on every run (a margin
              short-circuit may keep the old mapping when the cold argmax
              ties it at the same value). Drift comes from
              repeated --drift factors (task index for exec, edge index
              for icom/ecom), or from --doctor <report.json>: the fitted
              per-module service/transport factors a 'doctor --report
              json' run recommends are collapsed onto the artifact's own
              mapping (explicit --drift factors override on top).
              Reports old vs new mapping, the mechanism fired
              (short-circuit vs suffix), DP cells recomputed, the
              invalidation frontier, and the wall-clock speedup over the
              verification cold solve; --assignment uses the per-task
              assignment DP instead of the clustering DP
    top       live terminal dashboard: per-stage throughput/utilization
              sparklines, a per-process worker table when the run ships
              cross-process telemetry (items, CPU%, RSS, busy/starved,
              p99, liveness), the online-fitted cost model with
              residuals, and a scrolling event feed. --attach scrapes a --serve
              endpoint (e.g. a 'load --serve' run); without it, drives a
              short local micro load. --once prints a single frame and
              exits (CI-friendly); --interval sets the refresh cadence
    fit       profile a built-in application on the machine model and
              print its fitted polynomial spec (pipe to a file, then use
              'map' / 'simulate' on it)
    template  print an annotated spec file to start from

OBSERVABILITY (simulate, demo, load, doctor):
    --serve <addr>        expose live OpenMetrics on http://<addr>/metrics
                          (plus /snapshot.json, /recorder.jsonl, and —
                          per command — /journeys.jsonl, /events.jsonl,
                          /model.json) while the command runs; <addr>
                          like 127.0.0.1:9184, port 0 picks a free port
                          (printed to stderr)
    --hold <secs>         keep the server up this long after the run
                          (default with --serve: hold until interrupted)
    --recorder-out <f>    write flight-recorder samples (counter rates,
                          gauges over time) as JSON lines to <f>
";

const TEMPLATE: &str = "\
# pipemap pipeline spec
# time model: f(p) = C1 + C2/p + C3*p   (see the paper, section 5)

procs 64              # available processors
mem_per_proc 500000   # bytes per processor
replication on        # 'off' disables module replication

task front
  exec poly 0.02 1.50 0.001      # C1 C2 C3
  memory 16000 1310720           # resident distributed (bytes)

edge
  icom poly 0.0 0.04 0.0         # redistribution when co-located
  ecom poly 0.002 0.08 0.08 0 0  # transfer(ps, pr) when split

task back
  exec table 1:0.50 4:0.16 16:0.07   # measured profile, interpolated
  replicable no                      # stateful: single instance only
  min_procs 2
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker dispatch: `pipemap __worker ...` re-enters this very
    // binary as a data-plane worker process (see exec::worker_command).
    if args.first().map(String::as_str) == Some("__worker") {
        std::process::exit(pipemap_exec::worker_main(&args[1..]));
    }
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("map") => cmd_map(rest),
        Some("calibrate") => cmd_calibrate(rest),
        Some("explain") => cmd_explain(rest),
        Some("simulate") => cmd_simulate(rest),
        Some("demo") => cmd_demo(rest),
        Some("bench") => cmd_bench(rest),
        Some("load") => cmd_load(rest),
        Some("doctor") => cmd_doctor(rest),
        Some("resolve") => cmd_resolve(rest),
        Some("top") => cmd_top(rest),
        Some("fit") => cmd_fit(rest),
        Some("template") => Cli::new(rest).positionals().map(|[]| print!("{TEMPLATE}")),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Cursor over one command's arguments. [`Cli::flag`] hands out the flags
/// in order and sets the positionals aside, so flags may come before or
/// after them; a flag's value is the argument right after it, whatever it
/// looks like.
struct Cli<'a> {
    args: std::slice::Iter<'a, String>,
    positionals: Vec<&'a str>,
}

impl<'a> Cli<'a> {
    fn new(args: &'a [String]) -> Self {
        Self {
            args: args.iter(),
            positionals: Vec::new(),
        }
    }

    /// The next argument starting with `-`, or `None` once all are read.
    fn flag(&mut self) -> Option<&'a str> {
        for a in self.args.by_ref() {
            if a.starts_with('-') {
                return Some(a.as_str());
            }
            self.positionals.push(a);
        }
        None
    }

    /// The value after `flag`, converted by `convert`; `"{flag} needs
    /// {hint}"` when it is missing or `convert` refuses it.
    fn value_with<T>(
        &mut self,
        flag: &str,
        hint: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.args
            .next()
            .and_then(|v| convert(v))
            .ok_or_else(|| format!("{flag} needs {hint}"))
    }

    fn value(&mut self, flag: &str, hint: &str) -> Result<String, String> {
        self.value_with(flag, hint, |v| Some(v.to_string()))
    }

    fn parse<T: FromStr>(&mut self, flag: &str, hint: &str) -> Result<T, String> {
        self.value_with(flag, hint, |v| v.parse().ok())
    }

    /// [`Cli::parse`], refusing the values `ok` rejects.
    fn parse_if<T: FromStr>(
        &mut self,
        flag: &str,
        hint: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        self.value_with(flag, hint, |v| v.parse().ok().filter(ok))
    }

    /// A count of at least one.
    fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        self.parse_if(flag, "an integer >= 1", |n| *n >= T::from(1))
    }

    /// `--report json`, the one report format.
    fn report(&mut self, flag: &str) -> Result<bool, String> {
        match self.value(flag, "a format (json)")?.as_str() {
            "json" => Ok(true),
            other => Err(format!("unsupported report format '{other}' (only 'json')")),
        }
    }

    /// The positionals, padded with `None` to `N`, once the flags are
    /// taken: a flag left over or a positional beyond `N` is unexpected.
    fn positionals<const N: usize>(mut self) -> Result<[Option<&'a str>; N], String> {
        if let Some(flag) = self.flag() {
            return Err(unexpected(flag));
        }
        match self.positionals.get(N) {
            Some(extra) => Err(unexpected(extra)),
            None => Ok(std::array::from_fn(|i| self.positionals.get(i).copied())),
        }
    }
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument '{arg}'")
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Read and parse a spec file; a parse error reads `file:line ...`.
fn read_spec(file: &str) -> Result<Problem, String> {
    parse_spec(&read(file)?).map_err(|e| format!("{file}:{e}"))
}

/// Parse a mapping like `0-0:8x3,1-2:10x4` and check it fits `problem`.
fn valid_mapping(problem: &Problem, text: &str) -> Result<Mapping, String> {
    let mapping = parse_mapping(text).map_err(|e| format!("bad mapping: {e}"))?;
    pipemap_chain::validate(problem, &mapping)
        .map_err(|e| format!("mapping invalid for this problem: {e}"))?;
    Ok(mapping)
}

/// A comma-separated list; `None` if any item does not parse.
fn parse_list<T: FromStr>(text: &str) -> Option<Vec<T>> {
    text.split(',').map(|b| b.trim().parse().ok()).collect()
}

fn cmd_map(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let (mut greedy_only, mut json) = (false, false);
    let (mut latency_floor, mut procs_target): (Option<f64>, Option<f64>) = (None, None);
    let (mut calibration, mut edge_bytes) = (None, None);
    while let Some(flag) = cli.flag() {
        match flag {
            "--greedy-only" => greedy_only = true,
            "--report" => json = cli.report(flag)?,
            "--calibration" => calibration = Some(cli.value(flag, "a file path")?),
            "--edge-bytes" => {
                let hint = "a comma-separated byte list like 8192,1024";
                edge_bytes = Some(cli.value_with(flag, hint, |v| {
                    parse_list::<f64>(v).filter(|b| b.iter().all(|b| *b >= 0.0))
                })?);
            }
            "--latency-floor" => {
                let hint = "a finite throughput >= 0";
                latency_floor =
                    Some(cli.parse_if(flag, hint, |t: &f64| t.is_finite() && *t >= 0.0)?);
            }
            "--min-procs" => {
                let hint = "a finite throughput target > 0";
                procs_target = Some(cli.parse_if(flag, hint, |t: &f64| t.is_finite() && *t > 0.0)?);
            }
            other => return Err(unexpected(other)),
        }
    }
    let [file] = cli.positionals()?;
    let file = file.ok_or_else(|| format!("map needs a spec file\n\n{USAGE}"))?;
    let mut problem = read_spec(file)?;

    // Re-price external transfers from a measured transport calibration:
    // edge i's f_ecom becomes the constant per_msg + per_byte * bytes_i,
    // replacing the spec's assumed polynomial.
    match (calibration, edge_bytes) {
        (None, None) => {}
        (Some(path), Some(bytes)) => {
            let cal = TransportCalibration::parse(&read(&path)?)?;
            let nedges = problem.chain.edges().len();
            if bytes.len() != nedges {
                return Err(format!(
                    "--edge-bytes has {} entries but the chain has {nedges} edges",
                    bytes.len()
                ));
            }
            let tasks = problem.chain.tasks().to_vec();
            let edges: Vec<pipemap_chain::Edge> = problem
                .chain
                .edges()
                .iter()
                .zip(&bytes)
                .map(|(e, b)| {
                    pipemap_chain::Edge::new(
                        e.icom.clone(),
                        pipemap_model::PolyEcom::new(cal.ecom_seconds(*b), 0.0, 0.0, 0.0, 0.0),
                    )
                })
                .collect();
            problem.chain = pipemap_chain::TaskChain::new(tasks, edges);
        }
        _ => return Err("--calibration and --edge-bytes must be given together".into()),
    }

    if json {
        // Count solver work (DP cells, lookups, prunings, wall time) in
        // the global metrics registry; snapshotted into the report below.
        pipemap_obs::install_global(pipemap_obs::Registry::new());
    } else {
        println!(
            "{}: {} tasks on {} processors ({} bytes/proc)\n",
            file,
            problem.num_tasks(),
            problem.total_procs,
            problem.mem_per_proc
        );
    }
    // The heuristic starts from singleton floors, so it can fail where a
    // merged module fits; only when no solver maps the chain is it an error.
    let mut solutions = Vec::new();
    let mut failure = None;
    match cluster_heuristic(&problem, GreedyOptions::adaptive()) {
        Ok(greedy) => solutions.push(("greedy", greedy)),
        Err(e) => failure = Some(e),
    }
    if !greedy_only {
        if let Some(e) = &failure {
            eprintln!("greedy mapping failed: {e}");
        }
        match dp_mapping(&problem) {
            Ok(optimal) => solutions.push(("optimal", optimal)),
            Err(e) => {
                eprintln!("optimal mapping failed: {e}");
                failure = Some(e);
            }
        }
        // Free replication degrees (an extension beyond the paper's
        // maximal-replication rule): report only when it differs.
        if let Ok(free) = dp_mapping_free(&problem) {
            solutions.push(("free_replication", free));
        }
    }
    if let (None, Some(e)) = (solutions.first(), failure) {
        return Err(format!("mapping failed: {e}"));
    }
    let latency_sol = latency_floor.and_then(|floor| match best_latency_mapping(&problem, floor) {
        Ok(sol) => Some((floor, sol)),
        Err(e) => {
            eprintln!("no mapping reaches {floor} data sets/s: {e}");
            None
        }
    });
    let procs_sol = procs_target.and_then(|target| match min_procs_mapping(&problem, target) {
        Ok(sol) => Some((target, sol)),
        Err(e) => {
            eprintln!("no budget reaches {target} data sets/s: {e}");
            None
        }
    });

    if json {
        let metrics = pipemap_obs::global_registry().map(|r| r.snapshot());
        let mut doc = map_report_json(file, &problem, &solutions, metrics.as_ref());
        if let Some((floor, sol)) = &latency_sol {
            let mut o = pipemap_obs::Value::object();
            o.set("mapping", mapping_json(&problem, &sol.mapping));
            o.set("latency_s", sol.latency);
            o.set("throughput", sol.throughput);
            o.set("floor", *floor);
            doc.set("latency", o);
        }
        if let Some((target, sol)) = &procs_sol {
            let mut o = pipemap_obs::Value::object();
            o.set("mapping", mapping_json(&problem, &sol.solution.mapping));
            o.set("procs", sol.procs);
            o.set("throughput", sol.solution.throughput);
            o.set("target", *target);
            doc.set("min_procs", o);
        }
        println!("{}", doc.to_json_pretty());
        return Ok(());
    }

    for (label, sol) in &solutions {
        let tag = match *label {
            "greedy" => "greedy   ",
            "optimal" => "optimal  ",
            _ => "free-rep ",
        };
        println!(
            "{tag}: {}  -> {:.3} data sets/s",
            render_mapping(&problem, &sol.mapping),
            sol.throughput
        );
    }
    if let Some((floor, sol)) = &latency_sol {
        println!(
            "latency  : {}  -> {:.3}s latency at {:.3} data sets/s (floor {:.3})",
            render_mapping(&problem, &sol.mapping),
            sol.latency,
            sol.throughput,
            floor
        );
    }
    if let Some((target, sol)) = &procs_sol {
        println!(
            "procs    : {}  -> {} processors sustain {:.3} data sets/s (target {:.3})",
            render_mapping(&problem, &sol.solution.mapping),
            sol.procs,
            sol.solution.throughput,
            target
        );
    }
    Ok(())
}

fn cmd_calibrate(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let mut sizes: Vec<usize> = vec![1024, 8192, 65536, 262144];
    let (mut messages, mut batch): (u64, usize) = (2048, 32);
    let mut out: Option<String> = None;
    while let Some(flag) = cli.flag() {
        match flag {
            "--sizes" => {
                let hint = ">= 2 comma-separated payload sizes";
                sizes = cli.value_with(flag, hint, |v| parse_list(v).filter(|s| s.len() >= 2))?;
            }
            "--messages" => messages = cli.count(flag)?,
            "--batch" => batch = cli.count(flag)?,
            "--out" => out = Some(cli.value(flag, "a file path")?),
            other => return Err(unexpected(other)),
        }
    }
    cli.positionals::<0>()?;
    if !pipemap_exec::worker_probe() {
        return Err("calibrate: worker binary not reachable (set PIPEMAP_WORKER_BIN)".into());
    }
    let mut samples = Vec::with_capacity(sizes.len());
    for &size in &sizes {
        let m = pipemap_exec::measure_transport(size, messages, batch)
            .map_err(|e| format!("calibrate: measuring {size} B failed: {e}"))?;
        eprintln!(
            "calibrate: {size} B x {messages} msgs -> {:.3} µs/msg ({:.3}s total)",
            m.seconds_per_message * 1e6,
            m.elapsed_s
        );
        samples.push(pipemap_profile::CalibrationSample {
            payload_bytes: size as f64,
            seconds_per_message: m.seconds_per_message,
        });
    }
    let cal = TransportCalibration::fit(&samples)
        .ok_or("calibrate: fit failed (need >= 2 distinct payload sizes)")?;
    eprintln!(
        "calibrate: per_msg {:.3} µs, per_byte {:.4} ns (r2 {:.4})",
        cal.per_msg_s * 1e6,
        cal.per_byte_s * 1e9,
        cal.r2
    );
    let doc = cal.to_json();
    match &out {
        Some(path) => {
            write(path, &doc)?;
            eprintln!("wrote calibration to {path}");
        }
        None => print!("{doc}"),
    }
    Ok(())
}

/// Shared `--serve` / `--hold` / `--recorder-out` flags.
#[derive(Clone, Debug, Default)]
struct ObsFlags {
    serve: Option<String>,
    hold: Option<f64>,
    recorder_out: Option<String>,
}

impl ObsFlags {
    /// Take `flag` if it is one of ours; any other flag is unexpected.
    fn parse(&mut self, flag: &str, cli: &mut Cli<'_>) -> Result<(), String> {
        match flag {
            "--serve" => self.serve = Some(cli.value(flag, "an address")?),
            "--hold" => self.hold = Some(cli.parse(flag, "a duration in seconds")?),
            "--recorder-out" => self.recorder_out = Some(cli.value(flag, "a file path")?),
            other => return Err(unexpected(other)),
        }
        Ok(())
    }

    fn active(&self) -> bool {
        self.serve.is_some() || self.recorder_out.is_some()
    }
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    use pipemap_tool::{explain, explain_json, explain_trace_json, render_explanation};
    let mut cli = Cli::new(args);
    let mut json = false;
    let (mut out, mut trace_out) = (None, None);
    let mut opts = pipemap_tool::ExplainOptions::default();
    while let Some(flag) = cli.flag() {
        match flag {
            "--assignment" => opts.cluster = false,
            "--report" => json = cli.report(flag)?,
            "--out" => out = Some(cli.value(flag, "a file path")?),
            "--trace-out" => trace_out = Some(cli.value(flag, "a file path")?),
            "--robustness" => {
                let trials = cli.parse_if(flag, "a positive trial count", |&n| n > 0)?;
                opts.robustness_trials = Some(trials);
            }
            "--spread" => {
                let hint = "a non-negative fraction (e.g. 0.1)";
                opts.spread = cli.parse_if(flag, hint, |v: &f64| *v >= 0.0 && v.is_finite())?;
            }
            "--seed" => opts.seed = cli.parse(flag, "an integer")?,
            other => return Err(unexpected(other)),
        }
    }
    let [file] = cli.positionals()?;
    let file = file.ok_or_else(|| format!("explain needs a spec file\n\n{USAGE}"))?;
    let problem = read_spec(file)?;
    // Margins land in the global registry as solver.margin.* gauges.
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let ex = explain(&problem, &opts).map_err(|e| format!("explain failed: {e}"))?;
    let doc = explain_json(file, &problem, &ex);
    if let Some(path) = &out {
        write(path, doc.to_json_pretty())?;
        eprintln!("wrote margin spec to {path} (feed to 'doctor --margins')");
    }
    if let Some(path) = &trace_out {
        write(path, explain_trace_json(&problem, &ex).to_json_pretty())?;
        eprintln!("wrote decision trace to {path}");
    }
    if json {
        println!("{}", doc.to_json_pretty());
    } else {
        print!("{}", render_explanation(&problem, &ex));
    }
    Ok(())
}

fn cmd_resolve(args: &[String]) -> Result<(), String> {
    use pipemap_core::{CostDeltas, ResolveArtifact, SolveOptions};
    use pipemap_tool::{doctor_factors, parse_drift, render_resolve, resolve_report_json};
    let mut cli = Cli::new(args);
    let (mut assignment, mut json) = (false, false);
    let mut drift_specs: Vec<String> = Vec::new();
    let mut doctor_file: Option<String> = None;
    while let Some(flag) = cli.flag() {
        match flag {
            "--assignment" => assignment = true,
            "--drift" => drift_specs.push(cli.value(flag, "a spec like exec:1=1.5")?),
            "--doctor" => {
                let hint = "a report file (from 'doctor --report json')";
                doctor_file = Some(cli.value(flag, hint)?);
            }
            "--report" => json = cli.report(flag)?,
            other => return Err(unexpected(other)),
        }
    }
    let [file] = cli.positionals()?;
    let file = file.ok_or_else(|| format!("resolve needs a spec file\n\n{USAGE}"))?;
    if drift_specs.is_empty() && doctor_file.is_none() {
        return Err(
            "resolve needs a drift source: --drift factors and/or --doctor <report.json>".into(),
        );
    }
    let problem = read_spec(file)?;
    // solver.resolve.* counters and gauges land in the global registry.
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let opts = SolveOptions::default();
    let artifact = if assignment {
        ResolveArtifact::build_assignment(&problem, &opts)
    } else {
        ResolveArtifact::build(&problem, &opts)
    }
    .map_err(|e| format!("cold solve failed: {e}"))?;
    // Doctor factors first (per-module, collapsed onto the artifact's
    // own mapping), then explicit --drift factors override on top.
    let k = problem.num_tasks();
    let mut deltas = CostDeltas::identity(k);
    if let Some(path) = &doctor_file {
        let doc = pipemap_obs::Value::parse(&read(path)?)
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
        let (service, transport) = doctor_factors(&doc).map_err(|e| format!("{path}: {e}"))?;
        deltas =
            pipemap_doctor::stage_deltas(&artifact.solution().mapping, k, &service, &transport);
    }
    let explicit = parse_drift(k, &drift_specs)?;
    for (i, &g) in explicit.exec().iter().enumerate() {
        if g != 1.0 {
            deltas.set_exec(i, g);
        }
    }
    for (e, &g) in explicit.icom().iter().enumerate() {
        if g != 1.0 {
            deltas.set_icom(e, g);
        }
    }
    for (e, &g) in explicit.ecom().iter().enumerate() {
        if g != 1.0 {
            deltas.set_ecom(e, g);
        }
    }
    let run = pipemap_tool::run_resolve_on(&artifact, &deltas)
        .map_err(|e| format!("resolve failed: {e}"))?;
    if json {
        println!(
            "{}",
            resolve_report_json(&problem, &run, &deltas).to_json_pretty()
        );
    } else {
        print!("{}", render_resolve(&problem, &run));
    }
    if !run.verified {
        return Err("resolve result does not match the cold solve — this is a bug".into());
    }
    Ok(())
}

/// Install the global registry and start the flight recorder and metrics
/// server the flags ask for. A journey collector, when given, is exposed
/// at `/journeys.jsonl` so `pipemap doctor --attach` can scrape a live
/// run; an event log and model publisher likewise back `/events.jsonl`
/// and `/model.json` for `pipemap top --attach`. Returns
/// `(flight, server)`.
fn start_observability(
    flags: &ObsFlags,
    journeys: Option<&pipemap_obs::JourneyCollector>,
    events: Option<&pipemap_obs::EventLog>,
    model: Option<&pipemap_obs::ModelPublisher>,
) -> Result<(Option<FlightRecorder>, Option<MetricsServer>), String> {
    if !flags.active() {
        return Ok((None, None));
    }
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let registry = pipemap_obs::global_registry().expect("registry installed");
    // Sample fast enough that short runs still record a useful timeline.
    let flight = FlightRecorder::start(
        registry,
        RecorderConfig {
            interval: Duration::from_millis(50),
            ..RecorderConfig::default()
        },
    );
    let server = match &flags.serve {
        Some(addr) => {
            let s = pipemap_obs::serve_observatory(
                addr.as_str(),
                registry,
                Some(&flight),
                journeys,
                events,
                model,
            )
            .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            let mut routes = String::from("/snapshot.json, /recorder.jsonl");
            if journeys.is_some() {
                routes.push_str(", /journeys.jsonl");
            }
            if events.is_some() {
                routes.push_str(", /events.jsonl");
            }
            if model.is_some() {
                routes.push_str(", /model.json");
            }
            eprintln!(
                "serving metrics on http://{}/metrics (also {routes})",
                s.addr()
            );
            Some(s)
        }
        None => None,
    };
    Ok((Some(flight), server))
}

/// Finish an observed run: take a final sample, write the recorder dump,
/// and honour `--hold` before shutting the server down.
fn finish_observability(
    flags: &ObsFlags,
    mut flight: Option<FlightRecorder>,
    server: Option<MetricsServer>,
) -> Result<(), String> {
    if let Some(f) = flight.as_mut() {
        f.stop();
    }
    if let (Some(f), Some(path)) = (flight.as_ref(), flags.recorder_out.as_deref()) {
        write(path, f.to_jsonl())?;
        eprintln!(
            "wrote flight-recorder samples to {path} ({} samples)",
            f.samples().len()
        );
    }
    if let Some(mut s) = server {
        match flags.hold {
            Some(secs) => std::thread::sleep(Duration::from_secs_f64(secs.max(0.0))),
            None => {
                eprintln!("run finished; holding metrics server open (Ctrl-C to exit)");
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        s.shutdown();
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let mut datasets = 400usize;
    let mut noise: Option<f64> = None;
    let mut seed = 0x51e5u64;
    let mut json = false;
    let mut journey_out: Option<String> = None;
    let mut journey_sample = 1u64;
    let mut obs_flags = ObsFlags::default();
    while let Some(flag) = cli.flag() {
        match flag {
            "--datasets" => datasets = cli.parse(flag, "an integer")?,
            "--journey-out" => journey_out = Some(cli.value(flag, "a file path")?),
            "--journey-sample" => journey_sample = cli.count(flag)?,
            "--noise" => noise = Some(cli.parse(flag, "a spread in [0, 1)")?),
            "--seed" => seed = cli.parse(flag, "an integer")?,
            "--report" => json = cli.report(flag)?,
            other => obs_flags.parse(other, &mut cli)?,
        }
    }
    let [Some(file), Some(mapping_str)] = cli.positionals()? else {
        return Err(format!("simulate needs: <spec-file> <mapping>\n\n{USAGE}"));
    };
    let problem = read_spec(file)?;
    let mapping = valid_mapping(&problem, mapping_str)?;
    // Journeys are recorded in virtual simulated time; the same doctor
    // pipeline that reads real-executor journeys analyses them.
    let journeys = journey_out.as_ref().map(|_| {
        pipemap_obs::JourneyCollector::new(
            pipemap_obs::JourneyConfig::default().with_sample(journey_sample),
        )
    });
    let (flight, server) = start_observability(&obs_flags, journeys.as_ref(), None, None)?;
    let analytic = pipemap_chain::throughput(&problem.chain, &mapping);
    let mut cfg = pipemap_sim::SimConfig::with_datasets(datasets);
    if let Some(s) = noise {
        cfg = cfg.with_noise(s, seed);
    }
    if let Some(col) = &journeys {
        cfg = cfg.with_journeys(col.clone());
    }
    let result = pipemap_sim::simulate(&problem.chain, &mapping, &cfg);
    if let (Some(path), Some(col)) = (&journey_out, &journeys) {
        let log = pipemap_doctor::JourneyLog {
            source: "simulate".to_string(),
            sample: col.sample(),
            dropped: col.dropped(),
            model: Some(pipemap_doctor::ModelPrediction::from_chain(
                &problem.chain,
                &mapping,
            )),
            events: col.snapshot(),
        };
        write(path, log.to_jsonl())?;
        eprintln!(
            "wrote {} journey events to {path} (1-in-{} sampling)",
            log.events.len(),
            log.sample
        );
    }
    if json {
        let doc = simulate_report_json(
            file, &problem, &mapping, datasets, noise, seed, analytic, &result,
        );
        println!("{}", doc.to_json_pretty());
    } else {
        println!("mapping  : {}", render_mapping(&problem, &mapping));
        println!("analytic : {analytic:.3} data sets/s");
        println!(
            "simulated: {:.3} data sets/s over {} data sets",
            result.throughput, datasets
        );
        println!(
            "latency  : mean {:.3}s  p50 {:.3}s  p90 {:.3}s  p99 {:.3}s",
            result.latency.mean, result.latency.p50, result.latency.p90, result.latency.p99
        );
        for (i, u) in result.utilization.iter().enumerate() {
            println!("module {i}: utilisation {:.0}%", 100.0 * u);
        }
    }
    finish_observability(&obs_flags, flight, server)
}

fn builtin_app(name: Option<&str>) -> Option<pipemap_machine::AppWorkload> {
    match name {
        Some("fft-hist-256") => Some(fft_hist(FftHistConfig::n256())),
        Some("fft-hist-512") => Some(fft_hist(FftHistConfig::n512())),
        Some("radar") => Some(radar(RadarConfig::paper())),
        Some("stereo") => Some(stereo(StereoConfig::paper())),
        _ => None,
    }
}

fn iwarp(systolic: bool) -> MachineConfig {
    if systolic {
        MachineConfig::iwarp_systolic()
    } else {
        MachineConfig::iwarp_message()
    }
}

fn cmd_fit(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let mut systolic = false;
    while let Some(flag) = cli.flag() {
        match flag {
            "--systolic" => systolic = true,
            other => return Err(unexpected(other)),
        }
    }
    let [name] = cli.positionals()?;
    let app =
        builtin_app(name).ok_or("unknown app; pick fft-hist-256, fft-hist-512, radar, stereo")?;
    let truth = pipemap_machine::synthesize_problem(&app, &iwarp(systolic));
    let fitted = pipemap_profile::training::fit_problem(
        &truth,
        &pipemap_profile::TrainingConfig::for_procs(truth.total_procs),
    );
    let text = pipemap_tool::render_spec(&fitted)
        .map_err(|e| format!("cannot serialise fitted model: {e}"))?;
    print!("{text}");
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let (mut systolic, mut metrics) = (false, false);
    let mut trace_out: Option<String> = None;
    let mut obs_flags = ObsFlags::default();
    while let Some(flag) = cli.flag() {
        match flag {
            "--systolic" => systolic = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(cli.value(flag, "a file path")?),
            other => obs_flags.parse(other, &mut cli)?,
        }
    }
    let [name] = cli.positionals()?;
    let app =
        builtin_app(name).ok_or("unknown demo; pick fft-hist-256, fft-hist-512, radar, stereo")?;
    if metrics {
        // Capture solver counters and wall-time histograms while the
        // mappers run; snapshotted into the JSON report.
        pipemap_obs::install_global(pipemap_obs::Registry::new());
    }
    let (mut flight, server) = start_observability(&obs_flags, None, None, None)?;
    let options = MapperOptions::default();
    let report =
        auto_map(&app, &iwarp(systolic), &options).map_err(|e| format!("demo failed: {e}"))?;
    // Traced re-run of the chosen mapping on the ground-truth costs (same
    // noise seed as the first measurement run) — the run the per-stage
    // metrics and the Chrome trace describe.
    let traced = (metrics || trace_out.is_some()).then(|| {
        let mut cfg = pipemap_sim::SimConfig::with_datasets(options.sim_datasets).with_trace();
        if let Some((s, seed)) = options.measurement_noise {
            cfg = cfg.with_noise(s, seed);
        }
        pipemap_sim::simulate(&report.truth.chain, report.chosen(), &cfg)
    });
    if let Some(path) = &trace_out {
        let trace = traced
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .expect("trace collected");
        // With a flight recorder running, append its counter tracks
        // (wall-clock timeline) to the simulated-time slices; stop it
        // first so the dump includes a final sample.
        let doc = match flight.as_mut() {
            Some(f) => {
                f.stop();
                let (events, lanes) = pipemap_sim::trace_events(trace);
                pipemap_obs::chrome_trace_with_counters(&events, &lanes, f.counter_track_events())
            }
            None => pipemap_sim::chrome_trace_json(trace),
        };
        write(path, doc.to_json_pretty())?;
        eprintln!(
            "wrote Chrome trace to {path} ({} activities)",
            trace.activities.len()
        );
    }
    if metrics {
        let snapshot = pipemap_obs::global_registry().map(|r| r.snapshot());
        let traced = traced.as_ref().expect("traced run exists");
        println!(
            "{}",
            demo_report_json(&report, traced, snapshot.as_ref()).to_json_pretty()
        );
    } else {
        println!("{}", render_report(&report));
    }
    finish_observability(&obs_flags, flight, server)
}

/// A `--rate` ramp `lo:hi:steps` with `0 < lo <= hi` and `steps >= 2`.
fn parse_ramp(text: &str) -> Option<(f64, f64, usize)> {
    let mut parts = text.split(':');
    let lo: f64 = parts.next()?.parse().ok()?;
    let hi: f64 = parts.next()?.parse().ok()?;
    let steps: usize = parts.next()?.parse().ok()?;
    (parts.next().is_none() && lo > 0.0 && hi >= lo && steps >= 2).then_some((lo, hi, steps))
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    use pipemap_exec::TransportKind;
    use pipemap_tool::{
        load_report_json, parse_duration_s, rate_sweep_json, render_load_summary,
        render_rate_sweep, run_rate_sweep, try_run_configured_load, LoadConfig, Workload,
        MAX_LOAD_QUEUE_DEPTH, MAX_LOAD_REPLICAS, MAX_LOAD_SIZE, MAX_LOAD_THREADS,
    };
    let mut cli = Cli::new(args);
    let mut cfg = LoadConfig::default();
    let mut duration: Option<f64> = None;
    let (mut reference, mut json) = (false, false);
    let mut journey_out: Option<String> = None;
    let mut journey_sample = 1u64;
    let mut sweep: Option<(f64, f64, usize)> = None;
    let mut obs_flags = ObsFlags::default();
    while let Some(flag) = cli.flag() {
        match flag {
            "--rate" => match cli.value(flag, "a rate or a lo:hi:steps ramp")? {
                // Ramp syntax: sweep the offered rate lo..hi in steps.
                v if v.contains(':') => {
                    let ramp = parse_ramp(&v)
                        .ok_or("--rate ramp must be lo:hi:steps with 0 < lo <= hi, steps >= 2")?;
                    sweep = Some(ramp);
                }
                v => {
                    let rate = v.parse().ok().filter(|r: &f64| *r > 0.0);
                    cfg.rate = Some(rate.ok_or("--rate must be positive")?);
                }
            },
            "--transport" => {
                cfg.transport = cli.value_with(flag, "'inproc' or 'uds'", TransportKind::parse)?;
            }
            "--admit-rate" => {
                let rate = cli.parse_if(flag, "a positive number", |r: &f64| *r > 0.0)?;
                cfg.admit_rate = Some(rate);
            }
            "--shed-queue" => cfg.shed_queue = Some(cli.count(flag)?),
            "--calibration" => {
                let path = cli.value(flag, "a file path")?;
                cfg.calibration = Some(TransportCalibration::parse(&read(&path)?)?);
            }
            "--duration" => {
                let hint = "a duration like 2, 2s, or 250ms";
                duration = Some(cli.value_with(flag, hint, parse_duration_s)?);
            }
            "--datasets" => cfg.datasets = Some(cli.parse(flag, "a number")?),
            "--batch" => cfg.batch = cli.count(flag)?,
            "--flush-us" => cfg.flush_us = cli.parse(flag, "a number")?,
            "--queue-depth" => {
                let hint = format!("an integer from 1 to {MAX_LOAD_QUEUE_DEPTH}");
                cfg.queue_depth =
                    cli.parse_if(flag, &hint, |&d| (1..=MAX_LOAD_QUEUE_DEPTH).contains(&d))?;
            }
            "--stages" => cfg.stages = cli.count(flag)?,
            "--size" => {
                let hint = format!("a number up to {MAX_LOAD_SIZE}");
                cfg.size = cli.parse_if(flag, &hint, |&n| n <= MAX_LOAD_SIZE)?;
            }
            "--replicas" => {
                let hint = format!("a number up to {MAX_LOAD_REPLICAS}");
                cfg.replicas = cli.parse_if(flag, &hint, |&r| r <= MAX_LOAD_REPLICAS)?;
            }
            "--threads" => {
                let hint = format!("a number up to {MAX_LOAD_THREADS}");
                cfg.threads = cli.parse_if(flag, &hint, |&t| t <= MAX_LOAD_THREADS)?;
            }
            "--no-pool" => cfg.pool = false,
            "--reference" => reference = true,
            "--journey-out" => journey_out = Some(cli.value(flag, "a file path")?),
            "--journey-sample" => journey_sample = cli.count(flag)?,
            "--report" => json = cli.report(flag)?,
            other => obs_flags.parse(other, &mut cli)?,
        }
    }
    if let [Some(name)] = cli.positionals()? {
        cfg.workload = Workload::parse(name)
            .ok_or_else(|| format!("unexpected argument '{name}' (workloads: micro, fft-hist)"))?;
    }
    // A dataset count is a complete stop condition by itself.
    if duration.is_some() || cfg.datasets.is_some() {
        cfg.duration_s = duration;
    }
    if reference {
        cfg = cfg.reference();
    }
    let uds = cfg.transport == TransportKind::Uds;
    if uds && !pipemap_exec::worker_probe() {
        return Err("--transport uds: worker binary not reachable (set PIPEMAP_WORKER_BIN)".into());
    }

    // Ramp mode: sweep the offered rate and report the saturation knee.
    if let Some((lo, hi, steps)) = sweep {
        let s = run_rate_sweep(&cfg, lo, hi, steps)?;
        if json {
            println!("{}", rate_sweep_json(&cfg, &s).to_json_pretty());
        } else {
            print!("{}", render_rate_sweep(&s));
        }
        return Ok(());
    }

    // Journey tracing: hand every worker thread a sampled sink; the
    // collector also backs /journeys.jsonl when --serve is up, so a
    // doctor can attach to the live run — serving implies collecting.
    // A UDS run samples inside the worker *processes* instead (the
    // events come back in the run's stats channel), so no collector.
    let journeys = (!uds && (journey_out.is_some() || obs_flags.serve.is_some())).then(|| {
        pipemap_obs::JourneyCollector::new(
            pipemap_obs::JourneyConfig::default().with_sample(journey_sample),
        )
    });
    cfg.journeys = journeys.clone();
    if uds && (journey_out.is_some() || obs_flags.active()) {
        cfg.journey_sample = journey_sample;
    }
    // An observed UDS run lights up the cross-process telemetry plane:
    // each worker ships metric deltas, /proc resource gauges, and its
    // sampled journey events back over the telemetry socket, aggregated
    // into the global registry under exec.worker.* so /metrics and
    // `pipemap top` see inside the worker processes. The parent-side
    // sink is sample=1: the workers already sampled.
    let telemetry_journeys = (uds && obs_flags.active()).then(|| {
        cfg.telemetry_us = 100_000;
        let col = pipemap_obs::JourneyCollector::new(
            pipemap_obs::JourneyConfig::default().with_sample(1),
        );
        pipemap_exec::install_telemetry_journeys(col.sink());
        col
    });
    // A served run also gets the full observatory surface: SLO/alert
    // events at /events.jsonl and the per-stage service windows at
    // /model.json.
    let (events, publisher) = if obs_flags.serve.is_some() {
        (
            Some(pipemap_obs::EventLog::default()),
            Some(pipemap_obs::ModelPublisher::default()),
        )
    } else {
        (None, None)
    };
    cfg.events = events.clone();
    if events.is_some() {
        cfg.slo = Some(pipemap_obs::SloConfig::default());
    }
    let (flight, server) = start_observability(
        &obs_flags,
        journeys.as_ref().or(telemetry_journeys.as_ref()),
        events.as_ref(),
        publisher.as_ref(),
    )?;
    // The online observatory: a background thread polling the journey
    // collector and publishing each stage's decayed service window while
    // the load runs.
    let observatory = match (&journeys, &publisher) {
        (Some(j), Some(p)) => {
            let stages = match cfg.workload {
                Workload::Micro => cfg.stages.max(1),
                Workload::FftHist => 3,
            };
            let obs = pipemap_tool::Observatory::new(vec![cfg.threads.max(1); stages], p.clone());
            Some(pipemap_tool::spawn_observatory(
                j.clone(),
                obs,
                Duration::from_millis(250),
            ))
        }
        _ => None,
    };
    let summary = try_run_configured_load(&cfg).map_err(|e| format!("load run failed: {e}"))?;
    // Final ingest and publish so even a short run lands in /model.json before
    // --hold keeps the surface up for scrapers.
    if let Some(h) = observatory {
        h.stop();
    }
    if telemetry_journeys.is_some() {
        pipemap_exec::uninstall_telemetry_journeys();
    }
    // Sampling completeness as a first-class metric: ring overflows on
    // either collector mean the journey timeline under-represents the
    // run, so scrapers (and the doctor) can see how much was lost.
    let journeys_dropped = journeys.as_ref().map_or(0, |c| c.dropped())
        + telemetry_journeys.as_ref().map_or(0, |c| c.dropped());
    pipemap_obs::global().add(pipemap_obs::names::JOURNEY_DROPPED, journeys_dropped);
    if let Some(path) = &journey_out {
        let (sample, events, dropped) = if uds {
            (journey_sample, summary.wire_events.clone(), 0)
        } else if let Some(col) = &journeys {
            (col.sample(), col.snapshot(), col.dropped())
        } else {
            (journey_sample, Vec::new(), 0)
        };
        let log = pipemap_doctor::JourneyLog {
            source: "load".to_string(),
            sample,
            dropped,
            model: pipemap_tool::measured_prediction(&summary),
            events,
        };
        write(path, log.to_jsonl())?;
        eprintln!(
            "wrote {} journey events to {path} (1-in-{} sampling, {} dropped)",
            log.events.len(),
            log.sample,
            dropped
        );
    }
    if json {
        println!("{}", load_report_json(&summary).to_json_pretty());
    } else {
        print!("{}", render_load_summary(&summary));
    }
    finish_observability(&obs_flags, flight, server)?;
    // A load run that served nothing is a failure — CI's stress smoke
    // relies on this to catch a wedged executor.
    if summary.report.completed == 0 && cfg.datasets != Some(0) {
        return Err("load run completed 0 datasets".into());
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    use pipemap_tool::{parse_duration_s, run_top, TopConfig};
    let mut cli = Cli::new(args);
    let mut cfg = TopConfig::default();
    let positive = |v: &str| parse_duration_s(v).filter(|&s| s > 0.0);
    while let Some(flag) = cli.flag() {
        match flag {
            "--attach" => cfg.attach = Some(cli.value(flag, "an address like 127.0.0.1:9184")?),
            "--once" => cfg.once = true,
            "--interval" => {
                let hint = "a positive duration like 1, 0.5s, or 250ms";
                cfg.interval_s = cli.value_with(flag, hint, positive)?;
            }
            "--duration" => {
                let hint = "a positive duration like 5, 5s, or 500ms";
                cfg.duration_s = cli.value_with(flag, hint, positive)?;
            }
            other => return Err(unexpected(other)),
        }
    }
    cli.positionals::<0>()?;
    run_top(&cfg)
}

fn cmd_doctor(args: &[String]) -> Result<(), String> {
    use pipemap_doctor::{
        diagnose_log, online_json, publish, render, render_online, report_json, DoctorOptions,
        JourneyLog, MarginSpec, ModelPrediction,
    };
    let mut cli = Cli::new(args);
    let (mut json, mut online_mode, mut fail_on_drift) = (false, false, false);
    let (mut attach, mut margins_file, mut trace_out) = (None, None, None);
    let (mut spec, mut mapping_str) = (None, None);
    let mut opts = DoctorOptions::default();
    let mut obs_flags = ObsFlags::default();
    while let Some(flag) = cli.flag() {
        match flag {
            "--attach" => attach = Some(cli.value(flag, "an address like 127.0.0.1:9184")?),
            "--fail-on-drift" => fail_on_drift = true,
            "--margins" => {
                let hint = "a 'pipemap explain --report json' file";
                margins_file = Some(cli.value(flag, hint)?);
            }
            "--model" => {
                online_mode = cli.value_with(flag, "a mode (static or online)", |v| match v {
                    "static" => Some(false),
                    "online" => Some(true),
                    _ => None,
                })?;
            }
            "--threshold" => {
                let hint = "a non-negative fraction (e.g. 0.1)";
                opts.margin = cli.parse_if(flag, hint, |v: &f64| *v >= 0.0 && v.is_finite())?;
            }
            "--min-samples" => opts.min_samples = cli.parse(flag, "an integer")?,
            "--spec" => spec = Some(cli.value(flag, "a spec file")?),
            "--mapping" => {
                let hint = "a mapping like '0-0:8x3,1-2:10x4'";
                mapping_str = Some(cli.value(flag, hint)?);
            }
            "--trace-out" => trace_out = Some(cli.value(flag, "a file path")?),
            "--report" => json = cli.report(flag)?,
            other => obs_flags.parse(other, &mut cli)?,
        }
    }
    let text = match (cli.positionals()?, &attach) {
        ([Some(path)], None) => read(path)?,
        // Bounded retry with backoff: an endpoint started moments ago
        // (e.g. `load --serve` backgrounded by a script) becomes
        // reachable within the window instead of failing hard.
        ([None], Some(addr)) => {
            pipemap_tool::http_get_retry(addr, "/journeys.jsonl", pipemap_tool::ATTACH_ATTEMPTS)?
        }
        _ => {
            return Err(format!(
                "doctor needs exactly one of <journeys.jsonl> or --attach <addr>\n\n{USAGE}"
            ))
        }
    };
    let mut log = JourneyLog::parse(&text).map_err(|e| format!("bad journey log: {e}"))?;
    // --spec/--mapping rebuild the prediction from the fitted model
    // instead of trusting the snapshot the producer stamped (e.g. to ask
    // "does this trace fit the spec I *thought* I deployed?").
    match (&spec, &mapping_str) {
        (Some(spec_path), Some(mstr)) => {
            let problem = read_spec(spec_path)?;
            let mapping = valid_mapping(&problem, mstr)?;
            log.model = Some(ModelPrediction::from_chain(&problem.chain, &mapping));
        }
        (None, None) => {}
        _ => return Err("--spec and --mapping must be given together".into()),
    }
    // --margins replaces the fixed near-tie threshold with each stage's
    // exact stability interval from a `pipemap explain` report: drift is
    // flagged exactly when a fitted cost escapes the interval within
    // which the deployed mapping is provably still optimal.
    let margin_spec = match &margins_file {
        Some(path) => Some(MarginSpec::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    let (flight, server) = start_observability(&obs_flags, None, None, None)?;
    let report = diagnose_log(&log, margin_spec.as_ref(), &opts);
    // --model online: the same pass kept a decayed window of each
    // stage's service times (16-dataset half-life, so recent behaviour
    // dominates) and priced drift as the fitted-vs-static residual. This
    // localises a mid-stream cost change that the whole-run means the
    // static verdict averages over would dilute.
    let online = report.online.as_ref().filter(|_| online_mode);
    if online_mode && online.is_none() {
        return Err("--model online found no service observations in the journeys".into());
    }
    if obs_flags.active() {
        publish(&report, &pipemap_obs::global());
    }
    if let Some(path) = &trace_out {
        let names: Vec<String> = report.stages.iter().map(|s| s.name.clone()).collect();
        write(
            path,
            pipemap_obs::chrome_flow_trace(&log.events, &names).to_json_pretty(),
        )?;
        eprintln!("wrote journey flow trace to {path}");
    }
    if json {
        let mut doc = report_json(&report);
        if let Some(d) = &online {
            doc.set("online", online_json(d));
        }
        println!("{}", doc.to_json_pretty());
    } else {
        print!("{}", render(&report));
        if let Some(d) = &online {
            print!("{}", render_online(d));
        }
    }
    finish_observability(&obs_flags, flight, server)?;
    if report.complete == 0 {
        return Err("no complete journeys in the input — nothing to diagnose".into());
    }
    let online_drifted = online.as_ref().is_some_and(|d| d.drifted.is_some());
    if fail_on_drift && (report.drift == Some(true) || online_drifted) {
        return Err("drift detected (exit forced by --fail-on-drift)".into());
    }
    Ok(())
}

fn read_bench_file(path: &str) -> Result<pipemap_obs::Value, String> {
    pipemap_obs::Value::parse(&read(path)?).map_err(|e| format!("{path}: invalid JSON: {e:?}"))
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut cli = Cli::new(args);
    let (mut quick, mut warn_only) = (false, false);
    let (mut out, mut baseline, mut against, mut validate) = (None, None, None, None);
    let mut threshold = None;
    while let Some(flag) = cli.flag() {
        match flag {
            "--quick" => quick = true,
            "--warn-only" => warn_only = true,
            "--out" => out = Some(cli.value(flag, "a file path")?),
            "--compare" => baseline = Some(cli.value(flag, "a baseline bench file")?),
            "--against" => against = Some(cli.value(flag, "a bench file")?),
            "--threshold" => {
                let hint = "a positive fraction (e.g. 0.3)";
                threshold = Some(cli.parse_if(flag, hint, |v: &f64| *v > 0.0)?);
            }
            "--validate" => validate = Some(cli.value(flag, "a bench file")?),
            other => return Err(unexpected(other)),
        }
    }
    cli.positionals::<0>()?;

    // Pure validation mode: no suite run.
    if let Some(path) = &validate {
        validate_bench(&read_bench_file(path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid {}", pipemap_tool::BENCH_SCHEMA);
        return Ok(());
    }

    // Current document: a file (--against) or a fresh suite run.
    let current = match &against {
        Some(path) => read_bench_file(path)?,
        None => {
            eprintln!(
                "running bench suite{} ...",
                if quick { " (quick)" } else { "" }
            );
            let doc = run_bench_suite(&BenchOptions { quick });
            let path = out.unwrap_or_else(|| format!("BENCH_{}.json", git_sha()));
            write(&path, doc.to_json_pretty() + "\n")?;
            eprintln!("wrote {path}");
            doc
        }
    };

    let Some(baseline_path) = &baseline else {
        // No comparison asked for: print the metric values.
        if let Some(metrics) = current.get("metrics").and_then(|m| m.as_object()) {
            for (name, m) in metrics {
                let v = m.get("value").and_then(pipemap_obs::Value::as_f64);
                let unit = m
                    .get("unit")
                    .and_then(pipemap_obs::Value::as_str)
                    .unwrap_or("");
                println!("{name} = {} {unit}", v.unwrap_or(f64::NAN));
            }
        }
        return Ok(());
    };
    let result = compare_bench(&current, &read_bench_file(baseline_path)?, threshold)?;
    print!("{}", result.render());
    let regressions = result.regressions();
    if regressions.is_empty() {
        return Ok(());
    }
    if warn_only {
        eprintln!("warn-only: ignoring {} regression(s)", regressions.len());
        return Ok(());
    }
    // Each line names the unit and both values, so the failure is
    // diagnosable from CI output alone.
    let mut msg = format!("perf regression in {} metric(s):", regressions.len());
    for line in result.regression_details() {
        msg.push_str(&format!("\n  {line}"));
    }
    Err(msg)
}
