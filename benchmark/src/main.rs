//! The repo benchmark. One invocation runs one named workload:
//!
//! ```text
//! pipemap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints one JSON object as the last line of standard output. See
//! `benchmark/README.md` for what each workload and metric is.

mod expected;
mod gen;
mod harness;
mod plan;
mod procfs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use expected::Expected;
use harness::Ctx;
use report::{result_line, Outcome, WORKLOADS};

/// Seed used when `--seed` is not given; `expected/seed_1.txt` is its
/// reference file.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        write_expected: false,
        list: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-expected" => parsed.write_expected = true,
            "--list" => parsed.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    Ok(match name {
        "plan_cold" => plan::plan_cold(ctx),
        "plan_replan" => plan::plan_replan(ctx),
        "plan_automap" => plan::plan_automap(ctx),
        "serve_inproc" => serve::serve(ctx, serve::Kind::InProc),
        "serve_uds" => serve::serve(ctx, serve::Kind::Uds),
        "serve_observed" => serve::serve(ctx, serve::Kind::Observed),
        "serve_fft" => serve::serve(ctx, serve::Kind::Fft),
        other => {
            return Err(format!(
                "unknown workload {other}; the workloads are {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Rewrite the reference answers of `seed`: of every planning workload, or
/// of the one named with `--workload`.
fn write_expected(dir: &Path, seed: u64, only: Option<&str>) -> Result<(), String> {
    type Reference = fn(u64) -> Result<Vec<(String, String)>, String>;
    let references: [(&str, Reference); 3] = [
        ("plan_cold", plan::plan_cold_reference),
        ("plan_replan", plan::plan_replan_reference),
        ("plan_automap", plan::plan_automap_reference),
    ];
    for (prefix, reference) in references {
        if only.is_none_or(|w| w == prefix) {
            Expected::rewrite(dir, seed, prefix, reference(seed)?)?;
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    if args.list {
        print!("{}", report::catalogue());
        return Ok(());
    }
    // Everything the benchmark reads and writes is addressed relative to
    // the checkout root it is started from.
    let root = PathBuf::from("benchmark");
    if !root.join("Cargo.toml").is_file() {
        return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
    }
    let expected_dir = root.join("expected");
    if args.write_expected {
        return write_expected(&expected_dir, args.seed, args.workload.as_deref());
    }
    let workload = args.workload.ok_or("--workload is required")?;
    // The wire engine puts its sockets under the temporary directory. Keep
    // that inside the checkout, and relative, so socket paths stay short
    // wherever the checkout is. Nothing else is running yet, so changing
    // the environment is safe.
    let tmp = root.join("out").join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        expected: Expected::load(&expected_dir, args.seed)?,
        out_dir: root.join("out"),
    };
    let outcome = run_workload(&workload, &ctx)?;
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    println!("{}", result_line(&outcome, ctx.trace)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The wire workloads re-execute this binary as their stage workers.
    if args.first().map(String::as_str) == Some("__worker") {
        return ExitCode::from(pipemap_exec::worker_main(&args[1..]) as u8);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipemap-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
