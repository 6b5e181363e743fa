//! Property test: the out-of-process UDS data plane is an exact drop-in
//! for the in-process executor.
//!
//! For any kernel chain, replication degrees, batch size and queue
//! depth, running the same inputs
//!
//! * in process (each [`WireKernel`] wrapped as a [`Stage`] on the
//!   threaded executor), and
//! * across worker processes over Unix sockets with coalesced frames,
//!
//! must produce bit-identical outputs in the same order: framing,
//! vectored writes and pooled receive buffers change how bytes travel,
//! never what arrives.
//!
//! A second test kills a mid-chain worker partway through a stream and
//! asserts the run returns a clean error instead of hanging; a third
//! checks that a load's count and duration limits combine.

use pipemap_exec::{
    run_pipeline, run_wire_load, run_wire_pipeline, Data, PipelinePlan, StagePlan, WireKernel,
    WireLoadOptions, WirePlan, WireStagePlan,
};
use proptest::prelude::*;

fn env_threads() -> usize {
    std::env::var("PIPEMAP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Point the engine at the dedicated worker binary: the test harness
/// executable cannot act as a worker.
fn set_worker_bin() {
    std::env::set_var(
        pipemap_exec::WORKER_BIN_ENV,
        env!("CARGO_BIN_EXE_pipemap-worker"),
    );
}

/// Word-aligned payload whose content depends on the seed and index.
fn input_bytes(seed: u64, i: usize, words: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(words * 8);
    for j in 0..words {
        let w = seed
            .wrapping_add((i as u64) << 32)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(j as u64);
        v.extend_from_slice(&w.to_le_bytes());
    }
    v
}

fn kernel_chain(salts: &[u64]) -> Vec<WireKernel> {
    salts.iter().map(|&s| WireKernel::Mix { salt: s }).collect()
}

/// The in-process reference: the same kernels on the threaded executor.
fn run_inproc(
    kernels: &[WireKernel],
    replicas: &[usize],
    threads: usize,
    batch: usize,
    queue_depth: usize,
    inputs: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    let stages = kernels
        .iter()
        .zip(replicas)
        .map(|(k, &r)| StagePlan::new(k.stage(), r, threads))
        .collect();
    let plan = PipelinePlan::new(stages)
        .with_batch(batch)
        .with_queue_depth(queue_depth);
    let data: Vec<Data> = inputs.iter().map(|v| Box::new(v.clone()) as Data).collect();
    let (out, stats) = run_pipeline(&plan, data);
    assert_eq!(stats.datasets, inputs.len());
    out.into_iter()
        .map(|d| *d.downcast::<Vec<u8>>().expect("byte output"))
        .collect()
}

fn wire_plan(
    kernels: &[WireKernel],
    replicas: &[usize],
    threads: usize,
    batch: usize,
    queue_depth: usize,
) -> WirePlan {
    let stages = kernels
        .iter()
        .zip(replicas)
        .map(|(k, &r)| WireStagePlan::new(*k, r, threads))
        .collect();
    let mut plan = WirePlan::new(stages);
    plan.batch = batch;
    plan.queue_depth = queue_depth;
    plan
}

proptest! {
    // Each case spawns real processes; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn uds_pipeline_matches_in_process_bit_for_bit(
        salts in prop::collection::vec(any::<u64>(), 1..4),
        replicas_seed in any::<u64>(),
        batch in 1..9usize,
        queue_depth in 1..4usize,
        n in 1..48usize,
        seed in any::<u64>(),
    ) {
        set_worker_bin();
        let threads = env_threads();
        let kernels = kernel_chain(&salts);
        let replicas: Vec<usize> = (0..kernels.len())
            .map(|i| 1 + ((replicas_seed >> (i * 2)) as usize & 1))
            .collect();
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| input_bytes(seed, i, 8)).collect();

        let reference = run_inproc(&kernels, &replicas, threads, batch, queue_depth, &inputs);
        let plan = wire_plan(&kernels, &replicas, threads, batch, queue_depth);
        let (uds, run) = run_wire_pipeline(&plan, inputs.clone())
            .map_err(|e| TestCaseError::fail(format!("wire run: {e}")))?;

        prop_assert_eq!(
            &reference, &uds,
            "batch={} replicas={:?} queue={} n={}",
            batch, replicas, queue_depth, n
        );
        prop_assert_eq!(run.completed, n as u64);
    }
}

/// The real application kernels (FFT rows/cols, histogram) must also
/// survive the trip across processes bit-for-bit.
#[test]
fn fft_hist_chain_matches_in_process() {
    set_worker_bin();
    let threads = env_threads();
    let kernels = [
        WireKernel::FftRows,
        WireKernel::FftCols,
        WireKernel::Histogram {
            bins: 32,
            max: 64.0,
        },
    ];
    let replicas = [2usize, 1, 2];
    // 16x16 complex matrix = 256 complex = 512 f64 words.
    let inputs: Vec<Vec<u8>> = (0..12)
        .map(|i| {
            let mut v = Vec::with_capacity(512 * 8);
            for j in 0..512 {
                let x = ((i * 131 + j) % 97) as f64 / 97.0 * 60.0;
                v.extend_from_slice(&x.to_le_bytes());
            }
            v
        })
        .collect();

    let reference = run_inproc(&kernels, &replicas, threads, 4, 2, &inputs);
    let plan = wire_plan(&kernels, &replicas, threads, 4, 2);
    let (uds, _) = run_wire_pipeline(&plan, inputs).expect("wire run");
    assert_eq!(reference, uds);
}

/// Both telemetry scenarios share the process-global registry, so they
/// run sequentially inside one test: first the clean-run assertions
/// (exact totals), then the worker-kill stale marking on top.
#[test]
fn telemetry_plane_aggregates_and_survives_worker_death() {
    telemetry_aggregates_worker_series_into_parent_registry();
    killed_worker_with_telemetry_marks_series_stale();
}

/// With telemetry on, a uds run must light up the parent's global
/// registry with per-worker (stage, instance, pid) series whose totals
/// reconstruct the run exactly, plus /proc-sampled resource gauges —
/// and the drained-for-telemetry journey ring must still deliver the
/// complete timeline to `WireRun::events`.
fn telemetry_aggregates_worker_series_into_parent_registry() {
    set_worker_bin();
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let threads = env_threads();
    let kernels = [WireKernel::Mix { salt: 3 }, WireKernel::Mix { salt: 5 }];
    let replicas = [2usize, 1];
    let mut plan = wire_plan(&kernels, &replicas, threads, 4, 2);
    plan.journey_sample = 1;
    plan.telemetry_us = 2_000;
    let n = 200usize;
    let inputs: Vec<Vec<u8>> = (0..n).map(|i| input_bytes(17, i, 8)).collect();

    let (out, run) = run_wire_pipeline(&plan, inputs).expect("wire run");
    assert_eq!(out.len(), n);

    let snap = pipemap_obs::global_registry()
        .expect("installed")
        .snapshot();
    for si in 0..kernels.len() {
        let stage_prefix = format!("exec.worker.s{si}");
        let items: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(&stage_prefix) && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(items, n as u64, "stage {si} items over telemetry");
        let service: u64 = snap
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with(&stage_prefix) && k.ends_with(".service_s"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(service, n as u64, "stage {si} service observations");
    }
    // One pid-labelled series per worker process.
    let pids: std::collections::BTreeSet<&str> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.worker.") && k.ends_with(".items"))
        .filter_map(|(k, _)| k.split('.').find(|part| part.starts_with('p')))
        .collect();
    assert_eq!(pids.len(), replicas.iter().sum::<usize>(), "{pids:?}");
    // /proc-sampled resource gauges arrived, and nothing went stale.
    assert!(snap
        .gauges
        .iter()
        .any(|(k, _)| k.starts_with("exec.worker.") && k.ends_with(".rss_bytes")));
    assert!(snap
        .gauges
        .iter()
        .filter(|(k, _)| k.ends_with(".stale"))
        .all(|(_, v)| *v == 0.0));
    // The telemetry thread drains the worker-side journey rings, yet
    // the stdout path still reports every worker-recorded event.
    assert!(run
        .events
        .iter()
        .any(|ev| ev.kind == pipemap_obs::JourneyKind::ServiceStart));
    assert_eq!(
        run.events
            .iter()
            .filter(|ev| ev.kind == pipemap_obs::JourneyKind::Sink)
            .count(),
        n
    );
}

/// A worker killed mid-run with telemetry on must not wedge the parent:
/// the run fails cleanly and the dead worker's series are pinned stale
/// (gauge = 1) instead of silently freezing.
fn killed_worker_with_telemetry_marks_series_stale() {
    set_worker_bin();
    pipemap_obs::install_global(pipemap_obs::Registry::new());
    let kernels = [
        WireKernel::Mix { salt: 7 },
        WireKernel::CrashAfter { n: 50 },
        WireKernel::Mix { salt: 11 },
    ];
    let stages = kernels
        .iter()
        .map(|k| WireStagePlan::new(*k, 1, 1))
        .collect();
    let mut plan = WirePlan::new(stages);
    plan.batch = 4;
    plan.telemetry_us = 1_000;
    let inputs: Vec<Vec<u8>> = (0..500).map(|i| input_bytes(23, i, 8)).collect();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(run_wire_pipeline(&plan, inputs)).ok();
    });
    let res = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("run with a crashing worker must terminate");
    res.expect_err("crashing worker must fail the run");

    let snap = pipemap_obs::global_registry()
        .expect("installed")
        .snapshot();
    let stale: Vec<&(String, f64)> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("exec.worker.s1i0.") && k.ends_with(".stale"))
        .collect();
    assert!(
        stale.iter().any(|(_, v)| *v == 1.0),
        "crashed worker's series must be marked stale, got {stale:?}"
    );
}

/// A count and a duration combine: whichever is reached first stops the
/// load. Paced at 1000/s, the 150 ms limit comes long before the
/// 2000th data set; a generous count still stops the other way round.
#[test]
fn wire_load_stops_at_the_first_limit_reached() {
    set_worker_bin();
    let plan = wire_plan(&kernel_chain(&[1]), &[1], 1, 4, 2);
    let run = |duration_ms: u64, max_datasets: u64| {
        let opts = WireLoadOptions {
            rate: Some(1000.0),
            duration: Some(std::time::Duration::from_millis(duration_ms)),
            max_datasets: Some(max_datasets),
            ..WireLoadOptions::default()
        };
        let r = run_wire_load(
            &plan,
            |i, buf| buf.extend(input_bytes(5, i as usize, 8)),
            opts,
        )
        .expect("wire load");
        assert_eq!(r.completed, r.offered, "every offered data set completes");
        r.offered
    };
    let offered = run(150, 2000);
    assert!(
        offered < 1000,
        "duration ignored: ran to {offered} data sets"
    );
    assert_eq!(run(10_000, 40), 40);
}

/// A worker that dies mid-stream must surface as a clean error — never
/// a hang, never silent truncation.
#[test]
fn killed_worker_mid_run_returns_clean_error() {
    set_worker_bin();
    let kernels = [
        WireKernel::Mix { salt: 7 },
        WireKernel::CrashAfter { n: 20 },
        WireKernel::Mix { salt: 11 },
    ];
    let stages = kernels
        .iter()
        .map(|k| WireStagePlan::new(*k, 1, 1))
        .collect();
    let mut plan = WirePlan::new(stages);
    plan.batch = 4;
    let inputs: Vec<Vec<u8>> = (0..500).map(|i| input_bytes(9, i, 8)).collect();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(run_wire_pipeline(&plan, inputs)).ok();
    });
    // The run must fail within the deadline, not hang.
    let res = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("run with a crashing worker must terminate");
    let err = res.expect_err("crashing worker must fail the run");
    assert!(
        !err.is_empty(),
        "error should describe the failure: {err:?}"
    );
}
