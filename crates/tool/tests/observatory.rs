//! Acceptance test for the live model observatory: a deterministic DES
//! run whose stage costs are perturbed mid-stream must (a) emit a
//! `bottleneck_change` event as the governing stage moves, (b) refit the
//! online `f_exec` to within 10% of the perturbed truth, and (c) be
//! localised by `pipemap doctor --model online` — both through the
//! library and through the CLI binary on the recorded journey log.

use std::process::Command;

use pipemap_chain::{ChainBuilder, Edge, Mapping, ModuleAssignment, Task, TaskChain};
use pipemap_doctor::{diagnose_log, DoctorOptions, JourneyLog, ModelPrediction};
use pipemap_model::{PolyEcom, PolyUnary};
use pipemap_obs::{EventKind, EventLog, JourneyCollector, JourneyConfig, Value};
use pipemap_sim::{simulate_des, SimConfig};

fn pipemap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipemap"))
}

/// Three stages whose exec costs at the mapping below are 2.5 / 2.2 /
/// 2.1 s — stage 0 governs until the perturbation bites.
fn chain3() -> TaskChain {
    ChainBuilder::new()
        .task(Task::new("a", PolyUnary::new(0.5, 4.0, 0.0)))
        .edge(Edge::new(
            PolyUnary::new(0.1, 0.0, 0.0),
            PolyEcom::new(0.3, 0.5, 0.5, 0.0, 0.0),
        ))
        .task(Task::new("b", PolyUnary::new(0.2, 6.0, 0.0)))
        .edge(Edge::new(
            PolyUnary::new(0.0, 0.0, 0.0),
            PolyEcom::new(0.2, 0.25, 0.25, 0.0, 0.0),
        ))
        .task(Task::new("c", PolyUnary::new(0.1, 2.0, 0.0)))
        .build()
}

fn mapping3() -> Mapping {
    Mapping::new(vec![
        ModuleAssignment::new(0, 0, 1, 2),
        ModuleAssignment::new(1, 1, 1, 3),
        ModuleAssignment::new(2, 2, 1, 1),
    ])
}

#[test]
fn perturbed_des_run_is_tracked_and_localised_end_to_end() {
    // Deterministic (no noise) DES run: stage 1's exec cost triples
    // from data set 100 of 300, moving the bottleneck from stage 0
    // (2.5 s) to stage 1 (6.6 s).
    let journeys = JourneyCollector::new(JourneyConfig::default());
    let events = EventLog::default();
    let cfg = SimConfig::with_datasets(300)
        .with_perturbation(100, 1, 3.0)
        .with_journeys(journeys.clone())
        .with_events(events.clone());
    let _ = simulate_des(&chain3(), &mapping3(), &cfg);

    // (a) The event log saw the bottleneck move to the perturbed stage.
    let evs = events.snapshot();
    let change = evs
        .iter()
        .find(|e| e.kind == EventKind::BottleneckChange)
        .unwrap_or_else(|| panic!("no bottleneck_change in {evs:?}"));
    assert_eq!(change.stage, Some(1), "bottleneck moved to the slow stage");

    // (b) The online refit converges on the perturbed truth. The log
    // embeds the model the mapping was solved with (the unperturbed
    // service means), so the residual reads "live vs deployed model".
    let log = JourneyLog {
        source: "des-acceptance".to_string(),
        sample: 1,
        dropped: 0,
        model: Some(ModelPrediction::from_measured(
            &["a".to_string(), "b".to_string(), "c".to_string()],
            &[1, 1, 1],
            &[2.5, 2.2, 2.1],
        )),
        events: journeys.snapshot(),
    };
    let opts = DoctorOptions {
        margin: 0.10,
        ..DoctorOptions::default()
    };
    let d = diagnose_log(&log, None, &opts)
        .online
        .expect("service observations present");
    assert_eq!(d.drifted, Some(1), "drift localised to the perturbed stage");
    let fitted = d.stages[1].fitted_s;
    let truth = 3.0 * 2.2;
    assert!(
        (fitted - truth).abs() / truth < 0.10,
        "online-fitted f_exec {fitted:.3}s not within 10% of perturbed truth {truth:.3}s"
    );
    // Unperturbed stages stay inside the threshold.
    assert!(d.stages[0].residual < 0.10, "{:?}", d.stages[0]);
    assert!(d.stages[2].residual < 0.10, "{:?}", d.stages[2]);

    // (c) The doctor CLI reaches the same verdict from the recorded
    // log, in both report formats.
    let dir = std::env::temp_dir().join("pipemap-observatory-acceptance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("perturbed.jsonl");
    std::fs::write(&path, log.to_jsonl()).unwrap();

    let out = pipemap()
        .arg("doctor")
        .arg(&path)
        .args(["--model", "online", "--report", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Value::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let online = doc
        .get("online")
        .expect("doctor JSON carries the online section");
    assert_eq!(
        online.get("drifted_stage").and_then(Value::as_f64),
        Some(1.0),
        "{}",
        online.to_json_pretty()
    );
    let stages = online.get("stages").and_then(Value::as_array).unwrap();
    assert_eq!(stages.len(), 3);

    let out = pipemap()
        .arg("doctor")
        .arg(&path)
        .args(["--model", "online"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("drift localised: stage 1"),
        "human report names the drifted stage:\n{text}"
    );
}
