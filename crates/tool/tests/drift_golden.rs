//! Frozen drift reports: the doctor's JSON verdicts and the live
//! observatory's `/model.json`, byte for byte.
//!
//! Four seeded DES journey logs — a healthy run, a run whose middle stage
//! triples mid-stream, the same run without a model header, and a run
//! with incomplete journeys — go through `pipemap doctor --report json`
//! with and without `--model online`; the perturbed log also through the
//! human report of `--model online`. An observatory fed the perturbed
//! run's journeys in growing snapshots publishes one `/model.json`
//! document per round. Every output is compared with its file under
//! `tests/golden/`.
//!
//! After a deliberate change of either report, rewrite the golden files
//! with `PIPEMAP_BLESS=1 cargo test -p pipemap-tool --test drift_golden`
//! and review their diff.

use std::path::PathBuf;
use std::process::Command;

use pipemap_chain::{ChainBuilder, Edge, Mapping, ModuleAssignment, Task, TaskChain};
use pipemap_doctor::{JourneyLog, ModelPrediction};
use pipemap_model::{PolyEcom, PolyUnary};
use pipemap_obs::{JourneyCollector, JourneyConfig, JourneyEvent, JourneyKind, ModelPublisher};
use pipemap_sim::{simulate_des, SimConfig};
use pipemap_tool::Observatory;

/// Three stages at 2.5 / 2.2 / 2.1 s under [`mapping3`].
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

/// Journeys of a 240-data-set DES run with 5% noise; `perturb` triples
/// stage 1 from data set 100 on.
fn des_events(seed: u64, perturb: bool) -> Vec<JourneyEvent> {
    let journeys = JourneyCollector::new(JourneyConfig::default());
    let mut cfg = SimConfig::with_datasets(240)
        .with_noise(0.05, seed)
        .with_journeys(journeys.clone());
    if perturb {
        cfg = cfg.with_perturbation(100, 1, 3.0);
    }
    simulate_des(&chain3(), &mapping3(), &cfg);
    journeys.drain()
}

fn log(events: Vec<JourneyEvent>, header: bool) -> JourneyLog {
    JourneyLog {
        source: "des-golden".to_string(),
        sample: 1,
        dropped: 0,
        model: header.then(|| ModelPrediction::from_chain(&chain3(), &mapping3())),
        events,
    }
}

/// The perturbed run with holes: every fifth data set loses its last
/// stage's service end and its sink, every seventh loses stage 1's
/// service start, so those journeys never complete but keep their other
/// hops.
fn incomplete_events() -> Vec<JourneyEvent> {
    des_events(11, true)
        .into_iter()
        .filter(|e| {
            let last_stage = e.seq % 5 == 3
                && ((e.stage == 2 && e.kind == JourneyKind::ServiceEnd)
                    || e.kind == JourneyKind::Sink);
            let middle = e.seq % 7 == 0 && e.stage == 1 && e.kind == JourneyKind::ServiceStart;
            !(last_stage || middle)
        })
        .collect()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `got` with `tests/golden/<name>`, or rewrite it under
/// `PIPEMAP_BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("PIPEMAP_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir is creatable");
        std::fs::write(&path, got).expect("golden file is writable");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    let diff: Vec<_> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .take(5)
        .collect();
    assert!(
        got == want,
        "{name} differs from its golden file; first differing lines (got, want):\n{diff:#?}"
    );
}

/// `pipemap doctor <log> <args>`'s stdout, which must succeed.
fn doctor(log: &JourneyLog, tag: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("pipemap-drift-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    std::fs::write(&path, log.to_jsonl()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pipemap"))
        .arg("doctor")
        .arg(&path)
        .args(args)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    assert!(
        out.status.success(),
        "doctor {tag} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

#[test]
fn doctor_reports_match_their_golden_files() {
    let cases = [
        ("healthy", log(des_events(42, false), true)),
        ("perturbed", log(des_events(7, true), true)),
        ("headerless", log(des_events(7, true), false)),
        ("incomplete", log(incomplete_events(), true)),
    ];
    for (tag, log) in &cases {
        let json = ["--report", "json"];
        let online = ["--model", "online", "--report", "json"];
        check_golden(&format!("doctor_{tag}.json"), &doctor(log, tag, &json));
        check_golden(
            &format!("doctor_{tag}_online.json"),
            &doctor(log, tag, &online),
        );
    }
    let perturbed = &cases[1].1;
    check_golden(
        "doctor_perturbed_online.txt",
        &doctor(perturbed, "perturbed", &["--model", "online"]),
    );
}

#[test]
fn observatory_model_json_matches_its_golden_file() {
    let events = des_events(7, true);
    let publisher = ModelPublisher::default();
    let mut observatory = Observatory::new(vec![2, 3, 1], publisher.clone());
    let mut docs = String::new();
    // Growing snapshots of the stream, one repeated: the first round sees
    // fewer than four samples a stage, the repeat ingests nothing new.
    for upto in [0u64, 3, 40, 40, 150, 240] {
        let snapshot: Vec<JourneyEvent> = events.iter().filter(|e| e.seq < upto).copied().collect();
        observatory.ingest_events(&snapshot);
        observatory.publish();
        docs.push_str(&publisher.current());
        docs.push('\n');
    }
    check_golden("model_json.jsonl", &docs);
}
