//! # pipemap-tool
//!
//! The end-to-end automatic mapping tool — the role the paper's
//! implementation plays inside the Fx compiler (§6). One call to
//! [`auto_map`] runs the whole methodology:
//!
//! 1. **profile**: time the application's tasks and communication steps on
//!    a small training set of executions (on the machine model);
//! 2. **fit**: derive the §5 polynomial cost models by least squares and
//!    check their accuracy against ground truth;
//! 3. **map**: run the optimal DP mapper and the fast greedy heuristic on
//!    the fitted models, and compare them;
//! 4. **constrain**: find the best mapping that satisfies the machine's
//!    rectangular-subarray (and systolic pathway) constraints;
//! 5. **measure**: execute the chosen mappings in the pipeline simulator
//!    on the *ground-truth* costs, with noise, producing the numbers a
//!    real run would give.
//!
//! [`render`] turns the results into the paper's table rows and the
//! Figure 6-style array diagram.

pub mod bench;
pub mod explain;
pub mod load;
pub mod mapper;
pub mod observatory;
pub mod render;
pub mod report;
pub mod resolve;
pub mod sensitivity;
pub mod spec;
pub mod top;

pub use bench::{
    compare_bench, git_sha, run_bench_suite, validate_bench, BenchOptions, CompareResult,
    BENCH_SCHEMA,
};
pub use explain::{
    explain, explain_json, explain_trace_json, render_explanation, ExplainOptions, Explanation,
    EXPLAIN_SCHEMA,
};
pub use load::{
    load_report_json, measured_prediction, parse_duration_s, rate_sweep_json, render_load_summary,
    render_rate_sweep, run_configured_load, run_rate_sweep, try_run_configured_load, wire_plan_for,
    LoadConfig, LoadSummary, RateSweep, SweepPoint, Workload, KNEE_KEEPUP, MAX_LOAD_QUEUE_DEPTH,
    MAX_LOAD_REPLICAS, MAX_LOAD_SIZE, MAX_LOAD_THREADS,
};
pub use mapper::{auto_map, MapperOptions, MappingReport};
pub use observatory::{spawn_observatory, Observatory, ObservatoryHandle, MODEL_SCHEMA};
pub use render::{render_mapping, render_placement, render_report};
pub use report::{
    demo_report_json, map_report_json, mapping_json, simulate_report_json, stage_metrics_json,
};
pub use resolve::{
    doctor_factors, parse_drift, render_resolve, resolve_report_json, run_resolve, run_resolve_on,
    ResolveRun, RESOLVE_SCHEMA,
};
pub use sensitivity::{perturb_problem, robustness, Robustness};
pub use spec::{parse_mapping, parse_spec, render_spec, SpecError};
pub use top::{
    http_get, http_get_retry, parse_frame, render_frame, run_top, sparkline, Frame, StageGauge,
    TopConfig, TopState, ATTACH_ATTEMPTS,
};
