//! # pipemap-sim
//!
//! Discrete-event simulation of a mapped task chain processing a stream of
//! data sets — the stand-in for running the program on the real machine.
//! Where `pipemap-chain`'s evaluator computes the *analytic* steady-state
//! throughput `1 / max_i (f_i / r_i)`, this crate actually *executes* the
//! pipeline event by event and measures the throughput that emerges, so
//! that
//!
//! * the execution model of §2.1 (sender and receiver both occupied for a
//!   transfer's whole duration, instances of a replicated module serving
//!   alternate data sets round-robin) is validated against its closed
//!   form, and
//! * per-activity noise can be injected to model the run-to-run variation
//!   of a real machine, producing the paper's "measured" columns.
//!
//! The simulation follows each instance's serial schedule — receive,
//! execute, send, repeat — with transfers as rendezvous between the two
//! instances involved. A [`trace::Trace`] of every activity can be
//! collected and rendered as the Gantt chart of the paper's Figure 2.

pub mod des_pipeline;
pub mod engine;
pub mod noise;
pub mod pipeline;
pub mod replicate;
pub mod stats;
pub mod trace;
pub mod trace_export;

pub use des_pipeline::simulate_des;
pub use engine::{Engine, SimTime};
pub use noise::NoiseModel;
pub use pipeline::{simulate, steady_state_throughput, CostPerturbation, SimConfig, SimResult};
pub use replicate::{replicate_simulation, ReplicatedResult};
pub use stats::{percent_difference, percentile, Summary};
pub use trace::{Activity, ActivityKind, Trace};
pub use trace_export::{chrome_trace_json, trace_events, trace_jsonl};
