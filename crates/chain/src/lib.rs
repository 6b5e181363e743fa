//! # pipemap-chain
//!
//! Task-chain, mapping, and evaluation types for pipelines of data parallel
//! tasks, following §2 of Subhlok & Vondran (PPoPP 1995).
//!
//! A program is a linear chain of tasks `t1 → t2 → … → tk` acting on a
//! stream of data sets. Each [`Task`] carries an execution-time function, a
//! memory requirement, and a replicability flag; each [`Edge`] between
//! adjacent tasks carries an internal-communication function (used when the
//! endpoints share a processor group) and an external-communication function
//! (used when they run on disjoint groups).
//!
//! A [`Mapping`] clusters the chain into contiguous *modules* and gives each
//! module a replication degree and a per-instance processor count; the
//! [`eval`] module computes per-module response times and the pipeline
//! throughput `1 / max_i (f_i / r_i)` — the one evaluator every solver
//! prices through — and [`validate`] checks structural and resource
//! validity. [`tables::CostTable`] pre-evaluates all cost functions over
//! the processor range so the mapping algorithms in `pipemap-core` run on
//! table lookups.

pub mod chain;
pub mod edge;
pub mod eval;
pub mod mapping;
pub mod problem;
pub mod tables;
pub mod task;
pub mod validate;

pub use chain::{ChainBuilder, TaskChain};
pub use edge::Edge;
pub use eval::{
    bottleneck, bottleneck_module, min_replicas, module_response, module_throughput, throughput,
    ResponseBreakdown,
};
pub use mapping::{Assignment, Mapping, ModuleAssignment};
pub use problem::{Problem, ReplicationPolicy};
pub use tables::CostTable;
pub use task::Task;
pub use validate::{validate, MappingError};

pub use pipemap_model::{Procs, Seconds};
