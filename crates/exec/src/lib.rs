//! # pipemap-exec
//!
//! A real, threaded executor for pipelines of data parallel tasks — the
//! shared-memory counterpart of the distributed machine the paper targets.
//! Where `pipemap-sim` predicts behaviour from cost models, this crate
//! actually runs a mapped chain on OS threads:
//!
//! * each module instance is a worker thread owning a bounded input queue;
//! * data sets are dispatched to a module's instances round-robin (the
//!   §2.2 replication semantics: alternate data sets on distinct
//!   instances), and re-ordered by sequence number at the sink;
//! * inside an instance, the module's *data parallelism* is exploited by
//!   splitting the kernel across `procs` worker threads (the analogue of
//!   the processors assigned to the instance).
//!
//! [`kernels`] implements the actual computations of the paper's
//! applications — an iterative radix-2 FFT along rows and, with row-wise
//! butterflies, down columns; histogram with parallel merge; stereo SSD
//! and disparity reduction — so the examples run the real FFT-Hist and
//! stereo pipelines end to end and measure genuine throughput.

pub mod driver;
pub mod executor;
pub mod kernels;
pub mod plan;
pub mod pool;
pub mod proc;
pub mod stage;
pub mod transport;
pub mod wire;

pub use driver::{run_load, LatencySummary, LoadOptions, LoadReport};
pub use executor::{run_pipeline, Feeder, InstanceStats, PipelinePlan, PipelineStats, StagePlan};
pub use plan::{plan_from_mapping, ThreadBudget};
pub use pool::{BufferPool, Lease, PoolStats};
pub use proc::{
    install_telemetry_journeys, measure_transport, run_wire, run_wire_load, run_wire_pipeline,
    uninstall_telemetry_journeys, worker_command, worker_main, worker_metric, worker_probe,
    LinkReport, StageAgg, TransportMeasurement, WireFeeder, WireLoadOptions, WireLoadReport,
    WireRun, WorkerStats, PROBE_TOKEN, WORKER_BIN_ENV,
};
pub use stage::{Data, Stage};
pub use transport::{
    DataBatch, FrameKind, InProcLink, LinkStats, Transport, TransportKind, UdsLink, WireItem,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use wire::{WireKernel, WirePlan, WireScratch, WireStagePlan, WIRE_PLAN_ENV};
