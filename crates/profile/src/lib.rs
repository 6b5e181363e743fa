//! # pipemap-profile
//!
//! Estimation of execution behaviour (§5 of the paper): derive the
//! polynomial cost models
//!
//! ```text
//! f_exec(p)      = C1 + C2/p + C3·p
//! f_icom(p)      = C1 + C2/p + C3·p
//! f_ecom(ps, pr) = C1 + C2/ps + C3/pr + C4·ps + C5·pr
//! ```
//!
//! automatically from profiled executions. The paper computes all model
//! parameters from eight training runs; [`training`] mirrors that with a
//! configurable set of sample processor counts, collects (optionally
//! noisy) timings from the ground-truth cost functions, and [`fit`] solves
//! the least-squares problems — with a non-negativity refinement, since a
//! negative coefficient can predict negative times and derail the
//! optimiser. [`linalg`] is the small dense solver underneath (normal
//! equations with partial-pivot Gaussian elimination); no external linear
//! algebra dependency is used.

pub mod calibrate;
pub mod executions;
pub mod fit;
pub mod linalg;
pub mod online;
pub mod resource;
pub mod training;

pub use calibrate::{CalibrationSample, TransportCalibration, CALIBRATION_SCHEMA};
pub use executions::{
    collect_profiles, fit_problem_from_executions, run_execution, training_assignments,
    ExecutionProfile,
};
pub use fit::{fit_ecom, fit_unary, FitOptions, FitReport};
pub use linalg::{least_squares, solve_linear};
pub use online::Decayed;
pub use resource::{sample_self, CpuTracker, ResourceSample};
pub use training::{
    default_training_procs, fit_chain, model_accuracy, profile_chain, AccuracyReport, ProfileData,
    TrainingConfig,
};
