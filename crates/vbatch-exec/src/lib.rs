//! # vbatch-exec
//!
//! The batch *execution layer*: every consumer of the variable-size
//! batched kernels (block-Jacobi setup/apply, the benchmark figure
//! bins, the solvers) goes through two abstractions defined here
//! instead of matching on kernels directly:
//!
//! * [`BatchPlan`] — the *planner*. Given the size distribution of a
//!   batch it picks a kernel per size class following the paper's
//!   crossovers: Gauss-Huard below ≈16 (SP) / ≈23 (DP), the small-size
//!   LU up to 32, multi-problem-per-warp packing for n ≤ 16, and the
//!   two-rows-per-lane blocked LU above 32.
//! * [`Backend`] — the *executor*. Three implementations share one
//!   interface over [`vbatch_core::MatrixBatch`]es:
//!   [`CpuSequential`], [`CpuRayon`] (blocks spread over the
//!   persistent worker pool of `vbatch-rt`), and [`SimtSim`] (the warp-lockstep
//!   functional simulator of `vbatch-simt`).
//!
//! Factorization never aborts on the first singular block: each block
//! carries its own [`BlockStatus`] — which kernel ran, the triaged
//! [`BlockHealth`], an optional condition estimate, and the recovery
//! escalation chain — and singular blocks degrade through a
//! scalar-Jacobi (diagonal) fallback so the preconditioner stays
//! usable. With [`HealthPolicy::Guarded`], ill-conditioned blocks are
//! additionally equilibrated and refactorized ([`health`]), and the
//! [`fault`] module can corrupt batches deterministically to exercise
//! every one of these paths. [`ExecStats`] threads kernel/health
//! histograms, flop counts, failure counts and per-phase timings
//! through every backend.

pub mod apply;
pub mod backend;
pub mod cpu;
pub mod cpu_simd;
pub mod estimate;
pub mod factors;
pub mod fault;
pub mod health;
pub mod plan;
pub mod serve;
pub mod simt;
pub mod stats;
pub mod tri;

pub use apply::PreparedApply;
pub use backend::{backend_for_exec, Backend};
pub use cpu::{CpuRayon, CpuSequential};
pub use cpu_simd::CpuSimd;
pub use estimate::{estimate_planned_factor, PlannedEstimate};
pub use factors::{
    BlockFactor, BlockHealth, BlockStatus, FactorizedBatch, InterleavedLuClass,
    InterleavedLuLowerClass, RecoveryStep,
};
pub use fault::{apply_fault, expected_health, inject_batch, inject_rhs};
pub use plan::{
    gh_crossover_order, BatchPlan, ClassLayout, HealthPolicy, KernelChoice, PlanMethod, PlanParams,
    PrecisionPolicy, SizeClass,
};
pub use serve::SizeClassHandle;
pub use simt::SimtSim;
pub use stats::{ExecStats, Phase};
pub use tri::BlockTriangular;
pub use vbatch_rt::fault::{FaultClass, FaultPlan};
