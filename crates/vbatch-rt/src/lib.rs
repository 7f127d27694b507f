//! # vbatch-rt
//!
//! The runtime substrate every other crate in the workspace builds on,
//! written against `std` only so the whole system builds in hermetic
//! (network-less) environments. Its one workspace dependency is
//! `vbatch-trace`, which owns the monotonic clock and the per-thread
//! event rings the pool workers reserve at spawn.
//!
//! * [`par`] — one process-wide persistent worker pool (the CPU
//!   analogue of launching one warp per block): [`par::for_each_index`]
//!   spreads an index range over parked workers plus the caller without
//!   spawning or allocating, and a small rayon-style [`par::prelude`]
//!   maps owned collections and mutable slices on top of it;
//! * [`rng`] — a deterministic splitmix64 PRNG with a `rand`-style
//!   `gen_range` surface, used by the problem generators, IDR's shadow
//!   space and the test harnesses;
//! * [`check`] — a seeded random-case harness for property tests
//!   (deterministic, shrink-free, zero-dependency);
//! * [`fault`] — seeded fault-injection plans assigning corruption
//!   classes to batch members, so every recovery path in the stack is
//!   deterministically exercisable;
//! * [`chaos`] — seeded *runtime* chaos plans (delayed workers,
//!   poisoned tenants, burst arrivals, skewed clocks) driving the
//!   service-level property suites in `vbatch-serve`;
//! * [`sync`] — bounded MPSC channels with non-destructive fullness
//!   probes plus a cooperative [`sync::CancelToken`], the admission /
//!   drain substrate of the batched-solve service;
//! * [`bench`] — a wall-clock micro-benchmark harness for the
//!   `harness = false` bench targets;
//! * [`workspace`] — grow-once scratch buffers and a buffer free-list
//!   arena so steady-state hot loops (the preconditioner apply, the
//!   Krylov iteration bodies) perform zero heap allocations after
//!   warm-up;
//! * [`alloc_guard`] — a counting `GlobalAlloc` wrapper the zero-alloc
//!   tests install to *prove* that claim rather than assume it;
//! * [`testgen`] — the shared matrix/CSR input generators every
//!   property suite builds its cases from (raw data only: this crate
//!   sits below the container types);
//! * [`simd`] — dependency-free portable wide-lane chunks
//!   (`f64xN`/`f32xN`) with run-time width selection, the element type
//!   the `CpuSimd` backend's interleaved kernels are written against.

pub mod alloc_guard;
pub mod bench;
pub mod chaos;
pub mod check;
pub mod fault;
pub mod par;
pub mod rng;
pub mod simd;
pub mod sync;
pub mod testgen;
pub mod workspace;

pub use alloc_guard::{AllocSnapshot, CountingAlloc};
pub use chaos::{ChaosPlan, SkewClock};
pub use check::run_cases;
pub use fault::{FaultClass, FaultPlan};
pub use par::prelude;
pub use rng::SmallRng;
pub use simd::{lane_width, Chunk, Mask, SimdElem, MAX_LANE_WIDTH};
pub use sync::{bounded, CancelToken, Receiver, RecvError, Sender, TrySendError};
pub use workspace::{ScratchArena, Workspace};
