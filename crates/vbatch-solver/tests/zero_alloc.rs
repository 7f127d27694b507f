//! Steady-state zero-allocation proof: with the counting allocator
//! installed as `#[global_allocator]`, a warm block-Jacobi + IDR(4)
//! iteration on `CpuSequential` touches the heap exactly zero times.
//!
//! Two layers of evidence:
//!
//! * the prepared preconditioner apply allocates nothing at all after
//!   warm-up (measured around a bare `apply_inplace` call);
//! * extending a warm solve by extra iterations costs zero additional
//!   allocations — i.e. everything a solve allocates is per-solve
//!   setup/teardown (`SolveResult`, final true-residual check), never
//!   per-iteration.
//!
//! Windows read the allocator's *scoped* count: allocations on the
//! measuring thread plus those on the `vbatch-rt` pool workers, where
//! `CpuRayon` runs its units. The harness's own threads (spawning and
//! reporting other tests) stay out of it. Pool workers are shared, so
//! every test also holds [`serial`] for its whole body: no other test
//! can run pool work inside a window, under any harness thread count.

use std::sync::{Arc, Mutex, MutexGuard};
use vbatch_exec::{Backend, CpuRayon, CpuSequential, CpuSimd};
use vbatch_precond::{BjMethod, BlockIlu0, PrecondOptions, Preconditioner};
use vbatch_rt::CountingAlloc;
use vbatch_solver::{IdrBjSolver, IdrSolver, SolveParams, StopReason};
use vbatch_sparse::gen::laplace::laplace_2d;
use vbatch_sparse::BlockPartition;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn backend() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSequential)
}

fn simd_backend() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSimd)
}

/// Held for the whole body of every test: one measurement at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // a failed test poisons the lock; the next test's window is still clean
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn warm_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m =
        vbatch_precond::BlockJacobi::setup_with_backend(&a, &part, BjMethod::SmallLu, backend())
            .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    // warm-up: first apply may fault in lazy state
    m.apply_inplace(&mut v);
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm prepared apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// The same guarantee on the worker pool: a warm `CpuRayon` apply
/// hands its units to persistent, already-parked workers through a job
/// on the caller's stack, so neither the dispatch nor the workers touch
/// the heap. Measured for both layouts, each with several apply units
/// so the pool really runs.
#[test]
fn warm_parallel_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    for layout in [
        vbatch_core::BatchLayout::Blocked,
        vbatch_core::BatchLayout::interleaved(),
    ] {
        let m = vbatch_precond::BlockJacobi::setup_opts(
            &a,
            &part,
            Arc::new(CpuRayon),
            PrecondOptions::default()
                .with_method(BjMethod::SmallLu)
                .with_layout(layout),
        )
        .unwrap();
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        m.apply_inplace(&mut v); // warm-up
        let before = ALLOC.snapshot();
        for _ in 0..8 {
            m.apply_inplace(&mut v);
        }
        let after = ALLOC.snapshot();
        assert_eq!(
            after.scoped_allocs_since(&before),
            0,
            "warm {} cpu-rayon apply must not allocate ({} bytes leaked in)",
            layout.label(),
            after.scoped_bytes_since(&before)
        );
        assert!(v.iter().all(|x| x.is_finite()));
    }
}

/// The steady-state guarantee must hold **with tracing active**: trace
/// rings are pre-sized at `prepare_apply` / workspace-seed time, so a
/// warm apply records its spans without touching the heap. Compiled
/// with the `trace` feature this proves instrumentation costs zero
/// allocations; compiled without it, it degenerates to the plain
/// zero-alloc check plus the guarantee that the event counter stays 0.
#[test]
fn warm_apply_with_tracing_enabled_allocates_nothing() {
    let _serial = serial();
    vbatch_trace::set_enabled(true);
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m =
        vbatch_precond::BlockJacobi::setup_with_backend(&a, &part, BjMethod::SmallLu, backend())
            .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up (ring already reserved at setup)
    let ev0 = vbatch_trace::thread_events_written();
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    let ev1 = vbatch_trace::thread_events_written();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm traced apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    if vbatch_trace::enabled() {
        assert!(
            ev1 > ev0,
            "tracing is enabled but the measured applies recorded no events"
        );
        assert_eq!(vbatch_trace::dropped(), 0, "pre-sized ring dropped events");
    } else {
        assert_eq!(ev1, 0, "trace feature off: the event counter must stay 0");
    }
    assert!(v.iter().all(|x| x.is_finite()));
}

/// The guarantee extends to block-ILU(0): a warm apply runs two
/// level-scheduled triangular sweeps plus the prepared diagonal solve —
/// the level/preconditioner histograms are pre-warmed at setup, so the
/// whole three-stage apply touches the heap zero times.
#[test]
fn warm_bilu_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        backend(),
        PrecondOptions::default().with_method(BjMethod::SmallLu),
    )
    .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm block-ILU(0) apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// And to the full Krylov loop over block-ILU(0): extra warm IDR
/// iterations through the generic [`IdrSolver`] handle cost zero
/// additional allocations, exactly as for block-Jacobi.
#[test]
fn warm_bilu_idr_iterations_allocate_nothing() {
    let _serial = serial();
    // 48x48 grid: block-ILU(0) needs ~25 IDR(4) iterations here, so
    // both capped runs below stop on MaxIterations
    let a = laplace_2d::<f64>(48, 48);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);
    let opts = PrecondOptions::default().with_method(BjMethod::SmallLu);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(20);

    let mut handle =
        IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(&a, 4, &part, backend(), opts.clone(), &short)
            .unwrap();
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().scoped_allocs_since(&s0);

    let mut handle_long =
        IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(&a, 4, &part, backend(), opts, &long).unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().scoped_allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm block-ILU(0) iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The wide-lane backend honours the same contract: a warm `CpuSimd`
/// block-Jacobi apply — which routes the interleaved classes through
/// the explicit SIMD TRSV with caller-provided scratch — allocates
/// exactly zero times. The default layout interleaves the uniform
/// `n = 8` classes, so this measures the lane kernels, not a blocked
/// delegate.
#[test]
fn warm_simd_prepared_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = vbatch_precond::BlockJacobi::setup_with_backend(
        &a,
        &part,
        BjMethod::SmallLu,
        simd_backend(),
    )
    .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm cpu-simd prepared apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// Same proof over block-ILU(0) on `CpuSimd`: triangular sweeps plus
/// the SIMD diagonal solve, zero heap traffic once warm.
#[test]
fn warm_simd_bilu_apply_allocates_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    let m = BlockIlu0::setup_opts(
        &a,
        &part,
        simd_backend(),
        PrecondOptions::default().with_method(BjMethod::SmallLu),
    )
    .unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm cpu-simd block-ILU(0) apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// Differential proof on `CpuSimd`: extending a warm IDR(4) +
/// block-Jacobi solve by extra iterations costs zero additional
/// allocations, so the per-iteration SIMD apply path is heap-free.
#[test]
fn warm_simd_idr_iterations_allocate_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle =
        IdrBjSolver::setup(&a, 4, &part, BjMethod::SmallLu, simd_backend(), &short).unwrap();
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().scoped_allocs_since(&s0);

    let mut handle_long =
        IdrBjSolver::setup(&a, 4, &part, BjMethod::SmallLu, simd_backend(), &long).unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().scoped_allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm cpu-simd iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The zero-allocation contract survives the precision-policy split: a
/// warm mixed-storage apply runs the widening triangular solves plus
/// one refinement step against the retained DP block, all through
/// caller-provided scratch sized at `prepare_apply` time. The default
/// layout interleaves the uniform `n = 8` classes, so this measures the
/// lowered interleaved path, not just blocked factors.
#[test]
fn warm_mixed_precision_apply_allocates_nothing() {
    let _serial = serial();
    use vbatch_exec::PrecisionPolicy;
    let a = laplace_2d::<f64>(16, 16);
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 8);
    for layout in [
        vbatch_core::BatchLayout::Blocked,
        vbatch_core::BatchLayout::interleaved(),
    ] {
        for policy in [PrecisionPolicy::mixed::<f64>(), PrecisionPolicy::ForceSp] {
            let m = vbatch_precond::BlockJacobi::setup_opts(
                &a,
                &part,
                backend(),
                PrecondOptions::default()
                    .with_method(BjMethod::SmallLu)
                    .with_layout(layout)
                    .with_precision(policy),
            )
            .unwrap();
            let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            m.apply_inplace(&mut v); // warm-up
            let before = ALLOC.snapshot();
            m.apply_inplace(&mut v);
            m.apply_inplace(&mut v);
            let after = ALLOC.snapshot();
            assert_eq!(
                after.scoped_allocs_since(&before),
                0,
                "warm {}/{} apply must not allocate ({} bytes leaked in)",
                layout.label(),
                policy.label(),
                after.scoped_bytes_since(&before)
            );
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}

/// Differential proof for the mixed policy over the full Krylov loop:
/// extra warm IDR(4) iterations through lowered-storage block-Jacobi
/// factors cost zero additional allocations.
#[test]
fn warm_mixed_idr_iterations_allocate_nothing() {
    let _serial = serial();
    use vbatch_exec::PrecisionPolicy;
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);
    let opts = PrecondOptions::default()
        .with_method(BjMethod::SmallLu)
        .with_precision(PrecisionPolicy::mixed::<f64>());

    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle = IdrSolver::<f64, vbatch_precond::BlockJacobi<f64>>::setup_opts(
        &a,
        4,
        &part,
        backend(),
        opts.clone(),
        &short,
    )
    .unwrap();
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().scoped_allocs_since(&s0);

    let mut handle_long = IdrSolver::<f64, vbatch_precond::BlockJacobi<f64>>::setup_opts(
        &a,
        4,
        &part,
        backend(),
        opts,
        &long,
    )
    .unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().scoped_allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm mixed-precision iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}

/// The SPIKE apply path honours the same contract: a warm truncated
/// SPIKE pass — prepared partition solve, interface gather, prepared
/// reduced solve, spike GEMV recovery — touches the heap exactly zero
/// times (the interface workspace is sized at setup).
#[test]
fn warm_spike_apply_allocates_nothing() {
    let _serial = serial();
    use vbatch_sparse::{CooMatrix, SpikePartition};
    let n = 96;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, 2, 2.0, 13) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let sp = SpikePartition::uniform(n, 6, 2).unwrap();
    let m =
        vbatch_solver::SpikeSolver::setup(&a, &sp, backend(), PrecondOptions::default()).unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm SPIKE apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

/// And with tracing active: the SPIKE apply records its spans through
/// pre-sized rings without heap traffic, exactly like block-Jacobi.
#[test]
fn warm_spike_apply_with_tracing_enabled_allocates_nothing() {
    let _serial = serial();
    use vbatch_sparse::{CooMatrix, SpikePartition};
    vbatch_trace::set_enabled(true);
    let n = 96;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, 2, 2.0, 13) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let sp = SpikePartition::uniform(n, 6, 2).unwrap();
    let m =
        vbatch_solver::SpikeSolver::setup(&a, &sp, backend(), PrecondOptions::default()).unwrap();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    m.apply_inplace(&mut v); // warm-up (rings reserved at setup)
    let before = ALLOC.snapshot();
    m.apply_inplace(&mut v);
    m.apply_inplace(&mut v);
    let after = ALLOC.snapshot();
    assert_eq!(
        after.scoped_allocs_since(&before),
        0,
        "warm traced SPIKE apply must not allocate ({} bytes leaked in)",
        after.scoped_bytes_since(&before)
    );
    assert!(v.iter().all(|x| x.is_finite()));
}

#[test]
fn warm_idr_iterations_allocate_nothing() {
    let _serial = serial();
    let a = laplace_2d::<f64>(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let part = BlockPartition::uniform(n, 8);

    // capped solves: both runs stop on MaxIterations, so they execute
    // identical per-solve setup/teardown and differ only in how many
    // warm iterations they run
    let short = SolveParams::default().with_max_iters(4);
    let long = SolveParams::default().with_max_iters(24);

    let mut handle =
        IdrBjSolver::setup(&a, 4, &part, BjMethod::SmallLu, backend(), &short).unwrap();
    // warm-up solve grows every pool to its high-water size
    let warm = handle.solve(&a, &b);
    assert_eq!(warm.reason, StopReason::MaxIterations);

    let s0 = ALLOC.snapshot();
    let r_short = handle.solve(&a, &b);
    let allocs_short = ALLOC.snapshot().scoped_allocs_since(&s0);

    let mut handle_long =
        IdrBjSolver::setup(&a, 4, &part, BjMethod::SmallLu, backend(), &long).unwrap();
    let warm_long = handle_long.solve(&a, &b);
    assert_eq!(warm_long.reason, StopReason::MaxIterations);

    let s1 = ALLOC.snapshot();
    let r_long = handle_long.solve(&a, &b);
    let allocs_long = ALLOC.snapshot().scoped_allocs_since(&s1);

    assert!(r_long.iterations > r_short.iterations + 10);
    assert_eq!(
        allocs_long,
        allocs_short,
        "the {} extra warm iterations must allocate nothing \
         (short solve: {allocs_short} allocs, long solve: {allocs_long})",
        r_long.iterations - r_short.iterations
    );
}
