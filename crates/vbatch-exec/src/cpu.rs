//! Host backends: sequential reference and the parallel driver
//! (`CpuRayon`, named for the rayon-style surface of the persistent
//! worker pool in `vbatch-rt`). Both wrap the native kernels of
//! `vbatch-core`; they differ only in how blocks are distributed.

use crate::apply::{run_apply_unit, FlatVecPtr, PreparedApply};
use crate::backend::Backend;
use crate::factors::{
    block_diag, scalar_jacobi_from_diag, BlockFactor, BlockStatus, FactorizedBatch,
    InterleavedLuClass, InterleavedLuLowerClass,
};
use crate::plan::{BatchPlan, ClassLayout, KernelChoice, PrecisionPolicy};
use crate::stats::{ExecStats, Phase};
use std::time::Instant;
use vbatch_core::lu::implicit::getrf_implicit_inplace;
use vbatch_core::{
    batched_gemv, demote_slice, getrf_interleaved_class, getrf_interleaved_class_simd,
    gh_factorize, gje_invert, lu_solve_interleaved_class, lu_solve_interleaved_class_scratch_simd,
    potrf, DenseMat, Exec, FactorError, GhLayout, InterleavedClass, MatrixBatch, Scalar,
    StoragePrecision, VectorBatch,
};
use vbatch_rt::par::{for_each_index, num_threads, par_map_vec};
use vbatch_rt::prelude::*;
use vbatch_sparse::{extract_diag_blocks, BlockPartition, CsrMatrix};

/// One block after another; deterministic reference execution.
pub struct CpuSequential;

/// Blocks distributed over the persistent worker pool of `vbatch-rt`.
pub struct CpuRayon;

/// Factorize one block with the planned kernel, degrading to scalar
/// Jacobi on failure.
pub(crate) fn factor_block<T: Scalar>(
    n: usize,
    mut data: Vec<T>,
    kernel: KernelChoice,
) -> (BlockFactor<T>, BlockStatus) {
    let diag = block_diag(n, &data);
    let fallback = |kernel: KernelChoice, error: FactorError, diag: &[T]| {
        let (factor, sanitized) = scalar_jacobi_from_diag(diag);
        (factor, BlockStatus::fallback(kernel, error, sanitized, n))
    };
    match kernel {
        KernelChoice::PackedLu | KernelChoice::SmallLu | KernelChoice::BlockedLu => {
            match getrf_implicit_inplace(n, &mut data) {
                Ok(perm) => (
                    BlockFactor::Lu { n, lu: data, perm },
                    BlockStatus::factorized(kernel),
                ),
                Err(e) => fallback(kernel, e, &diag),
            }
        }
        KernelChoice::GaussHuard | KernelChoice::GaussHuardT => {
            let layout = if kernel == KernelChoice::GaussHuardT {
                GhLayout::Transposed
            } else {
                GhLayout::Normal
            };
            let mat = DenseMat::from_col_major(n, n, &data);
            match gh_factorize(&mat, layout) {
                Ok(f) => (BlockFactor::Gh(f), BlockStatus::factorized(kernel)),
                Err(e) => fallback(kernel, e, &diag),
            }
        }
        KernelChoice::GjeInvert => {
            let mat = DenseMat::from_col_major(n, n, &data);
            match gje_invert(&mat) {
                Ok(inv) => (
                    BlockFactor::Inv {
                        n,
                        inv: inv.as_slice().to_vec(),
                    },
                    BlockStatus::factorized(kernel),
                ),
                Err(e) => fallback(kernel, e, &diag),
            }
        }
        KernelChoice::Cholesky => {
            let mat = DenseMat::from_col_major(n, n, &data);
            match potrf(&mat) {
                Ok(f) => (BlockFactor::Chol(f), BlockStatus::factorized(kernel)),
                Err(e) => fallback(kernel, e, &diag),
            }
        }
    }
}

/// Factorize one block in *lowered* storage precision: the LU/GH-family
/// factors are computed on the demoted copy, the original block is
/// retained in working precision for the apply's refinement residual.
/// Inversion and Cholesky have no widening apply path and stay native.
pub(crate) fn factor_block_lower<T: Scalar>(
    n: usize,
    block: &[T],
    kernel: KernelChoice,
) -> (BlockFactor<T>, BlockStatus) {
    let fallback = |kernel: KernelChoice, error: FactorError, data: &[T]| {
        let diag = block_diag(n, data);
        let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
        (factor, BlockStatus::fallback(kernel, error, sanitized, n))
    };
    match kernel {
        KernelChoice::PackedLu | KernelChoice::SmallLu | KernelChoice::BlockedLu => {
            let mut lu = demote_slice(block);
            match getrf_implicit_inplace(n, &mut lu) {
                Ok(perm) => {
                    let mut status = BlockStatus::factorized(kernel);
                    status.precision = StoragePrecision::Lower;
                    (BlockFactor::LuLower { n, lu, perm }, status)
                }
                Err(e) => fallback(kernel, e, block),
            }
        }
        KernelChoice::GaussHuard | KernelChoice::GaussHuardT => {
            let layout = if kernel == KernelChoice::GaussHuardT {
                GhLayout::Transposed
            } else {
                GhLayout::Normal
            };
            let lo = demote_slice(block);
            let mat = DenseMat::from_col_major(n, n, &lo);
            match gh_factorize(&mat, layout) {
                Ok(gh) => {
                    let mut status = BlockStatus::factorized(kernel);
                    status.precision = StoragePrecision::Lower;
                    (BlockFactor::GhLower { gh }, status)
                }
                Err(e) => fallback(kernel, e, block),
            }
        }
        KernelChoice::GjeInvert | KernelChoice::Cholesky => factor_block(n, block.to_vec(), kernel),
    }
}

pub(crate) fn record_statuses(status: &[BlockStatus], stats: &mut ExecStats) {
    for s in status {
        if s.is_fallback() {
            stats.record_failure();
        } else {
            stats.record_kernel(s.kernel, 1);
        }
        stats.record_health(s.health);
        for &step in &s.recovery {
            stats.record_recovery(step);
        }
        stats.record_precision(s.precision, 1);
        if s.promoted {
            stats.record_promotion();
        }
    }
}

/// Per-chunk working-set budget for interleaved classes. Each
/// elimination step revisits the whole chunk, so the chunk must stay
/// cache-resident or every step streams it from memory and the layout
/// loses to blocked storage (whose 2 KB blocks never leave L1). L2 is
/// the sweet spot: wider lanes amortize the per-step lane bookkeeping
/// better than the extra L1 misses cost.
const INTERLEAVED_CHUNK_BYTES: usize = 128 * 1024;

/// Slots per interleaved chunk: bound `n² · slots · sizeof(T)` by the
/// cache budget, keeping at least a SIMD-width-friendly floor.
fn interleaved_chunk_slots<T>(n: usize) -> usize {
    let block_bytes = (n * n).max(1) * std::mem::size_of::<T>();
    (INTERLEAVED_CHUNK_BYTES / block_bytes).max(8)
}

/// Factorize one interleaved chunk (a contiguous span of one size
/// class): pack, run the class-wide sweep, and report per-slot errors.
/// Slots are numerically independent, so chunking never changes
/// results — only locality and how much parallelism the class exposes.
fn factor_interleaved_chunk<T: Scalar>(
    blocks: &MatrixBatch<T>,
    n: usize,
    members: Vec<usize>,
    simd: bool,
) -> (InterleavedLuClass<T>, Vec<Option<FactorError>>) {
    let packed = InterleavedClass::pack_from(blocks, &members);
    let (_, member_idx, mut data) = packed.into_parts();
    let count = member_idx.len();
    let mut piv = vec![0usize; n * count];
    let errs = if simd {
        getrf_interleaved_class_simd(n, count, &mut data, &mut piv)
    } else {
        getrf_interleaved_class(n, count, &mut data, &mut piv)
    };
    (
        InterleavedLuClass {
            n,
            blocks: member_idx,
            data,
            piv,
        },
        errs,
    )
}

/// Lowered-precision variant of [`factor_interleaved_chunk`]: the class
/// sweep runs on demoted data (twice the lanes per SIMD register). The
/// pack demotes *while gathering* — one strided read of the native
/// blocks, one contiguous write of the storage-precision slab — so the
/// lowered path moves strictly less data than the native one (the
/// refinement residual reads the batch-wide retained copy instead of a
/// per-class working-precision duplicate).
fn factor_interleaved_chunk_lower<T: Scalar>(
    blocks: &MatrixBatch<T>,
    n: usize,
    members: Vec<usize>,
    simd: bool,
) -> (InterleavedLuLowerClass<T>, Vec<Option<FactorError>>) {
    let count = members.len();
    let slices: Vec<&[T]> = members
        .iter()
        .map(|&b| {
            assert_eq!(blocks.size(b), n, "class members must share one order");
            blocks.block(b)
        })
        .collect();
    // same lane-major element order as `InterleavedClass::pack_from`,
    // demoted element-by-element (bitwise identical to demoting a
    // native pack after the fact)
    let mut data = vec![<T::Lower as Scalar>::ZERO; n * n * count];
    for (e, lane) in data.chunks_exact_mut(count).enumerate() {
        for (dst, blk) in lane.iter_mut().zip(&slices) {
            *dst = blk[e].demote();
        }
    }
    let mut piv = vec![0usize; n * count];
    let errs = if simd {
        getrf_interleaved_class_simd(n, count, &mut data, &mut piv)
    } else {
        getrf_interleaved_class(n, count, &mut data, &mut piv)
    };
    (
        InterleavedLuLowerClass {
            n,
            blocks: members,
            data,
            piv,
        },
        errs,
    )
}

pub(crate) fn factorize_cpu<T: Scalar>(
    blocks: MatrixBatch<T>,
    plan: &BatchPlan,
    parallel: bool,
    simd: bool,
    stats: &mut ExecStats,
) -> FactorizedBatch<T> {
    assert_eq!(plan.len(), blocks.len(), "plan does not match batch");
    let _span = vbatch_trace::span!("exec.factorize", blocks.len());
    let t0 = Instant::now();
    stats.add_flops(blocks.getrf_flops());
    let sizes = blocks.sizes().to_vec();

    // Partition blocks by the plan's per-class layout choice.
    let mut blocked_idx: Vec<usize> = Vec::new();
    let mut class_members = std::collections::BTreeMap::<usize, Vec<usize>>::new();
    for i in 0..blocks.len() {
        match plan.layout_for(i) {
            ClassLayout::Blocked => blocked_idx.push(i),
            ClassLayout::Interleaved | ClassLayout::InterleavedSimd => {
                class_members.entry(sizes[i]).or_default().push(i)
            }
        }
    }
    stats.record_layout(ClassLayout::Blocked, blocked_idx.len() as u64);
    // the SIMD backend records which kernels actually ran: interleaved
    // classes it takes over show up as `interleaved-simd` in the layout
    // histogram (totals still cover every block exactly once)
    let interleaved_label = if simd {
        ClassLayout::InterleavedSimd
    } else {
        ClassLayout::Interleaved
    };
    stats.record_layout(interleaved_label, (blocks.len() - blocked_idx.len()) as u64);

    // Precision policy: the lowered path only exists where the scalar
    // actually has a narrower storage format; at the f32 floor every
    // policy degenerates to the (bitwise-preserved) native path.
    let lowered = plan.precision().lowers_storage() && T::HAS_LOWER;

    let mut factors: Vec<Option<BlockFactor<T>>> = (0..blocks.len()).map(|_| None).collect();
    let mut status: Vec<Option<BlockStatus>> = (0..blocks.len()).map(|_| None).collect();

    // Blocked blocks: one isolated factorization per block. Under a
    // lowering policy the worker demotes straight out of the shared
    // batch — no per-block working-precision copy is ever made (the
    // retained batch serves the refinement residuals); the native path
    // keeps its owned copy and factorizes it in place.
    let shared = &blocks;
    let block_results: Vec<(usize, BlockFactor<T>, BlockStatus)> = if lowered {
        let work = |i: usize| {
            let _span = vbatch_trace::span!("factorize.block", sizes[i]);
            let (f, s) = factor_block_lower(sizes[i], shared.block(i), plan.kernel_for(i));
            (i, f, s)
        };
        if parallel {
            par_map_vec(blocked_idx, work)
        } else {
            blocked_idx.into_iter().map(work).collect()
        }
    } else {
        let items: Vec<(usize, Vec<T>)> = blocked_idx
            .iter()
            .map(|&i| (i, blocks.block(i).to_vec()))
            .collect();
        let block_work = |(i, data): (usize, Vec<T>)| {
            let _span = vbatch_trace::span!("factorize.block", sizes[i]);
            let (f, s) = factor_block(sizes[i], data, plan.kernel_for(i));
            (i, f, s)
        };
        if parallel {
            par_map_vec(items, block_work)
        } else {
            items.into_iter().map(block_work).collect()
        }
    };
    for (i, f, s) in block_results {
        factors[i] = Some(f);
        status[i] = Some(s);
    }

    // Interleaved classes: split each class into cache-sized chunks
    // (further divided for the thread pool when parallel) and run the
    // class-wide sweep on each.
    let chunk_target = if parallel { num_threads().max(1) } else { 1 };
    let mut chunks: Vec<(usize, Vec<usize>)> = Vec::new();
    for (n, members) in class_members {
        let per_thread = members.len().div_ceil(chunk_target).max(1);
        let chunk_len = per_thread.min(interleaved_chunk_slots::<T>(n));
        for c in members.chunks(chunk_len) {
            chunks.push((n, c.to_vec()));
        }
    }
    let blocks_ref = &blocks;
    let mut interleaved = Vec::new();
    let mut interleaved_lower = Vec::new();
    if lowered {
        let chunk_work = |(n, members): (usize, Vec<usize>)| {
            let _span = vbatch_trace::span!("factorize.chunk", n * members.len());
            factor_interleaved_chunk_lower(blocks_ref, n, members, simd)
        };
        let chunk_results: Vec<(InterleavedLuLowerClass<T>, Vec<Option<FactorError>>)> = if parallel
        {
            par_map_vec(chunks, chunk_work)
        } else {
            chunks.into_iter().map(chunk_work).collect()
        };
        interleaved_lower.reserve(chunk_results.len());
        for (class, errs) in chunk_results {
            let class_idx = interleaved_lower.len();
            for (slot, err) in errs.into_iter().enumerate() {
                let blk = class.blocks[slot];
                let kernel = plan.kernel_for(blk);
                match err {
                    None => {
                        factors[blk] = Some(BlockFactor::InterleavedLuLower {
                            class: class_idx,
                            slot,
                        });
                        let mut s = BlockStatus::factorized(kernel);
                        s.precision = StoragePrecision::Lower;
                        status[blk] = Some(s);
                    }
                    Some(error) => {
                        let diag = block_diag(class.n, blocks.block(blk));
                        let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
                        factors[blk] = Some(factor);
                        status[blk] =
                            Some(BlockStatus::fallback(kernel, error, sanitized, class.n));
                    }
                }
            }
            interleaved_lower.push(class);
        }
    } else {
        let chunk_work = |(n, members): (usize, Vec<usize>)| {
            let _span = vbatch_trace::span!("factorize.chunk", n * members.len());
            factor_interleaved_chunk(blocks_ref, n, members, simd)
        };
        let chunk_results: Vec<(InterleavedLuClass<T>, Vec<Option<FactorError>>)> = if parallel {
            par_map_vec(chunks, chunk_work)
        } else {
            chunks.into_iter().map(chunk_work).collect()
        };
        interleaved.reserve(chunk_results.len());
        for (class, errs) in chunk_results {
            let class_idx = interleaved.len();
            for (slot, err) in errs.into_iter().enumerate() {
                let blk = class.blocks[slot];
                let kernel = plan.kernel_for(blk);
                match err {
                    None => {
                        factors[blk] = Some(BlockFactor::InterleavedLu {
                            class: class_idx,
                            slot,
                        });
                        status[blk] = Some(BlockStatus::factorized(kernel));
                    }
                    Some(error) => {
                        let diag = block_diag(class.n, blocks.block(blk));
                        let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
                        factors[blk] = Some(factor);
                        status[blk] =
                            Some(BlockStatus::fallback(kernel, error, sanitized, class.n));
                    }
                }
            }
            interleaved.push(class);
        }
    }

    // Every index was routed to exactly one of the two partitions
    // above, so both vectors are fully populated.
    let factors: Vec<BlockFactor<T>> = factors
        .into_iter()
        .map(|f| f.expect("block covered by neither layout partition"))
        .collect();
    let status: Vec<BlockStatus> = status
        .into_iter()
        .map(|s| s.expect("block covered by neither layout partition"))
        .collect();
    let mut batch = FactorizedBatch {
        sizes,
        factors,
        status,
        interleaved,
        interleaved_lower,
        retained: None,
    };
    if lowered {
        if let PrecisionPolicy::MixedPromote { condest_threshold } = plan.precision() {
            crate::health::promote_unsafe_blocks(&blocks, &mut batch, condest_threshold);
        }
    }
    crate::health::triage_batch(&blocks, &mut batch, plan.health());
    if lowered {
        // the widening applies read their refinement residuals out of
        // the retained batch; the native path consumes it as before
        batch.retained = Some(blocks);
    }
    record_statuses(&batch.status, stats);
    stats.add_phase(Phase::Factorize, t0.elapsed());
    batch
}

/// One unit of solve work: either a single blocked system or all the
/// healthy slots of one interleaved class (gather → class-wide sweep →
/// scatter).
enum SolveUnit<'a, T> {
    Block(usize, &'a mut [T]),
    Class(usize, Vec<(usize, &'a mut [T])>),
}

fn run_solve_unit<T: Scalar>(factors: &FactorizedBatch<T>, unit: SolveUnit<'_, T>, simd: bool) {
    match unit {
        SolveUnit::Block(i, seg) => factors.solve_block_inplace(i, seg),
        SolveUnit::Class(c, mut members) => {
            let cls = &factors.interleaved[c];
            let (n, count) = (cls.n, cls.count());
            // Gather into full-width lanes: absent slots (fallbacks,
            // sanitized to identity factors) solve a zero rhs and are
            // simply not scattered back.
            let mut x = vec![T::ZERO; n * count];
            for (slot, seg) in &members {
                for i in 0..n {
                    x[i * count + slot] = seg[i];
                }
            }
            if simd {
                let mut scratch = vec![T::ZERO; n * count];
                lu_solve_interleaved_class_scratch_simd(
                    n,
                    count,
                    &cls.data,
                    &cls.piv,
                    &mut x,
                    &mut scratch,
                );
            } else {
                lu_solve_interleaved_class(n, count, &cls.data, &cls.piv, &mut x);
            }
            for (slot, seg) in &mut members {
                for i in 0..n {
                    seg[i] = x[i * count + *slot];
                }
            }
        }
    }
}

pub(crate) fn solve_cpu<T: Scalar>(
    factors: &FactorizedBatch<T>,
    rhs: &mut VectorBatch<T>,
    parallel: bool,
    simd: bool,
    stats: &mut ExecStats,
) {
    assert_eq!(factors.sizes, rhs.sizes(), "factors do not match rhs");
    let _span = vbatch_trace::span!("exec.solve", factors.sizes.len());
    let t0 = Instant::now();
    if factors.interleaved.is_empty() {
        if parallel {
            rhs.segs_mut()
                .into_par_iter()
                .enumerate()
                .for_each(|(i, seg)| factors.solve_block_inplace(i, seg));
        } else {
            factors.solve_all_inplace(rhs);
        }
    } else {
        let mut segs: Vec<Option<&mut [T]>> = rhs.segs_mut().into_iter().map(Some).collect();
        let mut units: Vec<SolveUnit<'_, T>> = Vec::new();
        for (c, cls) in factors.interleaved.iter().enumerate() {
            let mut members = Vec::with_capacity(cls.count());
            for (slot, &blk) in cls.blocks.iter().enumerate() {
                if matches!(factors.factors[blk], BlockFactor::InterleavedLu { .. }) {
                    members.push((slot, segs[blk].take().expect("segment claimed twice")));
                }
            }
            if !members.is_empty() {
                units.push(SolveUnit::Class(c, members));
            }
        }
        for (i, seg) in segs.into_iter().enumerate() {
            if let Some(seg) = seg {
                units.push(SolveUnit::Block(i, seg));
            }
        }
        if parallel {
            par_map_vec(units, |u| run_solve_unit(factors, u, simd));
        } else {
            for u in units {
                run_solve_unit(factors, u, simd);
            }
        }
    }
    stats.add_flops(factors.sizes.iter().map(|&n| 2.0 * (n * n) as f64).sum());
    stats.add_phase(Phase::Solve, t0.elapsed());
}

/// Steady-state apply through a [`PreparedApply`]: run every unit
/// against the flat vector, sequentially or over the worker pool. Both
/// paths perform zero heap allocations once warm: every temporary lives
/// in the prepared per-unit scratch, and a pool call keeps its job on
/// the stack.
pub(crate) fn solve_prepared_cpu<T: Scalar>(
    factors: &FactorizedBatch<T>,
    prepared: &PreparedApply<T>,
    v: &mut [T],
    parallel: bool,
    simd: bool,
    stats: &mut ExecStats,
) {
    assert_eq!(
        v.len(),
        prepared.total(),
        "prepared apply does not match vector"
    );
    let _span = vbatch_trace::span!("exec.apply", prepared.unit_count());
    let t0 = Instant::now();
    let units = prepared.units();
    if parallel && units.len() > 1 {
        let ptr = FlatVecPtr::new(v);
        for_each_index(units.len(), &|i| {
            // SAFETY: each unit touches a disjoint set of segments
            // (PreparedApply invariant), so the reborrowed views from
            // concurrent units never alias.
            let view = unsafe { ptr.slice() };
            run_apply_unit(factors, &units[i], view, simd);
        });
    } else {
        for unit in units {
            run_apply_unit(factors, unit, v, simd);
        }
    }
    stats.add_flops(factors.sizes.iter().map(|&n| 2.0 * (n * n) as f64).sum());
    stats.add_phase(Phase::Apply, t0.elapsed());
    stats.record_apply(prepared.workspace_hwm_elems());
}

pub(crate) fn invert_cpu<T: Scalar>(
    blocks: &MatrixBatch<T>,
    parallel: bool,
    stats: &mut ExecStats,
) -> (MatrixBatch<T>, Vec<BlockStatus>) {
    let _span = vbatch_trace::span!("exec.invert", blocks.len());
    let t0 = Instant::now();
    let sizes = blocks.sizes().to_vec();
    let items: Vec<(usize, Vec<T>)> = (0..blocks.len())
        .map(|i| (sizes[i], blocks.block(i).to_vec()))
        .collect();
    let work = |(n, data): (usize, Vec<T>)| -> (Vec<T>, BlockStatus) {
        let diag = block_diag(n, &data);
        let mat = DenseMat::from_col_major(n, n, &data);
        match gje_invert(&mat) {
            Ok(inv) => (
                inv.as_slice().to_vec(),
                BlockStatus::factorized(KernelChoice::GjeInvert),
            ),
            Err(error) => {
                // diagonal fallback "inverse"
                let mut d = vec![T::ZERO; n * n];
                let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
                if let BlockFactor::ScalarJacobi { inv_diag } = factor {
                    for (i, &v) in inv_diag.iter().enumerate() {
                        d[i * n + i] = v;
                    }
                }
                (
                    d,
                    BlockStatus::fallback(KernelChoice::GjeInvert, error, sanitized, n),
                )
            }
        }
    };
    let results: Vec<(Vec<T>, BlockStatus)> = if parallel {
        par_map_vec(items, work)
    } else {
        items.into_iter().map(work).collect()
    };
    let mut out = MatrixBatch::zeros(&sizes);
    let mut status = Vec::with_capacity(results.len());
    for (i, (data, st)) in results.into_iter().enumerate() {
        out.block_mut(i).copy_from_slice(&data);
        status.push(st);
    }
    record_statuses(&status, stats);
    stats.add_flops(sizes.iter().map(|&n| 2.0 * (n * n * n) as f64).sum());
    stats.add_phase(Phase::Invert, t0.elapsed());
    (out, status)
}

pub(crate) fn gemv_cpu<T: Scalar>(
    blocks: &MatrixBatch<T>,
    x: &VectorBatch<T>,
    y: &mut VectorBatch<T>,
    exec: Exec,
    stats: &mut ExecStats,
) {
    let _span = vbatch_trace::span!("exec.gemv", blocks.len());
    let t0 = Instant::now();
    batched_gemv(blocks, x, y, exec);
    stats.add_flops(blocks.sizes().iter().map(|&n| 2.0 * (n * n) as f64).sum());
    stats.add_phase(Phase::Gemv, t0.elapsed());
}

pub(crate) fn extract_cpu<T: Scalar>(
    a: &CsrMatrix<T>,
    part: &BlockPartition,
    stats: &mut ExecStats,
) -> MatrixBatch<T> {
    let _span = vbatch_trace::span!("exec.extract", part.len());
    let t0 = Instant::now();
    let batch = extract_diag_blocks(a, part);
    stats.add_phase(Phase::Extract, t0.elapsed());
    batch
}

macro_rules! impl_cpu_backend {
    ($ty:ty, $name:literal, $parallel:literal, $exec:expr) => {
        impl<T: Scalar> Backend<T> for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn extract_blocks(
                &self,
                a: &CsrMatrix<T>,
                part: &BlockPartition,
                stats: &mut ExecStats,
            ) -> MatrixBatch<T> {
                extract_cpu(a, part, stats)
            }

            fn factorize(
                &self,
                blocks: MatrixBatch<T>,
                plan: &BatchPlan,
                stats: &mut ExecStats,
            ) -> FactorizedBatch<T> {
                factorize_cpu(blocks, plan, $parallel, false, stats)
            }

            fn solve(
                &self,
                factors: &FactorizedBatch<T>,
                rhs: &mut VectorBatch<T>,
                stats: &mut ExecStats,
            ) {
                solve_cpu(factors, rhs, $parallel, false, stats)
            }

            fn solve_prepared(
                &self,
                factors: &FactorizedBatch<T>,
                prepared: &PreparedApply<T>,
                v: &mut [T],
                stats: &mut ExecStats,
            ) {
                solve_prepared_cpu(factors, prepared, v, $parallel, false, stats)
            }

            fn sweep_triangular(
                &self,
                tri: &crate::tri::BlockTriangular<T>,
                sched: &vbatch_sparse::LevelSchedule,
                v: &mut [T],
                stats: &mut ExecStats,
            ) {
                crate::tri::sweep_cpu(tri, sched, v, $parallel, stats)
            }

            fn invert(
                &self,
                blocks: &MatrixBatch<T>,
                stats: &mut ExecStats,
            ) -> (MatrixBatch<T>, Vec<BlockStatus>) {
                invert_cpu(blocks, $parallel, stats)
            }

            fn apply_gemv(
                &self,
                blocks: &MatrixBatch<T>,
                x: &VectorBatch<T>,
                y: &mut VectorBatch<T>,
                stats: &mut ExecStats,
            ) {
                gemv_cpu(blocks, x, y, $exec, stats)
            }
        }
    };
}

impl_cpu_backend!(CpuSequential, "cpu-seq", false, Exec::Sequential);
impl_cpu_backend!(CpuRayon, "cpu-par", true, Exec::Parallel);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanMethod;
    use vbatch_rt::SmallRng;

    fn random_batch(sizes: &[usize], seed: u64) -> MatrixBatch<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut batch = MatrixBatch::zeros(sizes);
        for i in 0..batch.len() {
            let n = sizes[i];
            let block = batch.block_mut(i);
            for c in 0..n {
                for r in 0..n {
                    let v = rng.gen_range(-1.0..1.0);
                    block[c * n + r] = if r == c { v + n as f64 } else { v };
                }
            }
        }
        batch
    }

    #[test]
    fn factorize_solve_roundtrip() {
        let sizes = [3usize, 7, 12, 1, 24];
        let batch = random_batch(&sizes, 42);
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 0);

        // rhs = A * ones → solution ≈ ones
        let ones = VectorBatch::from_flat(&sizes, &vec![1.0; sizes.iter().sum()]);
        let mut rhs = VectorBatch::zeros(&sizes);
        CpuSequential.apply_gemv(&batch, &ones, &mut rhs, &mut stats);
        CpuSequential.solve(&fact, &mut rhs, &mut stats);
        for v in rhs.as_slice() {
            assert!((v - 1.0).abs() < 1e-9, "got {v}");
        }
        assert!(stats.flops > 0.0);
        assert!(!stats.histogram_compact().is_empty());
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let sizes = [5usize, 5, 18, 30, 2, 9];
        let batch = random_batch(&sizes, 7);
        for method in [
            PlanMethod::Auto,
            PlanMethod::SmallLu,
            PlanMethod::GaussHuard,
            PlanMethod::GaussHuardT,
            PlanMethod::GjeInvert,
        ] {
            let plan = BatchPlan::for_method::<f64>(&sizes, method);
            let mut s1 = ExecStats::new();
            let mut s2 = ExecStats::new();
            let f1 = CpuSequential.factorize(batch.clone(), &plan, &mut s1);
            let f2 = CpuRayon.factorize(batch.clone(), &plan, &mut s2);
            let total: usize = sizes.iter().sum();
            let flat: Vec<f64> = (0..total).map(|i| (i % 13) as f64 - 6.0).collect();
            let mut r1 = VectorBatch::from_flat(&sizes, &flat);
            let mut r2 = VectorBatch::from_flat(&sizes, &flat);
            CpuSequential.solve(&f1, &mut r1, &mut s1);
            CpuRayon.solve(&f2, &mut r2, &mut s2);
            // same kernels on the same data: bitwise identical
            assert_eq!(r1.as_slice(), r2.as_slice(), "{method:?}");
        }
    }

    #[test]
    fn singular_block_degrades_not_aborts() {
        let sizes = [4usize, 3, 5];
        let mut batch = random_batch(&sizes, 11);
        // make the middle block exactly singular (two equal rows)
        {
            let n = 3;
            let block = batch.block_mut(1);
            for c in 0..n {
                block[c * n + 1] = block[c * n];
            }
        }
        let plan = BatchPlan::auto::<f64>(&sizes);
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch, &plan, &mut stats);
        assert_eq!(fact.fallback_count(), 1);
        assert_eq!(stats.failures, 1);
        assert!(fact.status[1].is_fallback());
        assert!(!fact.status[0].is_fallback());
        assert!(!fact.status[2].is_fallback());
        // solving still works and leaves finite values everywhere
        let total: usize = sizes.iter().sum();
        let mut rhs = VectorBatch::from_flat(&sizes, &vec![1.0; total]);
        CpuSequential.solve(&fact, &mut rhs, &mut stats);
        assert!(rhs.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn interleaved_layout_matches_blocked_bitwise() {
        use vbatch_core::BatchLayout;
        // 12 blocks of order 6 + a ragged tail of order 9
        let mut sizes = vec![6usize; 12];
        sizes.push(9);
        let mut batch = random_batch(&sizes, 23);
        // one singular block inside the interleaved class
        {
            let n = 6;
            let block = batch.block_mut(4);
            for c in 0..n {
                block[c * n + 2] = block[c * n + 1];
            }
        }
        let blocked_plan = BatchPlan::auto_with_layout::<f64>(&sizes, BatchLayout::Blocked);
        let il_plan = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 2 },
        );
        assert_eq!(il_plan.layout_for(0), ClassLayout::Interleaved);
        assert_eq!(il_plan.layout_for(12), ClassLayout::Blocked);

        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| (i % 11) as f64 / 2.0 - 2.0).collect();
        for backend in [&CpuSequential as &dyn Backend<f64>, &CpuRayon] {
            let mut sb = ExecStats::new();
            let mut si = ExecStats::new();
            let fb = backend.factorize(batch.clone(), &blocked_plan, &mut sb);
            let fi = backend.factorize(batch.clone(), &il_plan, &mut si);
            assert!(fi.interleaved.iter().map(|c| c.count()).sum::<usize>() >= 12);
            assert_eq!(fb.fallback_count(), 1);
            assert_eq!(fi.fallback_count(), 1);
            assert_eq!(si.layout_histogram()["interleaved"], 12);
            assert_eq!(si.layout_histogram()["blocked"], 1);
            // bitwise-identical pivots for every LU block
            for blk in 0..sizes.len() {
                assert_eq!(fb.row_of_step(blk), fi.row_of_step(blk), "block {blk}");
                assert_eq!(fb.status[blk].is_fallback(), fi.status[blk].is_fallback());
            }
            // bitwise-identical solutions
            let mut rb = VectorBatch::from_flat(&sizes, &flat);
            let mut ri = VectorBatch::from_flat(&sizes, &flat);
            backend.solve(&fb, &mut rb, &mut sb);
            backend.solve(&fi, &mut ri, &mut si);
            assert_eq!(rb.as_slice(), ri.as_slice(), "{}", backend.name());
            assert!(ri.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn invert_matches_solve() {
        let sizes = [6usize, 11];
        let batch = random_batch(&sizes, 3);
        let mut stats = ExecStats::new();
        let (inv, status) = CpuRayon.invert(&batch, &mut stats);
        assert!(status.iter().all(|s| !s.is_fallback()));
        let total: usize = sizes.iter().sum();
        let flat: Vec<f64> = (0..total).map(|i| 1.0 + i as f64).collect();
        let x = VectorBatch::from_flat(&sizes, &flat);
        let mut via_inv = VectorBatch::zeros(&sizes);
        CpuRayon.apply_gemv(&inv, &x, &mut via_inv, &mut stats);

        let plan = BatchPlan::auto::<f64>(&sizes);
        let fact = CpuSequential.factorize(batch, &plan, &mut stats);
        let mut via_solve = VectorBatch::from_flat(&sizes, &flat);
        CpuSequential.solve(&fact, &mut via_solve, &mut stats);
        for (a, b) in via_inv.as_slice().iter().zip(via_solve.as_slice()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }
}
