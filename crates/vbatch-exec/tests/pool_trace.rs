//! Pool workers reserve one trace ring each, at spawn. Run with
//! `--features vbatch-trace/trace`: however many parallel applies run,
//! the ring registry grows by at most the pool's worker count and no
//! worker span is dropped for want of a ring. (Without the feature the
//! registry stays empty and the assertions hold trivially.)
//!
//! Kept alone in its own test binary: a concurrent test thread would
//! add a ring of its own.

use vbatch_core::{BatchLayout, MatrixBatch};
use vbatch_exec::{Backend, BatchPlan, CpuRayon, ExecStats, PlanMethod};
use vbatch_rt::{par::num_threads, testgen, SmallRng};

#[test]
fn parallel_applies_reuse_the_worker_rings() {
    vbatch_trace::set_enabled(true);
    vbatch_trace::reserve_thread_ring(0);
    let rings_before = vbatch_trace::ring_count();
    let dropped_before = vbatch_trace::dropped();

    let mut rng = SmallRng::seed_from_u64(7);
    let sizes: Vec<usize> = (0..64).map(|i| 4 + i % 13).collect();
    let raw = testgen::dd_batch_of(&mut rng, &sizes);
    let mut batch = MatrixBatch::zeros(&sizes);
    for i in 0..batch.len() {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    let plan =
        BatchPlan::for_method_with_layout::<f64>(&sizes, PlanMethod::Auto, BatchLayout::Blocked);
    let mut stats = ExecStats::new();
    let factors = CpuRayon.factorize(batch, &plan, &mut stats);
    let prepared = CpuRayon.prepare_apply(&factors);
    let mut v: Vec<f64> = (0..prepared.total())
        .map(|i| 1.0 + (i % 5) as f64)
        .collect();
    for _ in 0..200 {
        CpuRayon.solve_prepared(&factors, &prepared, &mut v, &mut stats);
    }
    assert!(v.iter().all(|x| x.is_finite()));

    assert_eq!(
        vbatch_trace::dropped(),
        dropped_before,
        "worker spans dropped"
    );
    let grown = vbatch_trace::ring_count() - rings_before;
    assert!(
        grown < num_threads(),
        "{grown} new rings for {} pool workers",
        num_threads() - 1
    );
    if vbatch_trace::enabled() {
        let applies = vbatch_trace::snapshot().span_count("exec.apply");
        assert!(applies >= 200, "only {applies} apply spans recorded");
    }
}
