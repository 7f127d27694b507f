//! `CpuRayon` runs every block on the `vbatch-rt` worker pool, which
//! hands out index ranges in whatever order the threads claim them.
//! Blocks are independent, so the parallel backend must still agree
//! with `CpuSequential` to the bit: same fallback map, same solution,
//! on one batch that mixes interleaved classes, blocked ragged blocks
//! and singular blocks in both layouts — and repeated applies must not
//! drift with the scheduling.

use vbatch_core::{BatchLayout, MatrixBatch, VectorBatch};
use vbatch_exec::{
    Backend, BatchPlan, ClassLayout, CpuRayon, CpuSequential, ExecStats, PlanMethod,
};
use vbatch_rt::{run_cases, testgen, SmallRng};

/// Two classes big enough to interleave, ragged blocked sizes (one
/// beyond the small-size kernels), and one exactly singular block in
/// each layout.
fn mixed_batch(rng: &mut SmallRng) -> (MatrixBatch<f64>, [usize; 2]) {
    let mut sizes = vec![6; 40];
    sizes.extend(std::iter::repeat_n(12, 20));
    sizes.extend([3, 5, 9, 17, 33, 1, 27]);
    // shuffle so classes are scattered through the batch
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..i + 1));
    }
    let raw = testgen::dd_batch_of(rng, &sizes);
    let mut batch = MatrixBatch::zeros(&sizes);
    for i in 0..batch.len() {
        batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
    }
    let in_class = sizes.iter().position(|&n| n == 6).unwrap();
    let ragged = sizes.iter().position(|&n| n == 9).unwrap();
    for victim in [in_class, ragged] {
        let n = batch.size(victim);
        let block = batch.block_mut(victim);
        for c in 0..n {
            block[c * n + 1] = block[c * n];
        }
    }
    (batch, [in_class, ragged])
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn rayon_matches_sequential_bitwise_on_mixed_batches() {
    run_cases("pool_parity_mixed", 6, |rng, _case| {
        let (batch, victims) = mixed_batch(rng);
        let mut rhs = VectorBatch::zeros(batch.sizes());
        for v in rhs.as_mut_slice() {
            *v = rng.gen_range(-4.0..4.0);
        }
        let plan = BatchPlan::for_method_with_layout::<f64>(
            batch.sizes(),
            PlanMethod::SmallLu,
            BatchLayout::Interleaved { class_capacity: 8 },
        );
        let layouts: Vec<ClassLayout> = (0..batch.len()).map(|b| plan.layout_for(b)).collect();
        assert!(layouts.contains(&ClassLayout::Interleaved));
        assert!(layouts.contains(&ClassLayout::Blocked));
        assert_eq!(layouts[victims[0]], ClassLayout::Interleaved);
        assert_eq!(layouts[victims[1]], ClassLayout::Blocked);

        let mut stats = ExecStats::new();
        let seq = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        let par = CpuRayon.factorize(batch.clone(), &plan, &mut stats);
        for victim in victims {
            assert!(
                seq.status[victim].is_fallback(),
                "block {victim} must degrade"
            );
        }
        for b in 0..batch.len() {
            assert_eq!(
                par.status[b].is_fallback(),
                seq.status[b].is_fallback(),
                "block {b} fallback map"
            );
        }

        let seq_prep = CpuSequential.prepare_apply(&seq);
        let mut want = rhs.as_slice().to_vec();
        CpuSequential.solve_prepared(&seq, &seq_prep, &mut want, &mut stats);
        assert!(want.iter().all(|x| x.is_finite()));

        let par_prep = CpuRayon.prepare_apply(&par);
        for pass in 0..20 {
            let mut got = rhs.as_slice().to_vec();
            CpuRayon.solve_prepared(&par, &par_prep, &mut got, &mut stats);
            assert_eq!(bits(&got), bits(&want), "prepared apply, pass {pass}");
        }
        let mut solved = rhs.clone();
        CpuRayon.solve(&par, &mut solved, &mut stats);
        assert_eq!(bits(solved.as_slice()), bits(&want), "plain solve");
    });
}
