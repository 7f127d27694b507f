//! `batch_lu`: the paper's Figs. 4–7 core — one large seeded batch of
//! variable-size DP blocks through `BatchPlan::auto`, `factorize`,
//! `prepare_apply` and repeated `solve_prepared` on the default
//! parallel backend. Sparse, solver and serve do no work here.
//!
//! Blocks are `R + s·P`: `R` uniform in [-1, 1], `P` a random
//! permutation and `s = 2√n`. That is well conditioned (cond ≲ 4) but
//! not diagonally dominant, so partial pivoting makes real choices.

use std::sync::Arc;
use std::time::Instant;

use vbatch_core::{Exec, MatrixBatch};
use vbatch_exec::{backend_for_exec, Backend, BatchPlan, ExecStats};
use vbatch_rt::rng::SmallRng;

use crate::krylov::kernel_metric;
use crate::oracle::dense_ok;
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::{Cfg, RunResult, Work};

const BLOCKS: usize = 40_000;
const BLOCKS_TINY: usize = 400;
const MIN_N: usize = 4;
const MAX_N: usize = 32;
/// `solve_prepared` calls per factorization.
const APPLIES: usize = 8;
/// Refinement sweeps allowed before a block counts as failed.
const MAX_SWEEPS: usize = 3;

pub fn make_batch(count: usize, seed: u64) -> (MatrixBatch<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sizes: Vec<usize> = (0..count)
        .map(|_| rng.gen_range(MIN_N..MAX_N + 1))
        .collect();
    let mut batch = MatrixBatch::zeros(&sizes);
    for (i, &n) in sizes.iter().enumerate() {
        let blk = batch.block_mut(i);
        for v in blk.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            perm.swap(k, rng.gen_range(0..k + 1));
        }
        let s = 2.0 * (n as f64).sqrt();
        for (row, &col) in perm.iter().enumerate() {
            blk[col * n + row] += s;
        }
    }
    let total: usize = sizes.iter().sum();
    let rhs = (0..total).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (batch, rhs)
}

/// Blocks whose solution in `x` fails the backward-error check.
pub fn failing_blocks(batch: &MatrixBatch<f64>, x: &[f64], rhs: &[f64]) -> Vec<usize> {
    let mut off = 0;
    let mut bad = Vec::new();
    for i in 0..batch.len() {
        let n = batch.size(i);
        let r = off..off + n;
        if !dense_ok(n, batch.block(i), &x[r.clone()], &rhs[r]) {
            bad.push(i);
        }
        off += n;
    }
    bad
}

/// One refinement sweep on the failing blocks: `x += A⁻¹ (b − A x)`.
fn refine(batch: &MatrixBatch<f64>, rhs: &[f64], x: &mut [f64], solve: &mut dyn FnMut(&mut [f64])) {
    let mut r = vec![0.0; x.len()];
    let mut off = 0;
    for i in 0..batch.len() {
        let n = batch.size(i);
        let a = batch.block(i);
        for row in 0..n {
            let mut acc = rhs[off + row];
            for col in 0..n {
                acc -= a[col * n + row] * x[off + col];
            }
            r[off + row] = acc;
        }
        off += n;
    }
    solve(&mut r);
    for (xi, di) in x.iter_mut().zip(&r) {
        *xi += di;
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> RunResult {
    let count = if cfg.tiny { BLOCKS_TINY } else { BLOCKS };
    let (batch, rhs) = tr.scope("bench.generate", || make_batch(count, cfg.seed));
    let backend: Arc<dyn Backend<f64>> = backend_for_exec(Exec::Parallel);
    let sizes = batch.sizes().to_vec();
    let cube: f64 = sizes.iter().map(|&n| (n * n * n) as f64).sum();
    let sq: f64 = sizes.iter().map(|&n| (n * n) as f64).sum();
    let factor_flops = 2.0 / 3.0 * cube;
    let apply_flops = 2.0 * sq;
    let bytes = (8 * batch.total_elements()) as f64;

    let mut res = RunResult::default();
    res.notes.insert("backend".into(), backend.name().into());
    res.notes.insert("blocks".into(), count.to_string());
    res.notes
        .insert("batch_bytes".into(), format!("{bytes:.0}"));

    let mut setup = Vec::new();
    let mut tts = Vec::new();
    let mut fact = Vec::new();
    let mut plan_t = Vec::new();
    let mut prep_t = Vec::new();
    let mut apply_lat = Vec::new();
    let mut sweeps = Vec::new();
    let mut v = vec![0.0; rhs.len()];
    let mut reps = 0u32;
    let t0 = Instant::now();
    // rep 0 is a warm-up: checked, not measured
    while reps < 4 || t0.elapsed().as_secs_f64() < cfg.seconds {
        tr.set_pass(reps);
        let blocks = tr.scope("bench.copy", || batch.clone());
        let t = Instant::now();
        let plan = tr.scope("exec.plan", || BatchPlan::auto::<f64>(&sizes));
        let t_plan = t.elapsed().as_secs_f64();
        let mut stats = ExecStats::new();
        let t = Instant::now();
        let factors = tr.scope("exec.factorize", || {
            backend.factorize(blocks, &plan, &mut stats)
        });
        let t_fact = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let prepared = tr.scope("exec.prepare", || backend.prepare_apply(&factors));
        let t_prep = t.elapsed().as_secs_f64();
        let mut lat = Vec::with_capacity(APPLIES);
        for _ in 0..APPLIES {
            v.copy_from_slice(&rhs);
            let t = Instant::now();
            tr.scope("exec.apply", || {
                backend.solve_prepared(&factors, &prepared, &mut v, &mut stats)
            });
            lat.push(t.elapsed().as_secs_f64());
        }
        // answer check, with refinement sweeps for blocks that miss
        let span = tr.begin("bench.check");
        let mut bad = failing_blocks(&batch, &v, &rhs);
        let mut n_sweeps = 1;
        while !bad.is_empty() && n_sweeps < MAX_SWEEPS {
            refine(&batch, &rhs, &mut v, &mut |r| {
                backend.solve_prepared(&factors, &prepared, r, &mut ExecStats::new())
            });
            n_sweeps += 1;
            bad = failing_blocks(&batch, &v, &rhs);
        }
        tr.end(span);
        res.attempted += count as u64;
        res.failed += bad.len() as u64;
        res.wrong += bad.len() as u64;
        if reps == 0 {
            res.notes
                .insert("plan.histogram".into(), plan.histogram_compact());
            res.notes
                .insert("plan.layout".into(), plan.layout_compact());
            res.notes
                .insert("exec.histogram".into(), stats.histogram_compact());
            for (k, n) in stats.kernel_histogram() {
                if let Some(name) = kernel_metric(k) {
                    res.layers.insert(name, *n as f64);
                }
            }
            res.layers.insert("exec.fallbacks", stats.failures as f64);
        } else {
            setup.push(t_plan + t_prep);
            tts.push(t_plan + t_fact + t_prep + lat[0]);
            fact.push(t_fact);
            plan_t.push(t_plan);
            prep_t.push(t_prep);
            sweeps.push(n_sweeps as f64);
            apply_lat.extend_from_slice(&lat);
        }
        reps += 1;
    }
    let measured = (reps - 1) as f64;
    let apply_med = median(&apply_lat);
    res.primary_s = median(&tts);

    let (q_light, tail_light) = tail(&apply_lat);
    let (q_heavy, tail_heavy) = tail(&fact);
    let e = &mut res.e2e;
    e.insert("setup_s", median(&setup));
    e.insert("tts_s", median(&tts));
    e.insert("iters", median(&sweeps));
    e.insert("factor_gflops", factor_flops / median(&fact) / 1e9);
    e.insert("apply_gflops", apply_flops / apply_med / 1e9);
    e.insert("p50_us.light", apply_med * 1e6);
    e.insert("p99_us.light", tail_light * 1e6);
    e.insert("p50_us.heavy", median(&fact) * 1e6);
    e.insert("p99_us.heavy", tail_heavy * 1e6);
    e.insert("max_rps", count as f64 / apply_med);

    let l = &mut res.layers;
    l.insert("exec.plan_s", plan_t.iter().sum::<f64>() / measured);
    l.insert("exec.prepare_s", prep_t.iter().sum::<f64>() / measured);
    l.insert("exec.factorize_s", fact.iter().sum::<f64>() / measured);
    l.insert("exec.apply_s", apply_lat.iter().sum::<f64>() / measured);
    // computed traffic: the factorization reads and writes every block
    // once; an apply reads the factors and reads and writes the vector
    let n_total = rhs.len() as f64;
    res.work.insert(
        "exec",
        Work {
            flops: factor_flops + APPLIES as f64 * apply_flops,
            bytes: 2.0 * bytes + APPLIES as f64 * (bytes + 16.0 * n_total),
            secs: (fact.iter().sum::<f64>() + apply_lat.iter().sum::<f64>()) / measured,
        },
    );
    res.notes
        .insert("samples.light".into(), apply_lat.len().to_string());
    res.notes
        .insert("samples.heavy".into(), fact.len().to_string());
    res.notes
        .insert("tail_q.light".into(), format!("{q_light:.4}"));
    res.notes
        .insert("tail_q.heavy".into(), format!("{q_heavy:.4}"));
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_core::DenseMat;

    fn exact(batch: &MatrixBatch<f64>, rhs: &[f64]) -> Vec<f64> {
        let mut x = Vec::with_capacity(rhs.len());
        let mut off = 0;
        for i in 0..batch.len() {
            let n = batch.size(i);
            let m = DenseMat::from_col_major(n, n, batch.block(i));
            x.extend(vbatch_core::solve_system(&m, &rhs[off..off + n]).expect("nonsingular"));
            off += n;
        }
        x
    }

    #[test]
    fn batch_is_seeded_and_spans_the_size_range() {
        let (a, ra) = make_batch(300, 4);
        let (b, rb) = make_batch(300, 4);
        assert_eq!((&a, &ra), (&b, &rb));
        assert_ne!(make_batch(300, 5).0, a);
        assert_eq!(*a.sizes().iter().min().unwrap(), MIN_N);
        assert_eq!(*a.sizes().iter().max().unwrap(), MAX_N);
    }

    #[test]
    fn oracle_flags_exactly_the_corrupted_block() {
        let (batch, rhs) = make_batch(50, 11);
        let mut x = exact(&batch, &rhs);
        assert!(failing_blocks(&batch, &x, &rhs).is_empty());
        let off: usize = batch.sizes()[..7].iter().sum();
        x[off + 1] *= 1.0 + 1e-8;
        assert_eq!(failing_blocks(&batch, &x, &rhs), vec![7]);
    }

    #[test]
    fn refinement_repairs_a_perturbed_solution() {
        let (batch, rhs) = make_batch(20, 3);
        let good = exact(&batch, &rhs);
        let mut x: Vec<f64> = good.iter().map(|v| v * (1.0 + 1e-6)).collect();
        assert!(!failing_blocks(&batch, &x, &rhs).is_empty());
        refine(&batch, &rhs, &mut x, &mut |r| {
            let solved = exact(&batch, r);
            r.copy_from_slice(&solved);
        });
        assert!(failing_blocks(&batch, &x, &rhs).is_empty());
    }
}
