//! Answer checks built on public outputs only: the true relative
//! residual of a Krylov solve against the original `A` and `b`, and the
//! normwise backward error of a small dense solve against a retained
//! copy of its input.

use vbatch_sparse::{nrm2, residual, CsrMatrix};

/// Krylov answers pass when `‖b − A x‖ / ‖b‖ ≤ RELRES_TOL · RELRES_SLACK`.
/// The solver stops on its recurrence residual at 1e-6; the true residual
/// it reports can sit slightly above, so the check allows a factor of 10.
pub const RELRES_TOL: f64 = 1e-6;
pub const RELRES_SLACK: f64 = 10.0;

/// Dense answers pass when `η ≤ ETA_C · n · u` (`u` = f64 unit roundoff).
pub const ETA_C: f64 = 10.0;

/// True relative residual of `x` for `A x = b`.
pub fn true_relres(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    nrm2(&residual(a, x, b)) / nrm2(b)
}

/// Did a Krylov solve produce an acceptable answer?
pub fn krylov_ok(converged: bool, relres: f64) -> bool {
    converged && relres.is_finite() && relres <= RELRES_TOL * RELRES_SLACK
}

/// Normwise backward error `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` of `x`
/// for the column-major `n × n` system `a x = b`.
pub fn backward_error(n: usize, a: &[f64], x: &[f64], b: &[f64]) -> f64 {
    // `f64::max` skips NaN, so a non-finite answer is ruled out up front
    if !x.iter().all(|v| v.is_finite()) {
        return f64::INFINITY;
    }
    let mut r_inf = 0.0f64;
    let mut a_inf = 0.0f64;
    for i in 0..n {
        let mut acc = b[i];
        let mut row = 0.0;
        for j in 0..n {
            let aij = a[j * n + i];
            acc -= aij * x[j];
            row += aij.abs();
        }
        r_inf = r_inf.max(acc.abs());
        a_inf = a_inf.max(row);
    }
    let x_inf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let b_inf = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let eta = r_inf / (a_inf * x_inf + b_inf);
    if eta.is_nan() {
        f64::INFINITY
    } else {
        eta
    }
}

/// Does a dense answer meet `η ≤ c·n·u`?
pub fn dense_ok(n: usize, a: &[f64], x: &[f64], b: &[f64]) -> bool {
    backward_error(n, a, x, b) <= ETA_C * n as f64 * f64::EPSILON / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_sparse::CooMatrix;

    fn system() -> (usize, Vec<f64>, Vec<f64>) {
        // column-major 3×3, well conditioned
        let a = vec![4.0, 1.0, 0.5, -1.0, 3.0, 0.25, 0.5, -0.5, 5.0];
        (3, a, vec![1.0, 2.0, 3.0])
    }

    fn solve3(a: &[f64], b: &[f64]) -> Vec<f64> {
        let m = vbatch_core::DenseMat::from_col_major(3, 3, a);
        vbatch_core::solve_system(&m, b).expect("nonsingular")
    }

    #[test]
    fn dense_oracle_accepts_exact_and_rejects_corrupted() {
        let (n, a, b) = system();
        let x = solve3(&a, &b);
        assert!(dense_ok(n, &a, &x, &b));
        let mut bad = x.clone();
        bad[1] *= 1.0 + 1e-9;
        assert!(!dense_ok(n, &a, &bad, &b));
        let mut nan = x;
        nan[0] = f64::NAN;
        assert!(!dense_ok(n, &a, &nan, &b));
    }

    #[test]
    fn krylov_oracle_rejects_corrupted_solution() {
        let mut coo = CooMatrix::new(3, 3);
        let (_, a, b) = system();
        for j in 0..3 {
            for i in 0..3 {
                coo.push(i, j, a[j * 3 + i]);
            }
        }
        let csr = coo.to_csr();
        let x = solve3(&a, &b);
        assert!(krylov_ok(true, true_relres(&csr, &x, &b)));
        let mut bad = x.clone();
        bad[2] += 1e-3;
        assert!(!krylov_ok(true, true_relres(&csr, &bad, &b)));
        assert!(!krylov_ok(false, true_relres(&csr, &x, &b)));
    }
}
