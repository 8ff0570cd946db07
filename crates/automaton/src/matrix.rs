//! Small dense-matrix utilities for Markov-chain analysis.
//!
//! Automata in this workspace have at most a few hundred states, so plain
//! `Vec<Vec<f64>>` with `O(n³)` Gaussian elimination is simpler and faster
//! than pulling in a linear-algebra dependency.

/// Multiply two square matrices.
pub(crate) fn mat_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    debug_assert!(a.iter().all(|r| r.len() == n) && b.len() == n);
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i][j] += aik * b[k][j];
            }
        }
    }
    out
}

/// Matrix power by repeated squaring.
pub(crate) fn mat_pow(m: &[Vec<f64>], mut e: u64) -> Vec<Vec<f64>> {
    let n = m.len();
    let mut result: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect()).collect();
    let mut base = m.to_vec();
    while e > 0 {
        if e & 1 == 1 {
            result = mat_mul(&result, &base);
        }
        base = mat_mul(&base, &base);
        e >>= 1;
    }
    result
}

/// Solve the stationary equations `π P = π`, `Σ π = 1` for an irreducible
/// row-stochastic matrix `P`, by Gaussian elimination with partial
/// pivoting on the transposed system `(Pᵀ − I) πᵀ = 0` with the last
/// equation replaced by the normalisation constraint.
///
/// Works for periodic chains too (power iteration would not converge).
pub(crate) fn stationary_distribution(p: &[Vec<f64>]) -> Vec<f64> {
    let n = p.len();
    if n == 1 {
        return vec![1.0];
    }
    // Build A x = b with A = (P^T - I), last row replaced by ones.
    let mut a = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            a[i][j] = p[j][i] - if i == j { 1.0 } else { 0.0 };
        }
    }
    for cell in a[n - 1].iter_mut() {
        *cell = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        assert!(diag.abs() > 1e-12, "singular stationary system: matrix is not irreducible");
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            let pivot_vals: Vec<f64> = a[col][col..n].to_vec();
            for (k, pv) in (col..n).zip(pivot_vals) {
                a[row][k] -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    // Clean up tiny negative noise and renormalise.
    let mut total = 0.0;
    for v in &mut x {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
        total += *v;
    }
    for v in &mut x {
        *v /= total;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_mul_identity() {
        let m = vec![vec![0.25, 0.75], vec![0.5, 0.5]];
        let id = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(mat_mul(&m, &id), m);
        assert_eq!(mat_mul(&id, &m), m);
    }

    #[test]
    fn mat_pow_squares() {
        let m = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let m2 = mat_pow(&m, 2);
        assert_eq!(m2, vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let m3 = mat_pow(&m, 3);
        assert_eq!(m3, m);
        let m0 = mat_pow(&m, 0);
        assert_eq!(m0, vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn stationary_of_two_state_chain() {
        // P = [[1-a, a], [b, 1-b]] has stationary (b, a)/(a+b).
        let (a, b) = (0.3, 0.1);
        let p = vec![vec![1.0 - a, a], vec![b, 1.0 - b]];
        let pi = stationary_distribution(&p);
        assert!((pi[0] - b / (a + b)).abs() < 1e-10);
        assert!((pi[1] - a / (a + b)).abs() < 1e-10);
    }

    #[test]
    fn stationary_of_periodic_chain() {
        // Two-cycle: period 2, stationary (1/2, 1/2).
        let p = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let pi = stationary_distribution(&p);
        assert!((pi[0] - 0.5).abs() < 1e-10);
        assert!((pi[1] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn stationary_of_three_cycle() {
        let p = vec![vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0], vec![1.0, 0.0, 0.0]];
        let pi = stationary_distribution(&p);
        for v in pi {
            assert!((v - 1.0 / 3.0).abs() < 1e-10);
        }
    }

    #[test]
    fn stationary_is_fixed_point() {
        let p = vec![vec![0.1, 0.6, 0.3], vec![0.4, 0.2, 0.4], vec![0.25, 0.25, 0.5]];
        let pi = stationary_distribution(&p);
        for (j, &pi_j) in pi.iter().enumerate() {
            let pi_p_j: f64 = pi.iter().zip(&p).map(|(x, row)| x * row[j]).sum();
            assert!((pi_p_j - pi_j).abs() < 1e-10);
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }
}
