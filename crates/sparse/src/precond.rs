//! Preconditioners for the conjugate gradient solver.

use crate::csr::CsrMatrix;

/// Applies an approximation of `A^{-1}` to a residual. The paper's
/// section 4.1 calls for "a conjugate gradient approach with
/// preconditioning"; Jacobi is the classical choice for the strongly
/// diagonally dominant placement matrices.
pub trait Preconditioner {
    /// Computes `z = M^{-1} r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r` and `z` lengths differ from the
    /// dimension the preconditioner was built for.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (`M = I`); the plain CG baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone, Default)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from a matrix's diagonal. Zero or
    /// negative diagonal entries (which would make CG meaningless anyway)
    /// fall back to `1.0` so `apply` stays finite.
    #[must_use]
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        let mut p = Self::default();
        p.refresh_from(a);
        p
    }

    /// Rebuilds the preconditioner in place for a (re-assembled) matrix,
    /// reusing the stored vector — the arena path calls this once per
    /// transformation without allocating.
    pub fn refresh_from(&mut self, a: &CsrMatrix) {
        a.diagonal_into(&mut self.inv_diag);
        for d in &mut self.inv_diag {
            *d = if *d > f64::MIN_POSITIVE { 1.0 / *d } else { 1.0 };
        }
    }

    /// Sizes the stored diagonal for an `n x n` matrix, so a later
    /// [`refresh_from`](Self::refresh_from) allocates nothing.
    pub fn reserve(&mut self, n: usize) {
        self.inv_diag.reserve_exact(n.saturating_sub(self.inv_diag.len()));
    }

    /// Entries the stored diagonal holds without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inv_diag.capacity()
    }

    /// Dimension the preconditioner was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.inv_diag.len()
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.inv_diag.len(), "residual length mismatch");
        assert_eq!(z.len(), self.inv_diag.len(), "output length mismatch");
        for i in 0..r.len() {
            z[i] = r[i] * self.inv_diag[i];
        }
    }
}

/// Symmetric successive over-relaxation preconditioner:
/// `M = (D/ω + L) · (ω/(2−ω)) · D⁻¹ · (D/ω + U)` for `A = L + D + U`.
/// Stronger than Jacobi on mesh-like placement matrices at the price of
/// two triangular solves per application.
#[derive(Debug, Clone)]
pub struct SsorPreconditioner {
    /// Lower-triangular entries per row (column, value), column-sorted.
    lower: Vec<Vec<(u32, f64)>>,
    diag: Vec<f64>,
    omega: f64,
}

impl SsorPreconditioner {
    /// Builds the preconditioner. `omega` in `(0, 2)`; `1.0` gives
    /// symmetric Gauss–Seidel, which is a solid default.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `(0, 2)`.
    #[must_use]
    pub fn from_matrix(a: &CsrMatrix, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "omega must be in (0, 2)");
        let n = a.dim();
        let mut lower = vec![Vec::new(); n];
        let mut diag = vec![1.0; n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j < i {
                    lower[i].push((j as u32, v));
                } else if j == i && v > f64::MIN_POSITIVE {
                    diag[i] = v;
                }
            }
        }
        Self { lower, diag, omega }
    }

    /// Dimension the preconditioner was built for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.diag.len()
    }
}

impl Preconditioner for SsorPreconditioner {
    /// Applies `z = M⁻¹ r` with
    /// `M = (D + ωL) D⁻¹ (D + ωU) / (ω(2−ω))`:
    /// forward substitution, diagonal scaling, backward substitution. The
    /// backward solve uses the symmetry `U_ij = L_ji` by scattering each
    /// finalized `z_i` into the earlier rows.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.diag.len();
        assert_eq!(r.len(), n, "residual length mismatch");
        assert_eq!(z.len(), n, "output length mismatch");
        let w = self.omega;
        // Forward: (D + ωL) t = r, t stored in z.
        for i in 0..n {
            let mut acc = r[i];
            for &(j, v) in &self.lower[i] {
                acc -= w * v * z[j as usize];
            }
            z[i] = acc / self.diag[i];
        }
        // Middle: s = ω(2−ω) · D · t.
        for i in 0..n {
            z[i] *= w * (2.0 - w) * self.diag[i];
        }
        // Backward: (D + ωU) z = s, in place.
        for i in (0..n).rev() {
            z[i] /= self.diag[i];
            let zi = z[i];
            for &(j, v) in &self.lower[i] {
                z[j as usize] -= w * v * zi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooMatrix;

    #[test]
    fn identity_copies() {
        let r = [1.0, -2.0];
        let mut z = [0.0; 2];
        IdentityPreconditioner.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        let a = coo.into_csr();
        let p = JacobiPreconditioner::from_matrix(&a);
        assert_eq!(p.dim(), 2);
        let mut z = [0.0; 2];
        p.apply(&[2.0, 2.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn ssor_equals_scaled_jacobi_on_diagonal_matrices() {
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        coo.push(2, 2, 8.0);
        let a = coo.into_csr();
        let p = SsorPreconditioner::from_matrix(&a, 1.0);
        assert_eq!(p.dim(), 3);
        let mut z = [0.0; 3];
        p.apply(&[2.0, 4.0, 8.0], &mut z);
        // M = D for omega = 1 on a diagonal matrix: z = D^-1 r = 1.
        for v in z {
            assert!((v - 1.0).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn ssor_solves_a_triangular_system_consistently() {
        // Verify M z = r by applying M explicitly for a small SPD matrix.
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 4.0);
        coo.push_sym(0, 1, -1.0);
        coo.push(1, 1, 4.0);
        coo.push_sym(1, 2, -2.0);
        coo.push(2, 2, 5.0);
        let a = coo.into_csr();
        let w = 1.3;
        let p = SsorPreconditioner::from_matrix(&a, w);
        let r = [1.0, -2.0, 3.0];
        let mut z = [0.0; 3];
        p.apply(&r, &mut z);
        // Reconstruct M z = (D + wL) D^-1 (D + wU) z / (w(2-w)).
        let d = [4.0, 4.0, 5.0];
        let l01 = -1.0;
        let l12 = -2.0;
        // (D + wU) z
        let u = [
            d[0] * z[0] + w * l01 * z[1],
            d[1] * z[1] + w * l12 * z[2],
            d[2] * z[2],
        ];
        // D^-1 ·
        let m = [u[0] / d[0], u[1] / d[1], u[2] / d[2]];
        // (D + wL) ·
        let mz = [
            d[0] * m[0],
            w * l01 * m[0] + d[1] * m[1],
            w * l12 * m[1] + d[2] * m[2],
        ];
        for i in 0..3 {
            let lhs = mz[i] / (w * (2.0 - w));
            assert!((lhs - r[i]).abs() < 1e-10, "row {i}: {lhs} vs {}", r[i]);
        }
    }

    #[test]
    #[should_panic(expected = "omega must be in (0, 2)")]
    fn ssor_rejects_bad_omega() {
        let mut coo = CooMatrix::new(1);
        coo.push(0, 0, 1.0);
        let _ = SsorPreconditioner::from_matrix(&coo.into_csr(), 2.5);
    }

    #[test]
    fn jacobi_refresh_rebuilds_without_reallocating() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        let a = coo.into_csr();
        let mut p = JacobiPreconditioner::from_matrix(&a);
        let cap = p.inv_diag.capacity();
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 8.0);
        coo.push(1, 1, 16.0);
        p.refresh_from(&coo.into_csr());
        assert_eq!(p.inv_diag.capacity(), cap);
        let mut z = [0.0; 2];
        p.apply(&[8.0, 8.0], &mut z);
        assert_eq!(z, [1.0, 0.5]);
    }

    #[test]
    fn jacobi_survives_zero_diagonal() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0); // row 1 has no diagonal
        let a = coo.into_csr();
        let p = JacobiPreconditioner::from_matrix(&a);
        let mut z = [0.0; 2];
        p.apply(&[1.0, 1.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[1], 1.0);
    }
}
