//! The force field abstraction and solver trait.

use crate::map::ScalarMap;
use kraftwerk_geom::{Point, Rect, Vector};

/// A sampled vector field over the core region: the additional forces of
/// section 3, one vector per bin, bilinearly interpolated in between.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceField {
    fx: ScalarMap,
    fy: ScalarMap,
}

impl ForceField {
    /// Wraps two scalar component maps. Both must share a grid.
    ///
    /// # Panics
    ///
    /// Panics if the component grids differ in dimensions or region.
    #[must_use]
    pub fn new(fx: ScalarMap, fy: ScalarMap) -> Self {
        assert_eq!(fx.nx(), fy.nx(), "component grids differ");
        assert_eq!(fx.ny(), fy.ny(), "component grids differ");
        assert_eq!(fx.region(), fy.region(), "component regions differ");
        Self { fx, fy }
    }

    /// A zero field on an `nx * ny` grid over `region`. Reuse seed for
    /// solvers with an in-place path ([`crate::MultigridSolver::solve_reusing`]).
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0`, `ny == 0`, or the region is degenerate.
    #[must_use]
    pub fn zeros(region: Rect, nx: usize, ny: usize) -> Self {
        Self {
            fx: ScalarMap::zeros(region, nx, ny),
            fy: ScalarMap::zeros(region, nx, ny),
        }
    }

    /// Re-shapes both component maps in place, reusing their allocations.
    pub(crate) fn reset(&mut self, region: Rect, nx: usize, ny: usize) {
        self.fx.reset(region, nx, ny);
        self.fy.reset(region, nx, ny);
    }

    /// Writes both components of one bin (crate-internal solver hook; the
    /// shared-grid invariant is kept because [`ForceField::reset`] shapes
    /// both maps together).
    pub(crate) fn set_bin(&mut self, ix: usize, iy: usize, gx: f64, gy: f64) {
        self.fx.set(ix, iy, gx);
        self.fy.set(ix, iy, gy);
    }

    /// The force vector at an arbitrary point (bilinear interpolation,
    /// clamped at the region border).
    #[must_use]
    pub fn force_at(&self, p: Point) -> Vector {
        Vector::new(self.fx.sample(p), self.fy.sample(p))
    }

    /// The x-component map.
    #[must_use]
    pub fn fx(&self) -> &ScalarMap {
        &self.fx
    }

    /// The y-component map.
    #[must_use]
    pub fn fy(&self) -> &ScalarMap {
        &self.fy
    }

    /// Bins per component the field holds without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.fx.capacity().min(self.fy.capacity())
    }

    /// The largest force magnitude over all bins. Section 4.1 scales the
    /// field so this equals the force of a net of length `K(W+H)`.
    #[must_use]
    pub fn max_magnitude(&self) -> f64 {
        self.fx
            .values()
            .iter()
            .zip(self.fy.values())
            .map(|(&x, &y)| Vector::new(x, y).norm())
            .fold(0.0, f64::max)
    }

    /// Multiplies both components by a constant (the `k` of equation (5)).
    pub fn scale(&mut self, factor: f64) {
        self.fx.scale(factor);
        self.fy.scale(factor);
    }

    /// Discrete divergence at an interior bin (central differences).
    /// Diagnostic: by equation (5) the divergence is proportional to the
    /// density; tests use it to verify requirement 2.
    ///
    /// # Panics
    ///
    /// Panics if `(ix, iy)` is on the grid border.
    #[must_use]
    pub fn divergence_at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix > 0 && iy > 0 && ix + 1 < self.fx.nx() && iy + 1 < self.fx.ny(),
            "divergence needs an interior bin"
        );
        let ddx = (self.fx.get(ix + 1, iy) - self.fx.get(ix - 1, iy)) / (2.0 * self.fx.dx());
        let ddy = (self.fy.get(ix, iy + 1) - self.fy.get(ix, iy - 1)) / (2.0 * self.fy.dy());
        ddx + ddy
    }

    /// Discrete curl (z-component) at an interior bin. Requirement 3 says
    /// the field is conservative, i.e. curl-free; tests verify this stays
    /// at discretization noise.
    ///
    /// # Panics
    ///
    /// Panics if `(ix, iy)` is on the grid border.
    #[must_use]
    pub fn curl_at(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix > 0 && iy > 0 && ix + 1 < self.fx.nx() && iy + 1 < self.fx.ny(),
            "curl needs an interior bin"
        );
        let dfy_dx = (self.fy.get(ix + 1, iy) - self.fy.get(ix - 1, iy)) / (2.0 * self.fy.dx());
        let dfx_dy = (self.fx.get(ix, iy + 1) - self.fx.get(ix, iy - 1)) / (2.0 * self.fx.dy());
        dfy_dx - dfx_dy
    }
}

/// Computes the additional-force field from a density deviation map.
///
/// Implementations must honour the four requirements of section 3.2:
/// locality, density sources/sinks, zero curl, decay at infinity. The two
/// provided implementations are [`crate::DirectSolver`] (exact
/// superposition, the reference) and [`crate::MultigridSolver`] (fast
/// Poisson solve, the production path).
pub trait FieldSolver {
    /// Computes the (unscaled, `k = 1`) force field for a density map.
    fn solve(&self, density: &ScalarMap) -> ForceField;

    /// Human-readable solver name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_geom::Rect;

    fn constant_field(v: Vector) -> ForceField {
        let region = Rect::new(0.0, 0.0, 4.0, 4.0);
        let mut fx = ScalarMap::zeros(region, 4, 4);
        let mut fy = ScalarMap::zeros(region, 4, 4);
        for iy in 0..4 {
            for ix in 0..4 {
                fx.set(ix, iy, v.x);
                fy.set(ix, iy, v.y);
            }
        }
        ForceField::new(fx, fy)
    }

    #[test]
    fn sampling_a_constant_field() {
        let f = constant_field(Vector::new(2.0, -1.0));
        assert_eq!(f.force_at(Point::new(1.7, 2.3)), Vector::new(2.0, -1.0));
        assert_eq!(f.max_magnitude(), Vector::new(2.0, -1.0).norm());
    }

    #[test]
    fn scale_multiplies_forces() {
        let mut f = constant_field(Vector::new(1.0, 0.0));
        f.scale(3.0);
        assert_eq!(f.force_at(Point::new(2.0, 2.0)), Vector::new(3.0, 0.0));
    }

    #[test]
    fn constant_field_has_zero_divergence_and_curl() {
        let f = constant_field(Vector::new(1.0, 1.0));
        assert_eq!(f.divergence_at(1, 1), 0.0);
        assert_eq!(f.curl_at(2, 2), 0.0);
    }

    #[test]
    fn radial_field_has_positive_divergence() {
        // f = (x - cx, y - cy) has divergence 2 and curl 0.
        let region = Rect::new(0.0, 0.0, 4.0, 4.0);
        let mut fx = ScalarMap::zeros(region, 8, 8);
        let mut fy = ScalarMap::zeros(region, 8, 8);
        for iy in 0..8 {
            for ix in 0..8 {
                let c = fx.bin_center(ix, iy);
                fx.set(ix, iy, c.x - 2.0);
                fy.set(ix, iy, c.y - 2.0);
            }
        }
        let f = ForceField::new(fx, fy);
        assert!((f.divergence_at(4, 4) - 2.0).abs() < 1e-9);
        assert!(f.curl_at(4, 4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "component grids differ")]
    fn mismatched_components_panic() {
        let region = Rect::new(0.0, 0.0, 4.0, 4.0);
        let _ = ForceField::new(
            ScalarMap::zeros(region, 4, 4),
            ScalarMap::zeros(region, 5, 4),
        );
    }
}
