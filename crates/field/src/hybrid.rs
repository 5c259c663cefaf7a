//! Hybrid Poisson backend: a spectral coarse seed under multigrid
//! refinement.
//!
//! A cold multigrid solve spends its first V-cycles rebuilding the
//! low-frequency shape of the potential — exactly the content a direct
//! DST solve produces for free. The hybrid backend therefore runs one
//! exact spectral solve on the half-resolution grid (`(m+1)/2` vertices,
//! ~¼ the transform work of a full spectral solve), bilinearly prolongs
//! it as the fine-grid initial guess, and lets V-cycles erase the
//! remaining (mostly high-frequency, smoother-friendly) interpolation
//! error — the classic full-multigrid (FMG) pattern with a spectral
//! bottom solve. The result converges to the same discrete solution as
//! the other backends (same [`crate::grid`] geometry, same tolerance
//! semantics as [`MultigridSolver`]) in fewer cycles than a zero initial
//! guess.
//!
//! Determinism: the restriction and V-cycles share the multigrid
//! backend's fixed row-chunk kernels, the prolongation is serial, and the
//! coarse DST solve uses the same fixed-chunk parallel kernel as the
//! spectral backend, so results are bitwise identical at any
//! `KRAFTWERK_THREADS` setting.

use crate::field::{FieldSolver, ForceField};
use crate::grid::{self, SavedSolve, SolveGrid};
use crate::map::ScalarMap;
use crate::multigrid::{self, VcycleBufs};
use crate::spectral::DstKernel;

/// Spectral-seeded multigrid Poisson solver.
///
/// Geometry knobs (`padding`, `max_vertices`) are shared with the other
/// backends so all of them solve the identical discrete system; the
/// iteration knobs (`tolerance`, `max_cycles`) govern the refinement
/// V-cycles exactly as in [`MultigridSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridSolver {
    /// Border fraction added on each side of the density region.
    pub padding: f64,
    /// Relative residual reduction target for the refinement V-cycles.
    pub tolerance: f64,
    /// Maximum number of refinement V-cycles after the spectral seed.
    pub max_cycles: usize,
    /// Cap on vertices per side (`2^k + 1`), matching the other backends.
    pub max_vertices: usize,
}

impl Default for HybridSolver {
    fn default() -> Self {
        Self {
            padding: 0.5,
            tolerance: 1e-7,
            max_cycles: 30,
            max_vertices: 1025,
        }
    }
}

impl HybridSolver {
    /// Creates the solver with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable buffers for [`HybridSolver::solve_reusing`]: the fine-grid
/// RHS/potential, smoother halo rows and V-cycle scratch, plus the
/// coarse-grid RHS, potential and DST kernel for the spectral seed. All
/// grow-only, so holding one across placement iterations makes the
/// steady-state hybrid solve allocation-free. The solved potential and its [`SavedSolve`]
/// geometry record stay behind for [`HybridSolver::potential_map`].
#[derive(Debug, Default)]
pub struct HybridWorkspace {
    kernel: DstKernel,
    rhs: Vec<f64>,
    phi: Vec<f64>,
    halo: Vec<f64>,
    depth: Vec<VcycleBufs>,
    coarse_rhs: Vec<f64>,
    coarse_phi: Vec<f64>,
    saved: Option<SavedSolve>,
}

impl HybridSolver {
    /// In-place variant of [`FieldSolver::solve`]: the same hybrid solve,
    /// but every buffer comes from `ws` and the force field is written
    /// into `out` (re-shaped to the density grid). Bin values are bitwise
    /// identical to the allocating path and to every `KRAFTWERK_THREADS`
    /// setting.
    pub fn solve_reusing(
        &self,
        density: &ScalarMap,
        ws: &mut HybridWorkspace,
        out: &mut ForceField,
    ) {
        let _timer = kraftwerk_trace::span("hybrid.solve");
        let solve_grid = SolveGrid::for_density(density, self.padding, self.max_vertices);
        let SolveGrid { m, h, .. } = solve_grid;
        let m_coarse = m.div_ceil(2);

        let HybridWorkspace { kernel, rhs, phi, halo, depth, coarse_rhs, coarse_phi, saved } = ws;
        grid::deposit_rhs(density, &solve_grid, rhs);
        phi.clear();
        phi.resize(m * m, 0.0);

        let rhs_norm: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tracing = kraftwerk_trace::enabled();
        let mut coarse_s = 0.0f64;
        let mut cycle_residuals = Vec::new();
        let mut converged = rhs_norm == 0.0;
        if rhs_norm > 0.0 {
            // Spectral seed: restrict the RHS to the half-resolution
            // grid, solve it exactly with the DST kernel, prolong the
            // coarse potential as the fine initial guess (FMG-style).
            let t0 = tracing.then(std::time::Instant::now);
            coarse_rhs.resize(m_coarse * m_coarse, 0.0); // restrict() overwrites every entry
            multigrid::restrict(m, rhs, coarse_rhs);
            coarse_phi.clear();
            coarse_phi.resize(m_coarse * m_coarse, 0.0);
            kernel.solve(coarse_rhs, coarse_phi, m_coarse, 2.0 * h);
            multigrid::prolong_add(m_coarse, coarse_phi, phi);
            if let Some(t0) = t0 {
                coarse_s = t0.elapsed().as_secs_f64();
            }
            // Refinement: V-cycles from the seeded guess to tolerance.
            converged = multigrid::vcycle_to_tolerance(
                m,
                h,
                phi,
                rhs,
                depth,
                halo,
                rhs_norm,
                self.tolerance,
                self.max_cycles,
                tracing.then_some(&mut cycle_residuals),
            );
        }
        if tracing {
            kraftwerk_trace::event(
                "hybrid.solve",
                vec![
                    ("vertices_per_side", kraftwerk_trace::Value::from(m)),
                    ("coarse_vertices", kraftwerk_trace::Value::from(m_coarse)),
                    ("trivial", kraftwerk_trace::Value::from(rhs_norm == 0.0)),
                    ("coarse_s", kraftwerk_trace::Value::from(coarse_s)),
                    ("cycles", kraftwerk_trace::Value::from(cycle_residuals.len())),
                    ("converged", kraftwerk_trace::Value::from(converged)),
                    ("relative_residuals", kraftwerk_trace::Value::from(cycle_residuals)),
                ],
            );
            kraftwerk_trace::counter("hybrid.solves", 1);
        }

        grid::write_forces(phi, &solve_grid, density, out);
        *saved = Some(SavedSolve {
            grid: solve_grid,
            padding: self.padding,
            max_vertices: self.max_vertices,
        });
    }

    /// Samples the Poisson potential φ left in `ws` by the most recent
    /// [`solve_reusing`](Self::solve_reusing) call onto the bin centers
    /// of `density`. Returns `None` when the workspace has not been used
    /// yet, or when `density` (or this solver's geometry parameters) does
    /// not describe the same discrete system the workspace was solved on
    /// (see [`SavedSolve`]). This is the export behind the `potential`
    /// field snapshots.
    #[must_use]
    pub fn potential_map(&self, density: &ScalarMap, ws: &HybridWorkspace) -> Option<ScalarMap> {
        let saved = ws.saved.as_ref()?;
        if !saved.matches(density, self.padding, self.max_vertices) {
            return None;
        }
        Some(grid::sample_potential(&ws.phi, &saved.grid, density))
    }
}

impl FieldSolver for HybridSolver {
    fn solve(&self, density: &ScalarMap) -> ForceField {
        let mut out = ForceField::zeros(density.region(), density.nx(), density.ny());
        self.solve_reusing(density, &mut HybridWorkspace::default(), &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigrid::{MultigridSolver, MultigridWorkspace};
    use kraftwerk_geom::{Point, Rect};
    use rand::{Rng, SeedableRng};

    fn random_balanced_density(seed: u64, nx: usize, ny: usize) -> ScalarMap {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), nx, ny);
        for iy in 0..ny {
            for ix in 0..nx {
                d.set(ix, iy, rng.gen_range(0.0..1.0));
            }
        }
        d.balance();
        d
    }

    #[test]
    fn potential_matches_multigrid_to_one_part_per_million() {
        for (seed, nx, ny) in [(31u64, 16usize, 16usize), (32, 24, 24), (33, 33, 17)] {
            let d = random_balanced_density(seed, nx, ny);
            let hybrid = HybridSolver { tolerance: 1e-12, max_cycles: 300, ..HybridSolver::new() };
            let mut hy_ws = HybridWorkspace::default();
            let mut hy_out = ForceField::zeros(d.region(), d.nx(), d.ny());
            hybrid.solve_reusing(&d, &mut hy_ws, &mut hy_out);
            let hy_phi = hybrid.potential_map(&d, &hy_ws).expect("hybrid potential");

            let mg = MultigridSolver { tolerance: 1e-12, max_cycles: 300, ..MultigridSolver::new() };
            let mut mg_ws = MultigridWorkspace::default();
            let mut mg_out = ForceField::zeros(d.region(), d.nx(), d.ny());
            mg.solve_reusing(&d, &mut mg_ws, &mut mg_out);
            let mg_phi = mg.potential_map(&d, &mg_ws).expect("multigrid potential");

            let mut err_sq = 0.0;
            let mut base_sq = 0.0;
            for iy in 0..d.ny() {
                for ix in 0..d.nx() {
                    err_sq += (hy_phi.get(ix, iy) - mg_phi.get(ix, iy)).powi(2);
                    base_sq += mg_phi.get(ix, iy).powi(2);
                }
            }
            let rel = (err_sq / base_sq).sqrt();
            assert!(rel <= 1e-6, "grid {nx}x{ny}: relative potential error {rel:e}");
        }
    }

    #[test]
    fn the_spectral_seed_converges_in_fewer_cycles_than_a_cold_start() {
        // Both solvers get exactly one V-cycle at an unreachable
        // tolerance; the hybrid's seeded start must land materially
        // closer to the converged reference than the cold start does.
        let d = random_balanced_density(37, 24, 24);
        let reference = MultigridSolver { tolerance: 1e-12, max_cycles: 300, ..MultigridSolver::new() }
            .solve(&d);
        let one_cycle = |hybrid: bool| -> ForceField {
            if hybrid {
                HybridSolver { tolerance: 1e-15, max_cycles: 1, ..HybridSolver::new() }.solve(&d)
            } else {
                MultigridSolver { tolerance: 1e-15, max_cycles: 1, ..MultigridSolver::new() }
                    .solve(&d)
            }
        };
        let err = |f: &ForceField| -> f64 {
            let mut e = 0.0;
            for iy in 0..d.ny() {
                for ix in 0..d.nx() {
                    let c = d.bin_center(ix, iy);
                    e += (f.force_at(c) - reference.force_at(c)).norm_sq();
                }
            }
            e.sqrt()
        };
        let seeded = err(&one_cycle(true));
        let cold = err(&one_cycle(false));
        assert!(
            seeded < 0.5 * cold,
            "seeded one-cycle error {seeded:e} not clearly below cold-start {cold:e}"
        );
    }

    #[test]
    fn forces_point_away_from_a_source() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 17, 17);
        d.set(8, 8, 1.0);
        d.balance();
        let f = HybridSolver::new().solve(&d);
        let center = d.bin_center(8, 8);
        for probe in [
            Point::new(2.0, 5.0),
            Point::new(8.0, 5.0),
            Point::new(5.0, 2.0),
            Point::new(5.0, 8.5),
        ] {
            let force = f.force_at(probe);
            assert!(
                force.dot(probe - center) > 0.0,
                "force {force} at {probe} not outward"
            );
        }
    }

    #[test]
    fn zero_density_gives_zero_field() {
        let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 4.0, 4.0), 8, 8);
        let f = HybridSolver::new().solve(&d);
        assert_eq!(f.max_magnitude(), 0.0);
    }

    #[test]
    fn solve_reusing_matches_solve_and_reuses_buffers() {
        let d = random_balanced_density(7, 20, 20);
        let solver = HybridSolver::new();
        let reference = solver.solve(&d);
        let mut ws = HybridWorkspace::default();
        let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
        solver.solve_reusing(&d, &mut ws, &mut out);
        assert_eq!(out, reference, "in-place solve diverged from solve()");
        let caps = (
            ws.rhs.capacity(),
            ws.phi.capacity(),
            ws.halo.capacity(),
            ws.depth.len(),
            ws.coarse_rhs.capacity(),
            ws.coarse_phi.capacity(),
        );
        solver.solve_reusing(&d, &mut ws, &mut out);
        assert_eq!(
            caps,
            (
                ws.rhs.capacity(),
                ws.phi.capacity(),
                ws.halo.capacity(),
                ws.depth.len(),
                ws.coarse_rhs.capacity(),
                ws.coarse_phi.capacity(),
            )
        );
        assert_eq!(out, reference);
    }

    #[test]
    fn potential_map_validates_the_saved_geometry() {
        let solver = HybridSolver::new();
        let mut ws = HybridWorkspace::default();
        let a = random_balanced_density(41, 16, 16);
        assert!(solver.potential_map(&a, &ws).is_none());
        let mut out = ForceField::zeros(a.region(), a.nx(), a.ny());
        solver.solve_reusing(&a, &mut ws, &mut out);
        assert!(solver.potential_map(&a, &ws).is_some());
        let mut b = ScalarMap::zeros(Rect::new(100.0, 50.0, 140.0, 90.0), 16, 16);
        b.set(3, 3, 1.0);
        b.balance();
        assert!(solver.potential_map(&b, &ws).is_none());
    }

    #[test]
    fn solver_reports_its_name() {
        assert_eq!(HybridSolver::new().name(), "hybrid");
    }
}
