//! Geometric multigrid Poisson solver — the fast path for equation (7).
//!
//! Solves `ΔΦ = D` on a square, zero-Dirichlet domain that pads the core
//! region on every side. Requirement 4 of the paper asks for the force to
//! vanish at infinity; since the density deviation integrates to zero, the
//! far potential decays quickly and a padded Dirichlet box is an accurate
//! stand-in for free space (validated against [`crate::DirectSolver`] in
//! the tests and the ablation bench). The force is the gradient
//! `f = ∇Φ` evaluated with central differences.

use crate::field::{FieldSolver, ForceField};
use crate::grid::{self, idx, SavedSolve, SolveGrid};
use crate::map::ScalarMap;

/// Multigrid V-cycle Poisson solver.
///
/// * `padding` — border added around the density region on each side, as a
///   fraction of the larger region extent (default `0.5`, i.e. the solve
///   domain is ~2x the core in each direction).
/// * `tolerance` — relative residual target per solve (default `1e-7`).
/// * `max_cycles` — V-cycle cap (default `30`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridSolver {
    /// Border fraction added on each side of the density region.
    pub padding: f64,
    /// Relative residual reduction target.
    pub tolerance: f64,
    /// Maximum number of V-cycles.
    pub max_cycles: usize,
    /// Cap on vertices per side (`2^k + 1`); higher is more accurate and
    /// slower. The solver picks the smallest power of two that resolves
    /// the density grid, up to this cap.
    pub max_vertices: usize,
}

impl Default for MultigridSolver {
    fn default() -> Self {
        Self {
            padding: 0.5,
            tolerance: 1e-7,
            max_cycles: 30,
            max_vertices: 1025,
        }
    }
}

impl MultigridSolver {
    /// Creates the solver with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A square vertex-centered grid with `m` vertices per side (`m = 2^k+1`)
/// over `region`, used by the V-cycle.
struct Level {
    m: usize,
    h: f64,
}

/// Rows per parallel chunk of the grid kernels (smoother, residual,
/// restriction). A constant, so chunk boundaries depend only on the grid
/// size and every kernel is bitwise identical at any thread count.
const ROW_CHUNK: usize = 64;

/// Interior rows `[lo, hi)` of row chunk `c` on an `m`-vertex grid.
fn chunk_rows(m: usize, c: usize) -> (usize, usize) {
    let lo = 1 + c * ROW_CHUNK;
    (lo, (lo + ROW_CHUNK).min(m - 1))
}

/// Number of row chunks covering the interior of an `m`-vertex grid.
fn row_chunks(m: usize) -> usize {
    kraftwerk_par::chunk_count(m - 2, ROW_CHUNK)
}

/// Doubles of halo scratch the chunked smoother needs on an `m`-vertex
/// grid: the row below and the row above every chunk.
fn halo_len(m: usize) -> usize {
    2 * row_chunks(m) * m
}

/// One Gauss-Seidel update of every other point of an interior row,
/// starting at column `start`; `below` and `above` are the neighbouring
/// rows. Reads only points of the other color, so the order in which the
/// rows of one color are relaxed never changes a value.
#[inline]
fn relax_row(row: &mut [f64], below: &[f64], above: &[f64], rhs_row: &[f64], start: usize, h2: f64) {
    let m = row.len();
    let (below, above, rhs_row) = (&below[..m], &above[..m], &rhs_row[..m]);
    let mut i = start;
    while i < m - 1 {
        let nb = row[i - 1] + row[i + 1] + below[i] + above[i];
        row[i] = 0.25 * (nb - h2 * rhs_row[i]);
        i += 2;
    }
}

/// First column of color `color` (0 = red, 1 = black) in row `j`.
fn color_start(j: usize, color: usize) -> usize {
    1 + (j + color) % 2
}

/// Relaxes color `color` of interior row `j` of the full grid `phi`.
fn relax_grid_row(m: usize, phi: &mut [f64], rhs: &[f64], j: usize, color: usize, h2: f64) {
    let (head, tail) = phi.split_at_mut(j * m);
    let (row, rest) = tail.split_at_mut(m);
    relax_row(
        row,
        &head[(j - 1) * m..],
        &rest[..m],
        &rhs[j * m..(j + 1) * m],
        color_start(j, color),
        h2,
    );
}

/// Red-black Gauss-Seidel sweeps for `ΔΦ = rhs` (5-point stencil, zero
/// Dirichlet boundary).
///
/// Each sweep runs in [`ROW_CHUNK`]-row chunks on the worker pool (a
/// grid of at most 65 vertices is one chunk, run inline): within a chunk
/// the smoother relaxes red row `j`, then black row `j-1`, so each sweep
/// streams the grid once; the black rows at chunk edges (whose red
/// neighbours belong to the next chunk) follow in a second pass. Red
/// points read only black ones and vice versa, so every point sees
/// exactly the values the plain all-red-then-all-black sweep gives it —
/// the result is bitwise identical to it at any thread count.
fn smooth(level: &Level, phi: &mut [f64], rhs: &[f64], sweeps: usize, halo: &mut Vec<f64>) {
    let m = level.m;
    let h2 = level.h * level.h;
    for _ in 0..sweeps {
        // The rows bordering each chunk, copied before the sweep: the
        // first pass reads only their black points, which no chunk
        // relaxes until the second pass.
        halo.clear();
        for c in 0..row_chunks(m) {
            let (lo, hi) = chunk_rows(m, c);
            halo.extend_from_slice(&phi[(lo - 1) * m..lo * m]);
            halo.extend_from_slice(&phi[hi * m..(hi + 1) * m]);
        }
        let halo = &halo[..];
        kraftwerk_par::for_each_chunk_mut(&mut phi[m..(m - 1) * m], ROW_CHUNK * m, |c, band| {
            let (lo, _) = chunk_rows(m, c);
            let rows = band.len() / m;
            let edge_below = &halo[2 * c * m..(2 * c + 1) * m];
            let edge_above = &halo[(2 * c + 1) * m..(2 * c + 2) * m];
            for r in 0..rows {
                let j = lo + r;
                let (head, tail) = band.split_at_mut(r * m);
                let (row, rest) = tail.split_at_mut(m);
                let below = if r == 0 { edge_below } else { &head[(r - 1) * m..] };
                let above = if r + 1 == rows { edge_above } else { &rest[..m] };
                relax_row(row, below, above, &rhs[j * m..(j + 1) * m], color_start(j, 0), h2);
                if r >= 2 {
                    // Black row j-1: its red neighbours (rows j-2 and j)
                    // are both relaxed by now, and it is no chunk edge.
                    let (head, tail) = band.split_at_mut((r - 1) * m);
                    let (row, rest) = tail.split_at_mut(m);
                    relax_row(
                        row,
                        &head[(r - 2) * m..],
                        &rest[..m],
                        &rhs[(j - 1) * m..j * m],
                        color_start(j - 1, 1),
                        h2,
                    );
                }
            }
        });
        for c in 0..row_chunks(m) {
            let (lo, hi) = chunk_rows(m, c);
            relax_grid_row(m, phi, rhs, lo, 1, h2);
            if hi - 1 > lo {
                relax_grid_row(m, phi, rhs, hi - 1, 1, h2);
            }
        }
    }
}

/// Residual `rhs - ΔΦ` at interior vertex `(i, j)`.
#[inline]
fn residual_at(m: usize, inv_h2: f64, phi: &[f64], rhs: &[f64], i: usize, j: usize) -> f64 {
    let lap = (phi[idx(m, i - 1, j)]
        + phi[idx(m, i + 1, j)]
        + phi[idx(m, i, j - 1)]
        + phi[idx(m, i, j + 1)]
        - 4.0 * phi[idx(m, i, j)])
        * inv_h2;
    rhs[idx(m, i, j)] - lap
}

/// Residual `r = rhs - ΔΦ` on the interior (zero on the boundary), in
/// row chunks on the worker pool.
fn residual(level: &Level, phi: &[f64], rhs: &[f64], r: &mut [f64]) {
    let m = level.m;
    let inv_h2 = 1.0 / (level.h * level.h);
    r[..m].fill(0.0);
    r[(m - 1) * m..].fill(0.0);
    kraftwerk_par::for_each_chunk_mut(&mut r[m..(m - 1) * m], ROW_CHUNK * m, |c, rows| {
        let (lo, _) = chunk_rows(m, c);
        for (k, row) in rows.chunks_exact_mut(m).enumerate() {
            let j = lo + k;
            row[0] = 0.0;
            row[m - 1] = 0.0;
            for (i, v) in row.iter_mut().enumerate().take(m - 1).skip(1) {
                *v = residual_at(m, inv_h2, phi, rhs, i, j);
            }
        }
    });
}

/// `‖rhs - ΔΦ‖₂` without storing the residual. Squares are summed in
/// row-major order over the whole grid (boundary zeros included), the
/// order a sum over a stored residual uses, so the convergence test sees
/// the same bits.
fn residual_norm(level: &Level, phi: &[f64], rhs: &[f64]) -> f64 {
    let m = level.m;
    let inv_h2 = 1.0 / (level.h * level.h);
    (0..m)
        .flat_map(|j| {
            (0..m).map(move |i| {
                if i == 0 || j == 0 || i == m - 1 || j == m - 1 {
                    0.0
                } else {
                    residual_at(m, inv_h2, phi, rhs, i, j)
                }
            })
        })
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
}

/// Full-weighting restriction from a fine grid (m) to the coarse grid
/// ((m+1)/2), in coarse-row chunks on the worker pool.
pub(crate) fn restrict(m_fine: usize, fine: &[f64], coarse: &mut [f64]) {
    let m_coarse = m_fine.div_ceil(2);
    coarse[..m_coarse].fill(0.0);
    coarse[(m_coarse - 1) * m_coarse..].fill(0.0);
    let interior = &mut coarse[m_coarse..(m_coarse - 1) * m_coarse];
    kraftwerk_par::for_each_chunk_mut(interior, ROW_CHUNK * m_coarse, |c, rows| {
        let (jc_lo, _) = chunk_rows(m_coarse, c);
        for (k, row) in rows.chunks_exact_mut(m_coarse).enumerate() {
            let j = 2 * (jc_lo + k);
            row[0] = 0.0;
            row[m_coarse - 1] = 0.0;
            for (ic, v) in row.iter_mut().enumerate().take(m_coarse - 1).skip(1) {
                let i = 2 * ic;
                let center = fine[idx(m_fine, i, j)];
                let edges = fine[idx(m_fine, i - 1, j)]
                    + fine[idx(m_fine, i + 1, j)]
                    + fine[idx(m_fine, i, j - 1)]
                    + fine[idx(m_fine, i, j + 1)];
                let corners = fine[idx(m_fine, i - 1, j - 1)]
                    + fine[idx(m_fine, i + 1, j - 1)]
                    + fine[idx(m_fine, i - 1, j + 1)]
                    + fine[idx(m_fine, i + 1, j + 1)];
                *v = 0.25 * center + 0.125 * edges + 0.0625 * corners;
            }
        }
    });
}

/// Bilinear prolongation; adds the coarse correction into the fine grid.
pub(crate) fn prolong_add(m_coarse: usize, coarse: &[f64], fine: &mut [f64]) {
    let m_fine = 2 * m_coarse - 1;
    for jc in 0..m_coarse {
        for ic in 0..m_coarse {
            let v = coarse[idx(m_coarse, ic, jc)];
            if v == 0.0 {
                continue;
            }
            let i = 2 * ic;
            let j = 2 * jc;
            fine[idx(m_fine, i, j)] += v;
            if i + 1 < m_fine {
                fine[idx(m_fine, i + 1, j)] += 0.5 * v;
            }
            if i >= 1 {
                fine[idx(m_fine, i - 1, j)] += 0.5 * v;
            }
            if j + 1 < m_fine {
                fine[idx(m_fine, i, j + 1)] += 0.5 * v;
            }
            if j >= 1 {
                fine[idx(m_fine, i, j - 1)] += 0.5 * v;
            }
            if i + 1 < m_fine && j + 1 < m_fine {
                fine[idx(m_fine, i + 1, j + 1)] += 0.25 * v;
            }
            if i >= 1 && j + 1 < m_fine {
                fine[idx(m_fine, i - 1, j + 1)] += 0.25 * v;
            }
            if i + 1 < m_fine && j >= 1 {
                fine[idx(m_fine, i + 1, j - 1)] += 0.25 * v;
            }
            if i >= 1 && j >= 1 {
                fine[idx(m_fine, i - 1, j - 1)] += 0.25 * v;
            }
        }
    }
}

/// Number of grid levels a V-cycle descends through from an `m`-vertex
/// fine grid (each level halves until the 5-vertex coarse solve).
fn level_count(m: usize) -> usize {
    let mut levels = 1;
    let mut m = m;
    while m > 5 {
        m = m.div_ceil(2);
        levels += 1;
    }
    levels
}

/// Per-depth V-cycle scratch: the residual on one level plus the
/// restricted RHS and correction on the next-coarser one.
#[derive(Debug, Default)]
pub(crate) struct VcycleBufs {
    r: Vec<f64>,
    coarse_rhs: Vec<f64>,
    coarse_phi: Vec<f64>,
}

/// Grows `v` so it holds `total` elements without reallocating.
fn reserve_total(v: &mut Vec<f64>, total: usize) {
    v.reserve_exact(total.saturating_sub(v.len()));
}

/// Sizes the V-cycle scratch of an `m`-vertex solve: one [`VcycleBufs`]
/// per level and the smoother's halo rows. After this a
/// [`vcycle_to_tolerance`] call on the same grid allocates nothing.
pub(crate) fn reserve_vcycle(m: usize, depth: &mut Vec<VcycleBufs>, halo: &mut Vec<f64>) {
    if depth.len() < level_count(m) {
        depth.resize_with(level_count(m), VcycleBufs::default);
    }
    reserve_total(halo, halo_len(m));
    let mut m_level = m;
    for bufs in depth.iter_mut() {
        if m_level <= 5 {
            break;
        }
        let m_coarse = m_level.div_ceil(2);
        reserve_total(&mut bufs.r, m_level * m_level);
        reserve_total(&mut bufs.coarse_rhs, m_coarse * m_coarse);
        reserve_total(&mut bufs.coarse_phi, m_coarse * m_coarse);
        m_level = m_coarse;
    }
}

/// Reusable buffers for [`MultigridSolver::solve_reusing`]: fine-grid RHS
/// and potential, the smoother's halo rows and per-depth V-cycle scratch.
/// Holding one of these across placement iterations makes the
/// steady-state Poisson solve allocation-free. The solved potential and
/// its [`SavedSolve`] geometry record stay behind for
/// [`MultigridSolver::potential_map`].
#[derive(Debug, Default)]
pub struct MultigridWorkspace {
    rhs: Vec<f64>,
    phi: Vec<f64>,
    halo: Vec<f64>,
    depth: Vec<VcycleBufs>,
    saved: Option<SavedSolve>,
}

impl MultigridWorkspace {
    /// Capacities of every grid buffer, in a fixed order. Two equal
    /// signatures around a solve prove it allocated nothing.
    #[must_use]
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut out = vec![
            self.rhs.capacity(),
            self.phi.capacity(),
            self.halo.capacity(),
            self.depth.len(),
        ];
        for bufs in &self.depth {
            out.extend([bufs.r.capacity(), bufs.coarse_rhs.capacity(), bufs.coarse_phi.capacity()]);
        }
        out
    }
}

/// Runs V-cycles on `phi` (which may carry an initial guess) until the
/// residual drops below `tolerance · rhs_norm` or `max_cycles` is spent.
/// Returns whether the tolerance was met; when `residuals` is `Some`,
/// pushes each cycle's relative residual for telemetry. Shared by the
/// multigrid backend and the hybrid backend's refinement stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vcycle_to_tolerance(
    m: usize,
    h: f64,
    phi: &mut [f64],
    rhs: &[f64],
    depth: &mut Vec<VcycleBufs>,
    halo: &mut Vec<f64>,
    rhs_norm: f64,
    tolerance: f64,
    max_cycles: usize,
    mut residuals: Option<&mut Vec<f64>>,
) -> bool {
    let level = Level { m, h };
    reserve_vcycle(m, depth, halo);
    let mut converged = false;
    for _ in 0..max_cycles {
        vcycle(&level, phi, rhs, depth, halo);
        let rn = residual_norm(&level, phi, rhs);
        if let Some(out) = residuals.as_deref_mut() {
            out.push(rn / rhs_norm);
        }
        if rn <= tolerance * rhs_norm {
            converged = true;
            break;
        }
    }
    converged
}

fn vcycle(level: &Level, phi: &mut [f64], rhs: &[f64], depth: &mut [VcycleBufs], halo: &mut Vec<f64>) {
    let m = level.m;
    if m <= 5 {
        smooth(level, phi, rhs, 50, halo);
        return;
    }
    smooth(level, phi, rhs, 2, halo);
    let (bufs, rest) = depth.split_first_mut().expect("vcycle scratch depth");
    bufs.r.resize(m * m, 0.0); // residual() overwrites every entry
    residual(level, phi, rhs, &mut bufs.r);
    let m_coarse = m.div_ceil(2);
    let coarse_level = Level {
        m: m_coarse,
        h: level.h * 2.0,
    };
    bufs.coarse_rhs.resize(m_coarse * m_coarse, 0.0); // restrict() overwrites every entry
    restrict(m, &bufs.r, &mut bufs.coarse_rhs);
    bufs.coarse_phi.clear();
    bufs.coarse_phi.resize(m_coarse * m_coarse, 0.0);
    vcycle(&coarse_level, &mut bufs.coarse_phi, &bufs.coarse_rhs, rest, halo);
    prolong_add(m_coarse, &bufs.coarse_phi, phi);
    smooth(level, phi, rhs, 2, halo);
}

impl MultigridSolver {
    /// In-place variant of [`FieldSolver::solve`]: the same V-cycle
    /// iteration, but every grid buffer comes from `ws` and the force
    /// field is written into `out` (re-shaped to the density grid). Bin
    /// values are bitwise identical to the allocating path.
    pub fn solve_reusing(
        &self,
        density: &ScalarMap,
        ws: &mut MultigridWorkspace,
        out: &mut ForceField,
    ) {
        let _timer = kraftwerk_trace::span("multigrid.solve");
        // The solve grid, RHS deposit and force sampling are shared with
        // the spectral backend (see `grid`): both solve the identical
        // discrete system, so only the linear-system solve differs.
        let solve_grid = SolveGrid::for_density(density, self.padding, self.max_vertices);
        let SolveGrid { m, h, .. } = solve_grid;

        let MultigridWorkspace { rhs, phi, halo, depth, saved } = ws;
        grid::deposit_rhs(density, &solve_grid, rhs);

        let rhs_norm: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        phi.clear();
        phi.resize(m * m, 0.0);
        // Per-V-cycle residual norms for telemetry (collected only while a
        // trace sink is installed).
        let tracing = kraftwerk_trace::enabled();
        let mut cycle_residuals = Vec::new();
        let mut converged = rhs_norm == 0.0;
        if rhs_norm > 0.0 {
            converged = vcycle_to_tolerance(
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
                "multigrid.solve",
                vec![
                    ("vertices_per_side", kraftwerk_trace::Value::from(m)),
                    ("levels", kraftwerk_trace::Value::from(level_count(m))),
                    ("cycles", kraftwerk_trace::Value::from(cycle_residuals.len())),
                    ("converged", kraftwerk_trace::Value::from(converged)),
                    ("relative_residuals", kraftwerk_trace::Value::from(cycle_residuals)),
                ],
            );
            kraftwerk_trace::counter("multigrid.solves", 1);
        }

        grid::write_forces(phi, &solve_grid, density, out);
        *saved = Some(SavedSolve {
            grid: solve_grid,
            padding: self.padding,
            max_vertices: self.max_vertices,
        });
    }

    /// Sizes every buffer of `ws` that [`solve_reusing`](Self::solve_reusing)
    /// on `density` would grow, and reshapes `out` to the density grid, so
    /// that solve allocates nothing. Lets a caller that hands the solve to
    /// another thread keep every allocation on its own.
    pub fn prepare(&self, density: &ScalarMap, ws: &mut MultigridWorkspace, out: &mut ForceField) {
        let m = SolveGrid::for_density(density, self.padding, self.max_vertices).m;
        reserve_total(&mut ws.rhs, m * m);
        reserve_total(&mut ws.phi, m * m);
        reserve_vcycle(m, &mut ws.depth, &mut ws.halo);
        out.reset(density.region(), density.nx(), density.ny());
    }

    /// Samples the Poisson potential φ left in `ws` by the most recent
    /// [`solve_reusing`](Self::solve_reusing) call onto the bin centers
    /// of `density`. Returns `None` when the workspace has not been used
    /// yet, or when `density` (or this solver's geometry parameters) does
    /// not describe the same discrete system the workspace was solved on
    /// — the workspace records its [`SavedSolve`] geometry precisely so a
    /// same-vertex-count density over a different region can never be
    /// silently resampled on the wrong domain. This is the export behind
    /// the `potential` field snapshots.
    #[must_use]
    pub fn potential_map(&self, density: &ScalarMap, ws: &MultigridWorkspace) -> Option<ScalarMap> {
        let saved = ws.saved.as_ref()?;
        if !saved.matches(density, self.padding, self.max_vertices) {
            return None;
        }
        Some(grid::sample_potential(&ws.phi, &saved.grid, density))
    }
}

impl FieldSolver for MultigridSolver {
    fn solve(&self, density: &ScalarMap) -> ForceField {
        let mut out = ForceField::zeros(density.region(), density.nx(), density.ny());
        self.solve_reusing(density, &mut MultigridWorkspace::default(), &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "multigrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectSolver;
    use kraftwerk_geom::{Point, Rect, Vector};
    use rand::{Rng, SeedableRng};

    fn random_balanced_density(seed: u64, n: usize) -> ScalarMap {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), n, n);
        for iy in 0..n {
            for ix in 0..n {
                d.set(ix, iy, rng.gen_range(0.0..1.0));
            }
        }
        d.balance();
        d
    }

    #[test]
    fn forces_point_away_from_a_source() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 17, 17);
        d.set(8, 8, 1.0);
        d.balance();
        let f = MultigridSolver::new().solve(&d);
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
    fn agrees_with_direct_solver_in_direction_and_magnitude() {
        let d = random_balanced_density(11, 24);
        let mg = MultigridSolver::new().solve(&d);
        let direct = DirectSolver::new().solve(&d);
        // Compare over interior bins: cosine similarity of the force
        // vectors weighted by magnitude, plus relative L2 error.
        let mut dot_sum = 0.0;
        let mut mg_sq = 0.0;
        let mut di_sq = 0.0;
        let mut err_sq = 0.0;
        for iy in 3..21 {
            for ix in 3..21 {
                let c = d.bin_center(ix, iy);
                let a = mg.force_at(c);
                let b = direct.force_at(c);
                dot_sum += a.dot(b);
                mg_sq += a.norm_sq();
                di_sq += b.norm_sq();
                err_sq += (a - b).norm_sq();
            }
        }
        let cosine = dot_sum / (mg_sq.sqrt() * di_sq.sqrt());
        let rel_err = (err_sq / di_sq).sqrt();
        assert!(cosine > 0.95, "cosine similarity {cosine}");
        assert!(rel_err < 0.25, "relative error {rel_err}");
    }

    #[test]
    fn zero_density_gives_zero_field() {
        let d = ScalarMap::zeros(Rect::new(0.0, 0.0, 4.0, 4.0), 8, 8);
        let f = MultigridSolver::new().solve(&d);
        assert_eq!(f.max_magnitude(), 0.0);
    }

    #[test]
    fn field_is_curl_free_up_to_discretization() {
        let d = random_balanced_density(5, 16);
        let f = MultigridSolver::new().solve(&d);
        let scale = f.max_magnitude() / d.dx();
        for iy in 2..14 {
            for ix in 2..14 {
                let c = f.curl_at(ix, iy).abs();
                assert!(c < 0.5 * scale, "curl {c} at ({ix},{iy})");
            }
        }
    }

    #[test]
    fn more_padding_changes_little_for_balanced_density() {
        // Because total charge is zero, the Dirichlet box position has a
        // modest effect; doubling the padding must not change the field
        // drastically (validates the open-boundary approximation).
        let d = random_balanced_density(3, 16);
        let near_pad = MultigridSolver {
            padding: 0.5,
            ..MultigridSolver::default()
        }
        .solve(&d);
        let far = MultigridSolver {
            padding: 1.0,
            ..MultigridSolver::default()
        }
        .solve(&d);
        let mut err = 0.0;
        let mut base = 0.0;
        for iy in 2..14 {
            for ix in 2..14 {
                let c = d.bin_center(ix, iy);
                err += (near_pad.force_at(c) - far.force_at(c)).norm_sq();
                base += far.force_at(c).norm_sq();
            }
        }
        assert!((err / base).sqrt() < 0.35, "padding sensitivity {}", (err / base).sqrt());
    }

    #[test]
    fn rectangular_density_regions_are_handled() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 20.0, 5.0), 32, 8);
        d.set(16, 4, 1.0);
        d.balance();
        let f = MultigridSolver::new().solve(&d);
        assert!(f.max_magnitude() > 0.0);
        let left = f.force_at(Point::new(5.0, 2.5));
        assert!(left.x < 0.0, "expected push to the left, got {left}");
    }

    #[test]
    fn solver_reports_its_name() {
        assert_eq!(MultigridSolver::new().name(), "multigrid");
        assert_eq!(DirectSolver::new().name(), "direct");
    }

    #[test]
    fn potential_map_samples_the_last_solve() {
        let solver = MultigridSolver::new();
        let mut ws = MultigridWorkspace::default();
        let d = random_balanced_density(11, 16);
        // Unused workspace: nothing to sample yet.
        assert!(solver.potential_map(&d, &ws).is_none());
        let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
        solver.solve_reusing(&d, &mut ws, &mut out);
        let phi = solver.potential_map(&d, &ws).expect("potential after solve");
        assert_eq!((phi.nx(), phi.ny()), (d.nx(), d.ny()));
        assert!(phi.is_finite());
        assert!(phi.max() > phi.min(), "non-trivial potential");
        // The exported potential's gradient must point with the force
        // field (F = ∇φ up to interpolation error): check a strong bin.
        let mut best = (0usize, 0usize);
        let mut best_mag = -1.0;
        for iy in 2..14 {
            for ix in 2..14 {
                let f = out.force_at(d.bin_center(ix, iy));
                if f.norm_sq() > best_mag {
                    best_mag = f.norm_sq();
                    best = (ix, iy);
                }
            }
        }
        let (ix, iy) = best;
        let gx = (phi.get(ix + 1, iy) - phi.get(ix - 1, iy)) / (2.0 * d.dx());
        let gy = (phi.get(ix, iy + 1) - phi.get(ix, iy - 1)) / (2.0 * d.dy());
        let f = out.force_at(d.bin_center(ix, iy));
        let dot = gx * f.x + gy * f.y;
        assert!(dot > 0.0, "potential gradient opposes the force field");
    }

    #[test]
    fn potential_map_refuses_a_different_geometry_with_the_same_vertex_count() {
        // Same aliasing audit as the spectral workspace: the vertex count
        // alone cannot identify the solve domain.
        let solver = MultigridSolver::new();
        let mut ws = MultigridWorkspace::default();
        let a = random_balanced_density(23, 16);
        let mut out = ForceField::zeros(a.region(), a.nx(), a.ny());
        solver.solve_reusing(&a, &mut ws, &mut out);
        assert!(solver.potential_map(&a, &ws).is_some());
        let mut b = ScalarMap::zeros(Rect::new(100.0, 50.0, 140.0, 90.0), 16, 16);
        b.set(3, 3, 1.0);
        b.balance();
        assert!(
            solver.potential_map(&b, &ws).is_none(),
            "same-vertex-count density over a different region must not sample the stale solve"
        );
        let repadded = MultigridSolver { padding: 1.0, ..MultigridSolver::new() };
        assert!(repadded.potential_map(&a, &ws).is_none());
    }

    #[test]
    fn solve_reusing_matches_solve_and_reuses_buffers() {
        let d = random_balanced_density(7, 20);
        let solver = MultigridSolver::new();
        let reference = solver.solve(&d);
        let mut ws = MultigridWorkspace::default();
        let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
        solver.solve_reusing(&d, &mut ws, &mut out);
        assert_eq!(out, reference, "in-place solve diverged from solve()");
        // Second solve with the same workspace must not regrow any buffer.
        let caps = ws.capacity_signature();
        solver.solve_reusing(&d, &mut ws, &mut out);
        assert_eq!(caps, ws.capacity_signature());
        assert_eq!(out, reference);
    }

    /// The plain red-black sweep the chunked smoother must reproduce bit
    /// for bit: every red point, then every black point, row by row.
    fn reference_smooth(m: usize, h: f64, phi: &mut [f64], rhs: &[f64], sweeps: usize) {
        let h2 = h * h;
        for _ in 0..sweeps {
            for color in 0..2 {
                for j in 1..m - 1 {
                    let mut i = 1 + (j + color) % 2;
                    while i < m - 1 {
                        let nb = phi[idx(m, i - 1, j)]
                            + phi[idx(m, i + 1, j)]
                            + phi[idx(m, i, j - 1)]
                            + phi[idx(m, i, j + 1)];
                        phi[idx(m, i, j)] = 0.25 * (nb - h2 * rhs[idx(m, i, j)]);
                        i += 2;
                    }
                }
            }
        }
    }

    fn lcg_grid(m: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut g: Vec<f64> = (0..m * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for k in 0..m {
            g[idx(m, k, 0)] = 0.0;
            g[idx(m, k, m - 1)] = 0.0;
            g[idx(m, 0, k)] = 0.0;
            g[idx(m, m - 1, k)] = 0.0;
        }
        g
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn chunked_kernels_match_the_serial_reference_at_every_thread_count() {
        // 257 and 513 vertices split into 4 and 8 row chunks (the last
        // one short); 5, 9 and 65 fit in a single chunk.
        for m in [5usize, 9, 65, 257, 513] {
            let h = 0.37;
            let rhs = lcg_grid(m, 1);
            let start = lcg_grid(m, 2);
            let mut expect_phi = start.clone();
            reference_smooth(m, h, &mut expect_phi, &rhs, 3);
            let level = Level { m, h };
            let inv_h2 = 1.0 / (h * h);
            let mut expect_r = vec![0.0; m * m];
            for j in 1..m - 1 {
                for i in 1..m - 1 {
                    expect_r[idx(m, i, j)] = residual_at(m, inv_h2, &expect_phi, &rhs, i, j);
                }
            }
            let expect_norm = expect_r.iter().map(|v| v * v).sum::<f64>().sqrt();
            let m_coarse = m.div_ceil(2);
            kraftwerk_par::set_threads(1);
            let mut expect_coarse = vec![f64::NAN; m_coarse * m_coarse];
            restrict(m, &expect_r, &mut expect_coarse);
            assert!(expect_coarse.iter().all(|v| v.is_finite()), "restrict left a hole");
            for threads in [1usize, 2, 8] {
                kraftwerk_par::set_threads(threads);
                let mut phi = start.clone();
                let mut halo = Vec::new();
                smooth(&level, &mut phi, &rhs, 3, &mut halo);
                assert_eq!(bits(&phi), bits(&expect_phi), "smooth m={m} threads={threads}");
                let mut r = vec![f64::NAN; m * m];
                residual(&level, &phi, &rhs, &mut r);
                assert_eq!(bits(&r), bits(&expect_r), "residual m={m} threads={threads}");
                assert_eq!(
                    residual_norm(&level, &phi, &rhs).to_bits(),
                    expect_norm.to_bits(),
                    "norm m={m} threads={threads}"
                );
                let mut coarse = vec![f64::NAN; m_coarse * m_coarse];
                restrict(m, &r, &mut coarse);
                assert_eq!(bits(&coarse), bits(&expect_coarse), "restrict m={m} threads={threads}");
            }
        }
        kraftwerk_par::set_threads(0);
    }

    #[test]
    fn solve_reusing_is_bitwise_identical_at_every_thread_count() {
        // 64 bins across a 2x padded domain resolve to a 257-vertex grid,
        // so the V-cycle's two finest levels run in row chunks.
        let d = random_balanced_density(19, 64);
        let solver = MultigridSolver::new();
        let run = |threads: usize| {
            kraftwerk_par::set_threads(threads);
            let mut ws = MultigridWorkspace::default();
            let mut out = ForceField::zeros(d.region(), d.nx(), d.ny());
            solver.solve_reusing(&d, &mut ws, &mut out);
            assert_eq!(ws.phi.len(), 257 * 257, "grid too small to chunk");
            let phi = solver.potential_map(&d, &ws).expect("potential after solve");
            (out, bits(phi.values()))
        };
        let (f1, p1) = run(1);
        for threads in [2usize, 8] {
            let (f, p) = run(threads);
            assert_eq!(bits(f.fx().values()), bits(f1.fx().values()), "fx at {threads} threads");
            assert_eq!(bits(f.fy().values()), bits(f1.fy().values()), "fy at {threads} threads");
            assert_eq!(p, p1, "potential at {threads} threads");
        }
        kraftwerk_par::set_threads(0);
    }

    #[test]
    fn prepare_sizes_every_buffer_the_solve_touches() {
        let d = random_balanced_density(29, 64);
        let solver = MultigridSolver::new();
        let mut ws = MultigridWorkspace::default();
        let mut out = ForceField::zeros(d.region(), 1, 1);
        solver.prepare(&d, &mut ws, &mut out);
        let caps = ws.capacity_signature();
        solver.solve_reusing(&d, &mut ws, &mut out);
        assert_eq!(caps, ws.capacity_signature(), "solve grew a prepared buffer");
    }

    #[test]
    fn antisymmetry_around_centered_source() {
        let mut d = ScalarMap::zeros(Rect::new(0.0, 0.0, 10.0, 10.0), 17, 17);
        d.set(8, 8, 1.0);
        d.balance();
        let f = MultigridSolver::new().solve(&d);
        let l = f.force_at(Point::new(3.0, 5.0));
        let r = f.force_at(Point::new(7.0, 5.0));
        // Mirror symmetry within discretization error.
        let tol = 0.1 * f.max_magnitude() + 1e-12;
        assert!((l.x + r.x).abs() < tol, "{l} vs {r}");
        let _ = Vector::ZERO;
    }
}
