//! Bin grids, the supply/demand density of equation (4), and the
//! empty-square stopping criterion.

use kraftwerk_geom::{interval_overlap, Point, Rect};
use kraftwerk_netlist::{Netlist, Placement};

/// A scalar field sampled on a regular grid of bins covering a rectangle.
/// Values live at bin centers; [`ScalarMap::sample`] interpolates
/// bilinearly between them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarMap {
    nx: usize,
    ny: usize,
    region: Rect,
    values: Vec<f64>,
}

impl ScalarMap {
    /// Creates a zero-filled map with `nx * ny` bins over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0`, `ny == 0`, or the region is degenerate.
    #[must_use]
    pub fn zeros(region: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one bin");
        assert!(region.width() > 0.0 && region.height() > 0.0, "degenerate region");
        Self {
            nx,
            ny,
            region,
            values: vec![0.0; nx * ny],
        }
    }

    /// Number of bins horizontally.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of bins vertically.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The covered region.
    #[must_use]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Bin width.
    #[must_use]
    pub fn dx(&self) -> f64 {
        self.region.width() / self.nx as f64
    }

    /// Bin height.
    #[must_use]
    pub fn dy(&self) -> f64 {
        self.region.height() / self.ny as f64
    }

    /// Value of bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.nx && iy < self.ny, "bin index out of range");
        self.values[iy * self.nx + ix]
    }

    /// Sets the value of bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, ix: usize, iy: usize, value: f64) {
        assert!(ix < self.nx && iy < self.ny, "bin index out of range");
        self.values[iy * self.nx + ix] = value;
    }

    /// Adds to the value of bin `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn add(&mut self, ix: usize, iy: usize, value: f64) {
        assert!(ix < self.nx && iy < self.ny, "bin index out of range");
        self.values[iy * self.nx + ix] += value;
    }

    /// Raw values in row-major (y-major) order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Bins the map holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.values.capacity()
    }

    /// `true` when every bin value is finite. The watchdog uses this as a
    /// cheap sanity gate before trusting a density or potential field.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Mutable raw values in row-major (y-major) order. Reuse hook for
    /// callers that recompute a field in place every iteration.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Re-shapes the map to `nx * ny` bins over `region` and zeroes every
    /// bin, reusing the existing allocation when it is large enough. The
    /// in-place counterpart of [`ScalarMap::zeros`].
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0`, `ny == 0`, or the region is degenerate.
    pub fn reset(&mut self, region: Rect, nx: usize, ny: usize) {
        assert!(nx > 0 && ny > 0, "grid must have at least one bin");
        assert!(region.width() > 0.0 && region.height() > 0.0, "degenerate region");
        self.nx = nx;
        self.ny = ny;
        self.region = region;
        self.values.clear();
        self.values.resize(nx * ny, 0.0);
    }

    /// Center of bin `(ix, iy)`.
    #[must_use]
    pub fn bin_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(
            self.region.x_lo + (ix as f64 + 0.5) * self.dx(),
            self.region.y_lo + (iy as f64 + 0.5) * self.dy(),
        )
    }

    /// Rectangle of bin `(ix, iy)`.
    #[must_use]
    pub fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        let dx = self.dx();
        let dy = self.dy();
        Rect::new(
            self.region.x_lo + ix as f64 * dx,
            self.region.y_lo + iy as f64 * dy,
            self.region.x_lo + (ix + 1) as f64 * dx,
            self.region.y_lo + (iy + 1) as f64 * dy,
        )
    }

    /// The bin containing a point, clamped to the grid.
    #[must_use]
    pub fn bin_of(&self, p: Point) -> (usize, usize) {
        let fx = (p.x - self.region.x_lo) / self.dx();
        let fy = (p.y - self.region.y_lo) / self.dy();
        let ix = (fx.floor().max(0.0) as usize).min(self.nx - 1);
        let iy = (fy.floor().max(0.0) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// Mean over all bins.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Integral over the region (sum of bin values times bin area).
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * self.dx() * self.dy()
    }

    /// Largest bin value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// Smallest bin value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.values.iter().fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// Subtracts the mean so the map integrates to zero — the property
    /// equation (4) establishes by scaling the supply with `s`.
    pub fn balance(&mut self) {
        let m = self.mean();
        for v in &mut self.values {
            *v -= m;
        }
    }

    /// Adds `weight * other` bin-wise. The congestion- and heat-driven
    /// modes of section 5 combine their maps with the density this way.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different dimensions.
    pub fn add_scaled(&mut self, other: &ScalarMap, weight: f64) {
        assert_eq!(self.nx, other.nx, "grid width mismatch");
        assert_eq!(self.ny, other.ny, "grid height mismatch");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += weight * b;
        }
    }

    /// Multiplies every bin by a constant.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Bilinear interpolation of the field at `p`; clamps to the border
    /// bins outside the region.
    #[must_use]
    pub fn sample(&self, p: Point) -> f64 {
        let fx = (p.x - self.region.x_lo) / self.dx() - 0.5;
        let fy = (p.y - self.region.y_lo) / self.dy() - 0.5;
        let ix0 = fx.floor().clamp(0.0, (self.nx - 1) as f64) as usize;
        let iy0 = fy.floor().clamp(0.0, (self.ny - 1) as f64) as usize;
        let ix1 = (ix0 + 1).min(self.nx - 1);
        let iy1 = (iy0 + 1).min(self.ny - 1);
        let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
        let ty = (fy - iy0 as f64).clamp(0.0, 1.0);
        let v00 = self.get(ix0, iy0);
        let v10 = self.get(ix1, iy0);
        let v01 = self.get(ix0, iy1);
        let v11 = self.get(ix1, iy1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Mean-preserving downsample onto a grid no larger than
    /// `max_nx × max_ny` bins over the same region: every source bin's
    /// value is spread over the coarse bins it geometrically overlaps,
    /// weighted by overlap area. When the dimensions divide evenly this
    /// is plain block averaging; otherwise the seam bins split their
    /// value proportionally instead of voting with full weight in
    /// whichever coarse bin their index happens to land, which kept
    /// biasing snapshot heatmaps at row/column seams. Returns a clone
    /// when the map already fits. Snapshot export uses this so mid-run
    /// density/potential captures stay small regardless of the
    /// placement grid resolution.
    #[must_use]
    pub fn downsampled(&self, max_nx: usize, max_ny: usize) -> ScalarMap {
        let tnx = self.nx.min(max_nx.max(1));
        let tny = self.ny.min(max_ny.max(1));
        if tnx == self.nx && tny == self.ny {
            return self.clone();
        }
        // Overlap bookkeeping on an integer lattice (the axis scaled by
        // the coarse bin count) so seam weights are exact: source bin `i`
        // spans `[i·tn, (i+1)·tn)`, coarse bin `t` spans `[t·n, (t+1)·n)`,
        // and `tn ≤ n` means a source bin touches at most two coarse
        // bins. Per source bin: the first coarse bin, its overlap, and
        // the spill into the next one (zero off-seam).
        let seam_split = |n: usize, tn: usize| -> Vec<(usize, f64, f64)> {
            (0..n)
                .map(|i| {
                    let lo = i * tn;
                    let hi = (i + 1) * tn;
                    let t0 = lo / n;
                    let cut = (t0 + 1) * n;
                    if hi <= cut {
                        (t0, tn as f64, 0.0)
                    } else {
                        (t0, (cut - lo) as f64, (hi - cut) as f64)
                    }
                })
                .collect()
        };
        let xs = seam_split(self.nx, tnx);
        let ys = seam_split(self.ny, tny);
        // Per coarse bin the overlaps sum to nx (resp. ny) lattice units,
        // so this normalization makes each output value the overlap-area
        // weighted average of the sources it covers.
        let norm = 1.0 / (self.nx as f64 * self.ny as f64);
        let mut out = ScalarMap::zeros(self.region, tnx, tny);
        for (iy, &(ty0, wy0, wy1)) in ys.iter().enumerate() {
            for (ix, &(tx0, wx0, wx1)) in xs.iter().enumerate() {
                let v = self.values[iy * self.nx + ix] * norm;
                out.values[ty0 * tnx + tx0] += v * wx0 * wy0;
                if wx1 > 0.0 {
                    out.values[ty0 * tnx + tx0 + 1] += v * wx1 * wy0;
                }
                if wy1 > 0.0 {
                    out.values[(ty0 + 1) * tnx + tx0] += v * wx0 * wy1;
                    if wx1 > 0.0 {
                        out.values[(ty0 + 1) * tnx + tx0 + 1] += v * wx1 * wy1;
                    }
                }
            }
        }
        out
    }

    /// Deposits `area` units distributed over `rect ∩ region` with exact
    /// per-bin rectangle overlap, normalized by bin area (so the deposit
    /// reads as coverage density). No-op when the clamped rectangle is
    /// empty.
    pub fn deposit_rect(&mut self, rect: &Rect, density: f64) {
        let Some(clipped) = rect.intersection(&self.region) else {
            return;
        };
        let dx = self.dx();
        let dy = self.dy();
        let ix_lo = (((clipped.x_lo - self.region.x_lo) / dx).floor().max(0.0)) as usize;
        let ix_hi = ((((clipped.x_hi - self.region.x_lo) / dx).ceil()) as usize).min(self.nx);
        let iy_lo = (((clipped.y_lo - self.region.y_lo) / dy).floor().max(0.0)) as usize;
        let iy_hi = ((((clipped.y_hi - self.region.y_lo) / dy).ceil()) as usize).min(self.ny);
        let inv_bin_area = 1.0 / (dx * dy);
        for iy in iy_lo..iy_hi {
            let b_lo = self.region.y_lo + iy as f64 * dy;
            let oy = interval_overlap(clipped.y_lo, clipped.y_hi, b_lo, b_lo + dy);
            if oy <= 0.0 {
                continue;
            }
            for ix in ix_lo..ix_hi {
                let a_lo = self.region.x_lo + ix as f64 * dx;
                let ox = interval_overlap(clipped.x_lo, clipped.x_hi, a_lo, a_lo + dx);
                if ox > 0.0 {
                    self.values[iy * self.nx + ix] += density * ox * oy * inv_bin_area;
                }
            }
        }
    }
}

/// Cells per parallel deposit chunk. Like the vector-kernel block size,
/// this fixes the floating-point association of the chunk-merged deposit
/// and must never depend on the thread count.
const DEPOSIT_CELL_CHUNK: usize = 2048;

/// Deposits unit-density rectangles into `map`. Small inputs deposit
/// sequentially; past [`DEPOSIT_CELL_CHUNK`] cells the input is split into
/// fixed-size chunks, each chunk accumulates into a private partial grid,
/// and the partials are merged **in chunk index order** — the association
/// is a function of the rectangle count only, so every thread count
/// (including one) produces bitwise-identical bins.
fn deposit_rects(map: &mut ScalarMap, rects: &[Rect]) {
    if rects.len() <= DEPOSIT_CELL_CHUNK {
        for r in rects {
            map.deposit_rect(r, 1.0);
        }
        return;
    }
    let merged = kraftwerk_par::par_map_reduce(
        rects.len(),
        DEPOSIT_CELL_CHUNK,
        |_, range| {
            let mut partial = ScalarMap::zeros(map.region(), map.nx(), map.ny());
            for r in &rects[range] {
                partial.deposit_rect(r, 1.0);
            }
            partial
        },
        |mut a, b| {
            a.add_scaled(&b, 1.0);
            a
        },
    );
    if let Some(m) = merged {
        map.add_scaled(&m, 1.0);
    }
}

/// Reusable buffers for [`density_map_into`]: the clamped cell rectangles
/// gathered each iteration. Holding one of these across placement
/// iterations keeps the density rebuild allocation-free for netlists below
/// the parallel deposit threshold.
#[derive(Debug, Default)]
pub struct DensityScratch {
    rects: Vec<Rect>,
}

/// Builds the density deviation `D(x,y)` of equation (4) on an `nx x ny`
/// grid over the core region: demand (cell coverage, cells clamped into
/// the core) minus supply (`s = total cell area / core area`, uniform),
/// re-balanced to integrate to exactly zero.
///
/// Bin values are dimensionless coverage ratios: `0` where the local
/// density equals the average, positive in overfull spots, negative in
/// empty ones.
#[must_use]
pub fn density_map(netlist: &Netlist, placement: &Placement, nx: usize, ny: usize) -> ScalarMap {
    let mut map = ScalarMap::zeros(netlist.core_region(), nx, ny);
    density_map_into(netlist, placement, nx, ny, &mut map, &mut DensityScratch::default());
    map
}

/// In-place variant of [`density_map`]: re-shapes `map` (reusing its
/// allocation) and gathers cell rectangles into `scratch` instead of
/// allocating fresh buffers. Produces bin values bitwise identical to
/// [`density_map`].
pub fn density_map_into(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
    map: &mut ScalarMap,
    scratch: &mut DensityScratch,
) {
    let core = netlist.core_region();
    map.reset(core, nx, ny);
    scratch.rects.clear();
    for (id, cell) in netlist.movable_cells() {
        let r = placement.cell_rect(id, cell.size());
        // Clamp escaped cells onto the core boundary so their demand still
        // registers (and pushes them back inward).
        scratch.rects.push(clamp_rect_into(&r, &core));
    }
    deposit_rects(map, &scratch.rects);
    // Subtract the scaled supply: with the grid covering exactly the core,
    // the supply is uniform; balancing also absorbs clamping artifacts.
    map.balance();
}

/// Translates `r` so it lies inside `bounds` (shrinking is never needed for
/// cells smaller than the core; larger rects stay centered).
fn clamp_rect_into(r: &Rect, bounds: &Rect) -> Rect {
    let mut sx = 0.0;
    let mut sy = 0.0;
    if r.width() <= bounds.width() {
        if r.x_lo < bounds.x_lo {
            sx = bounds.x_lo - r.x_lo;
        } else if r.x_hi > bounds.x_hi {
            sx = bounds.x_hi - r.x_hi;
        }
    }
    if r.height() <= bounds.height() {
        if r.y_lo < bounds.y_lo {
            sy = bounds.y_lo - r.y_lo;
        } else if r.y_hi > bounds.y_hi {
            sy = bounds.y_hi - r.y_hi;
        }
    }
    Rect::new(r.x_lo + sx, r.y_lo + sy, r.x_hi + sx, r.y_hi + sy)
}

/// Binary occupancy map: a bin counts as occupied when cells cover at
/// least `threshold` of its area.
#[must_use]
pub fn occupancy_map(
    netlist: &Netlist,
    placement: &Placement,
    nx: usize,
    ny: usize,
    threshold: f64,
) -> ScalarMap {
    let core = netlist.core_region();
    let mut cover = ScalarMap::zeros(core, nx, ny);
    let rects: Vec<Rect> = netlist
        .movable_cells()
        .map(|(id, cell)| placement.cell_rect(id, cell.size()))
        .collect();
    deposit_rects(&mut cover, &rects);
    // Binarize in place; element-wise, so chunking cannot change the result.
    kraftwerk_par::for_each_chunk_mut(cover.values_mut(), DEPOSIT_CELL_CHUNK, |_, block| {
        for v in block {
            *v = f64::from(u8::from(*v >= threshold));
        }
    });
    cover
}

/// Area of the largest empty axis-aligned square inside the core region —
/// the quantity of the paper's stopping criterion (section 4.2: iterate
/// until no empty square larger than 4x the average cell area exists).
///
/// `resolution` is the number of bins along the longer core edge; the
/// answer is accurate to one bin. Uses the classic dynamic program for the
/// maximal square of empty bins.
#[must_use]
pub fn largest_empty_square(
    netlist: &Netlist,
    placement: &Placement,
    resolution: usize,
) -> f64 {
    let core = netlist.core_region();
    let (nx, ny) = if core.width() >= core.height() {
        let nx = resolution.max(2);
        let ny = ((core.height() / core.width() * nx as f64).round() as usize).max(2);
        (nx, ny)
    } else {
        let ny = resolution.max(2);
        let nx = ((core.width() / core.height() * ny as f64).round() as usize).max(2);
        (nx, ny)
    };
    let occ = occupancy_map(netlist, placement, nx, ny, 0.25);
    // dp[iy][ix] = side length (in bins) of the largest empty square whose
    // bottom-right corner is (ix, iy).
    let mut dp = vec![0u32; nx * ny];
    let mut best = 0u32;
    for iy in 0..ny {
        for ix in 0..nx {
            if occ.get(ix, iy) > 0.0 {
                continue;
            }
            let side = if ix == 0 || iy == 0 {
                1
            } else {
                let a = dp[(iy - 1) * nx + ix];
                let b = dp[iy * nx + ix - 1];
                let c = dp[(iy - 1) * nx + ix - 1];
                a.min(b).min(c) + 1
            };
            dp[iy * nx + ix] = side;
            best = best.max(side);
        }
    }
    let side_len = best as f64 * occ.dx().min(occ.dy());
    side_len * side_len
}

/// Renders a scalar map as an SVG heat map (blue = minimum, red =
/// maximum), `width_px` pixels wide. Intended for eyeballing density,
/// congestion, and thermal maps; the examples write these next to their
/// placement snapshots.
#[must_use]
pub fn svg_heatmap(map: &ScalarMap, width_px: f64) -> String {
    use kraftwerk_geom::svg::SvgCanvas;
    let mut canvas = SvgCanvas::new(map.region(), width_px);
    let lo = map.min();
    let hi = map.max();
    let span = (hi - lo).max(1e-12);
    for iy in 0..map.ny() {
        for ix in 0..map.nx() {
            let t = ((map.get(ix, iy) - lo) / span).clamp(0.0, 1.0);
            // Blue (cold) to red (hot) through white.
            let (r, g, b) = if t < 0.5 {
                let u = t * 2.0;
                (
                    (60.0 + 195.0 * u) as u8,
                    (90.0 + 165.0 * u) as u8,
                    (200.0 + 55.0 * u) as u8,
                )
            } else {
                let u = (t - 0.5) * 2.0;
                (255, (255.0 - 175.0 * u) as u8, (255.0 - 195.0 * u) as u8)
            };
            canvas.rect(&map.bin_rect(ix, iy), &format!("#{r:02x}{g:02x}{b:02x}"), 1.0);
        }
    }
    canvas.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_geom::Size;
    use kraftwerk_netlist::{NetlistBuilder, PinDirection};

    fn grid() -> ScalarMap {
        ScalarMap::zeros(Rect::new(0.0, 0.0, 8.0, 4.0), 8, 4)
    }

    #[test]
    fn is_finite_detects_poisoned_bins() {
        let mut m = grid();
        assert!(m.is_finite());
        m.set(3, 1, f64::NAN);
        assert!(!m.is_finite());
        m.set(3, 1, f64::INFINITY);
        assert!(!m.is_finite());
        m.set(3, 1, 0.0);
        assert!(m.is_finite());
    }

    #[test]
    fn geometry_accessors() {
        let g = grid();
        assert_eq!(g.dx(), 1.0);
        assert_eq!(g.dy(), 1.0);
        assert_eq!(g.bin_center(0, 0), Point::new(0.5, 0.5));
        assert_eq!(g.bin_rect(1, 2), Rect::new(1.0, 2.0, 2.0, 3.0));
        assert_eq!(g.bin_of(Point::new(3.5, 1.5)), (3, 1));
        // clamped outside
        assert_eq!(g.bin_of(Point::new(-5.0, 100.0)), (0, 3));
    }

    #[test]
    fn deposit_whole_bin() {
        let mut g = grid();
        g.deposit_rect(&Rect::new(2.0, 1.0, 3.0, 2.0), 1.0);
        assert_eq!(g.get(2, 1), 1.0);
        assert_eq!(g.values().iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn deposit_split_across_bins() {
        let mut g = grid();
        g.deposit_rect(&Rect::new(1.5, 0.5, 2.5, 1.5), 1.0);
        // Four quarter overlaps.
        assert_eq!(g.get(1, 0), 0.25);
        assert_eq!(g.get(2, 0), 0.25);
        assert_eq!(g.get(1, 1), 0.25);
        assert_eq!(g.get(2, 1), 0.25);
    }

    #[test]
    fn deposit_outside_region_is_noop() {
        let mut g = grid();
        g.deposit_rect(&Rect::new(100.0, 100.0, 101.0, 101.0), 1.0);
        assert!(g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deposit_conserves_area() {
        let mut g = grid();
        let r = Rect::new(0.3, 0.7, 5.9, 3.1);
        g.deposit_rect(&r, 1.0);
        let total: f64 = g.values().iter().sum::<f64>() * g.dx() * g.dy();
        assert!((total - r.area()).abs() < 1e-9);
    }

    #[test]
    fn balance_zeroes_the_mean() {
        let mut g = grid();
        g.set(0, 0, 32.0);
        g.balance();
        assert!(g.mean().abs() < 1e-12);
        assert!((g.get(0, 0) - 31.0).abs() < 1e-12);
        assert!((g.get(5, 2) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_interpolates_between_bin_centers() {
        let mut g = ScalarMap::zeros(Rect::new(0.0, 0.0, 2.0, 1.0), 2, 1);
        g.set(0, 0, 0.0);
        g.set(1, 0, 10.0);
        // midway between the two bin centers (0.5 and 1.5)
        assert!((g.sample(Point::new(1.0, 0.5)) - 5.0).abs() < 1e-12);
        // at/beyond the borders: clamped
        assert_eq!(g.sample(Point::new(-1.0, 0.5)), 0.0);
        assert_eq!(g.sample(Point::new(3.0, 0.5)), 10.0);
    }

    #[test]
    fn downsampled_preserves_the_mean_and_fits_the_cap() {
        let mut g = ScalarMap::zeros(Rect::new(0.0, 0.0, 8.0, 6.0), 8, 6);
        for iy in 0..6 {
            for ix in 0..8 {
                g.set(ix, iy, (iy * 8 + ix) as f64);
            }
        }
        let small = g.downsampled(4, 3);
        assert_eq!((small.nx(), small.ny()), (4, 3));
        assert_eq!(small.region(), g.region());
        assert!((small.mean() - g.mean()).abs() < 1e-12, "mean preserved");
        // The first coarse bin averages the 2x2 source block {0,1,8,9}.
        assert!((small.get(0, 0) - 4.5).abs() < 1e-12);
        // Already small enough: unchanged clone.
        assert_eq!(g.downsampled(100, 100), g);
        // Degenerate caps clamp to one bin instead of panicking.
        assert_eq!(g.downsampled(0, 0).values().len(), 1);
    }

    #[test]
    fn downsampled_splits_seam_bins_by_overlap_area() {
        // 5x3 → 2x2: the center source bin (2,1) straddles both seams
        // exactly, so its value must spread evenly over all four coarse
        // bins. Index-voting (the old behaviour) dumped it wholly into
        // coarse (0,0), biasing every seam of a non-divisible snapshot.
        let mut g = ScalarMap::zeros(Rect::new(0.0, 0.0, 5.0, 3.0), 5, 3);
        g.set(2, 1, 30.0);
        let small = g.downsampled(2, 2);
        assert_eq!((small.nx(), small.ny()), (2, 2));
        for iy in 0..2 {
            for ix in 0..2 {
                assert!(
                    (small.get(ix, iy) - 2.0).abs() < 1e-12,
                    "coarse ({ix},{iy}) = {}, want the even split 30/15",
                    small.get(ix, iy)
                );
            }
        }
        assert!((small.mean() - g.mean()).abs() < 1e-12, "mean preserved");
        // Off-seam source bins still map wholly to their coarse bin.
        let mut corner = ScalarMap::zeros(Rect::new(0.0, 0.0, 5.0, 3.0), 5, 3);
        corner.set(0, 0, 15.0);
        let c = corner.downsampled(2, 2);
        assert!((c.get(0, 0) - 15.0 * 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = grid();
        let mut b = grid();
        a.set(1, 1, 2.0);
        b.set(1, 1, 3.0);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.get(1, 1), 8.0);
        a.scale(0.5);
        assert_eq!(a.get(1, 1), 4.0);
    }

    fn clustered_netlist() -> (Netlist, Placement) {
        let mut b = NetlistBuilder::new();
        b.core_region(Rect::new(0.0, 0.0, 40.0, 40.0));
        let ids: Vec<_> = (0..16)
            .map(|i| b.add_cell(format!("c{i}"), Size::new(2.0, 2.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_net(
                format!("n{}", w[0]),
                [(w[0], PinDirection::Output), (w[1], PinDirection::Input)],
            );
        }
        let nl = b.build().unwrap();
        let p = nl.initial_placement(); // all at center
        (nl, p)
    }

    #[test]
    fn density_map_integrates_to_zero_and_peaks_at_cluster() {
        let (nl, p) = clustered_netlist();
        let d = density_map(&nl, &p, 10, 10);
        assert!(d.integral().abs() < 1e-9);
        // Peak must be at the center bins where all the cells sit.
        let (cx, cy) = d.bin_of(nl.core_region().center());
        let peak = d
            .values()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| (i % 10, i / 10))
            .unwrap();
        let close = (peak.0 as i64 - cx as i64).abs() <= 1 && (peak.1 as i64 - cy as i64).abs() <= 1;
        assert!(close, "peak at {peak:?}, cluster at ({cx},{cy})");
        // Empty corners show negative deviation.
        assert!(d.get(0, 0) < 0.0);
    }

    #[test]
    fn density_map_counts_escaped_cells_on_the_boundary() {
        let (nl, mut p) = clustered_netlist();
        for id in nl.cell_ids() {
            p.set_position(id, Point::new(-50.0, 20.0)); // far left of core
        }
        let d = density_map(&nl, &p, 10, 10);
        // All demand lands in the left edge column.
        let left: f64 = (0..10).map(|iy| d.get(0, iy)).sum();
        let right: f64 = (0..10).map(|iy| d.get(9, iy)).sum();
        assert!(left > right);
        assert!(d.integral().abs() < 1e-9);
    }

    #[test]
    fn largest_empty_square_sees_the_empty_chip() {
        let (nl, p) = clustered_netlist();
        // Everything is piled in the middle; almost half the chip is an
        // empty square.
        let area = largest_empty_square(&nl, &p, 40);
        assert!(area > 0.1 * nl.core_region().area(), "area {area}");
    }

    #[test]
    fn largest_empty_square_shrinks_when_spread() {
        let (nl, mut p) = clustered_netlist();
        // Spread cells on a 4x4 lattice covering the core.
        let core = nl.core_region();
        for (i, id) in nl.cell_ids().enumerate() {
            let ix = i % 4;
            let iy = i / 4;
            p.set_position(
                id,
                Point::new(
                    core.x_lo + (ix as f64 + 0.5) * core.width() / 4.0,
                    core.y_lo + (iy as f64 + 0.5) * core.height() / 4.0,
                ),
            );
        }
        let spread = largest_empty_square(&nl, &p, 40);
        let piled = largest_empty_square(&nl, &nl.initial_placement(), 40);
        assert!(spread < piled, "spread {spread} piled {piled}");
    }

    #[test]
    fn heatmap_renders_extremes() {
        let mut g = ScalarMap::zeros(Rect::new(0.0, 0.0, 4.0, 4.0), 2, 2);
        g.set(0, 0, -1.0);
        g.set(1, 1, 1.0);
        let svg = svg_heatmap(&g, 100.0);
        assert!(svg.contains("<svg"));
        // Cold corner renders blue-ish, hot corner red.
        assert!(svg.contains("#3c5ac8"), "cold color missing: {svg}");
        assert!(svg.contains("#ff503c"), "hot color missing");
    }

    #[test]
    fn density_map_into_matches_density_map_and_reuses_buffers() {
        let (nl, p) = clustered_netlist();
        let reference = density_map(&nl, &p, 10, 10);
        let mut map = ScalarMap::zeros(Rect::new(0.0, 0.0, 1.0, 1.0), 1, 1);
        let mut scratch = DensityScratch::default();
        density_map_into(&nl, &p, 10, 10, &mut map, &mut scratch);
        assert_eq!(map, reference);
        // Second rebuild reuses both the bin grid and the rect buffer.
        let caps = (map.values.capacity(), scratch.rects.capacity());
        density_map_into(&nl, &p, 10, 10, &mut map, &mut scratch);
        assert_eq!(caps, (map.values.capacity(), scratch.rects.capacity()));
        assert_eq!(map, reference);
    }

    #[test]
    fn chunked_deposit_is_identical_across_thread_counts() {
        // Enough rectangles to cross the parallel deposit threshold, with
        // many rects landing in the same bins so the merge order matters.
        let region = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut state = 9u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rects: Vec<Rect> = (0..2 * DEPOSIT_CELL_CHUNK + 31)
            .map(|_| {
                let x = rnd() * 30.0;
                let y = rnd() * 30.0;
                Rect::new(x, y, x + 0.4 + rnd(), y + 0.4 + rnd())
            })
            .collect();
        kraftwerk_par::set_threads(1);
        let mut seq = ScalarMap::zeros(region, 16, 16);
        deposit_rects(&mut seq, &rects);
        for threads in [2usize, 8] {
            kraftwerk_par::set_threads(threads);
            let mut par = ScalarMap::zeros(region, 16, 16);
            deposit_rects(&mut par, &rects);
            for (a, b) in seq.values().iter().zip(par.values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
        kraftwerk_par::set_threads(1);
    }

    #[test]
    fn occupancy_threshold_matters() {
        let (nl, p) = clustered_netlist();
        let loose = occupancy_map(&nl, &p, 10, 10, 0.01);
        let strict = occupancy_map(&nl, &p, 10, 10, 0.99);
        let loose_count: f64 = loose.values().iter().sum();
        let strict_count: f64 = strict.values().iter().sum();
        assert!(loose_count >= strict_count);
    }
}
