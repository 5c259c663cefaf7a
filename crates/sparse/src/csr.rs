//! Coordinate-format assembly and compressed-sparse-row storage.

use std::fmt;

/// A square sparse matrix under assembly in coordinate (triplet) format.
///
/// Duplicate entries are *accumulated* when converting to CSR, which is
/// exactly what clique-model assembly wants: every net contributes
/// `-w` off-diagonals and `+w` diagonal terms that simply add up.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    n: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `n x n` assembly buffer.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an assembly buffer with a capacity hint for the expected
    /// number of triplets.
    #[must_use]
    pub fn with_capacity(n: usize, nnz: usize) -> Self {
        Self {
            n,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of triplets pushed so far (before duplicate accumulation).
    #[must_use]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no triplet has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet ({row},{col}) out of bounds for n={}", self.n);
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(value);
    }

    /// Adds a symmetric off-diagonal pair: `value` at `(i, j)` **and**
    /// `(j, i)`. For `i == j` the value is added once.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn push_sym(&mut self, i: usize, j: usize, value: f64) {
        self.push(i, j, value);
        if i != j {
            self.push(j, i, value);
        }
    }

    /// Grows the triplet storage to hold at least `nnz` triplets without
    /// reallocating. Lets a caller size the buffer on one thread before
    /// another thread assembles into it.
    pub fn reserve(&mut self, nnz: usize) {
        reserve_total(&mut self.rows, nnz);
        reserve_total(&mut self.cols, nnz);
        reserve_total(&mut self.vals, nnz);
    }

    /// Triplets the buffer holds without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.rows.capacity().min(self.cols.capacity()).min(self.vals.capacity())
    }

    /// Drops all triplets and re-dimensions the buffer, keeping the
    /// allocated capacity — the arena path re-assembles into the same
    /// buffer every placement transformation.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Sum of all diagonal triplets pushed so far (duplicates included,
    /// exactly as CSR conversion would accumulate them). The quadratic
    /// assembly uses this for the center-anchor weight without a full
    /// conversion round-trip.
    #[must_use]
    pub fn diagonal_sum(&self) -> f64 {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .filter(|((r, c), _)| r == c)
            .map(|(_, v)| v)
            .sum()
    }

    /// Converts to CSR, accumulating duplicates and dropping exact zeros
    /// that result from cancellation.
    #[must_use]
    pub fn into_csr(self) -> CsrMatrix {
        let mut csr = CsrMatrix::default();
        csr.rebuild_from(&self, &mut CsrBuildScratch::default());
        csr
    }
}

/// Grows `v` so it holds `total` elements without reallocating (exact,
/// no amortized over-allocation).
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    v.reserve_exact(total.saturating_sub(v.len()));
}

/// Reusable scratch buffers for [`CsrMatrix::rebuild_from`]; hold one per
/// arena and every rebuild after the first allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CsrBuildScratch {
    row_counts: Vec<usize>,
    cursor: Vec<usize>,
    order_cols: Vec<u32>,
    order_vals: Vec<f64>,
    row_scratch: Vec<(u32, f64)>,
}

impl CsrBuildScratch {
    /// Sizes the scratch for rebuilding an `n x n` matrix from at most
    /// `nnz` triplets, at most `row_nnz` of them in any one row, so such
    /// a rebuild allocates nothing.
    pub fn reserve(&mut self, n: usize, nnz: usize, row_nnz: usize) {
        reserve_total(&mut self.row_counts, n + 1);
        reserve_total(&mut self.cursor, n + 1);
        reserve_total(&mut self.order_cols, nnz);
        reserve_total(&mut self.order_vals, nnz);
        reserve_total(&mut self.row_scratch, row_nnz);
    }

    /// Capacities of the scratch buffers, in a fixed order.
    #[must_use]
    pub fn capacity(&self) -> [usize; 5] {
        [
            self.row_counts.capacity(),
            self.cursor.capacity(),
            self.order_cols.capacity(),
            self.order_vals.capacity(),
            self.row_scratch.capacity(),
        ]
    }
}

/// A square sparse matrix in compressed-sparse-row format. Immutable
/// except for [`rebuild_from`](CsrMatrix::rebuild_from), which replaces
/// the whole matrix in place (reusing the storage).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Default for CsrMatrix {
    /// The empty `0 x 0` matrix (a rebuild target).
    fn default() -> Self {
        Self {
            n: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Rows per parallel SpMV chunk. Fixed — row results are independent, so
/// any chunking gives identical output, but a constant keeps the
/// dispatch overhead predictable.
const SPMV_ROW_CHUNK: usize = 2048;

impl CsrMatrix {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structurally non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sizes the storage for an `n x n` rebuild with at most `nnz` stored
    /// entries, so [`rebuild_from`](CsrMatrix::rebuild_from) allocates
    /// nothing for such a rebuild.
    pub fn reserve(&mut self, n: usize, nnz: usize) {
        reserve_total(&mut self.row_ptr, n + 1);
        reserve_total(&mut self.col_idx, nnz);
        reserve_total(&mut self.values, nnz);
    }

    /// Capacities as `(row pointers, stored entries)`.
    #[must_use]
    pub fn capacity(&self) -> (usize, usize) {
        (
            self.row_ptr.capacity(),
            self.col_idx.capacity().min(self.values.capacity()),
        )
    }

    /// Iterates over the entries of a row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.dim()`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[row] as usize;
        let hi = self.row_ptr[row + 1] as usize;
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Rebuilds this matrix in place from a coordinate assembly,
    /// accumulating duplicates and dropping exact zeros — the same
    /// semantics as [`CooMatrix::into_csr`], but reusing both this
    /// matrix's storage and the caller's scratch buffers, so steady-state
    /// re-assembly allocates nothing.
    pub fn rebuild_from(&mut self, coo: &CooMatrix, ws: &mut CsrBuildScratch) {
        let CsrBuildScratch {
            row_counts,
            cursor,
            order_cols,
            order_vals,
            row_scratch,
        } = ws;
        let n = coo.n;
        let nnz = coo.vals.len();
        // Counting sort by row.
        row_counts.clear();
        row_counts.resize(n + 1, 0);
        for &r in &coo.rows {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_counts[i + 1] += row_counts[i];
        }
        order_cols.clear();
        order_cols.resize(nnz, 0);
        order_vals.clear();
        order_vals.resize(nnz, 0.0);
        cursor.clear();
        cursor.extend_from_slice(row_counts);
        for k in 0..nnz {
            let r = coo.rows[k] as usize;
            let at = cursor[r];
            cursor[r] += 1;
            order_cols[at] = coo.cols[k];
            order_vals[at] = coo.vals[k];
        }
        // Per-row: sort by column and accumulate duplicates.
        self.n = n;
        self.row_ptr.clear();
        self.row_ptr.reserve(n + 1);
        self.row_ptr.push(0u32);
        self.col_idx.clear();
        self.values.clear();
        self.col_idx.reserve(nnz);
        self.values.reserve(nnz);
        for r in 0..n {
            let lo = row_counts[r];
            let hi = row_counts[r + 1];
            row_scratch.clear();
            row_scratch.extend(
                order_cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(order_vals[lo..hi].iter().copied()),
            );
            row_scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row_scratch.len() {
                let c = row_scratch[i].0;
                let mut v = 0.0;
                while i < row_scratch.len() && row_scratch[i].0 == c {
                    v += row_scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    self.col_idx.push(c);
                    self.values.push(v);
                }
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }
    }

    /// `y[r0..] = (A x)[rows]` for a contiguous row range, with the inner
    /// loop running on direct `row_ptr` slice splits — the per-entry
    /// `values[k]` / `col_idx[k]` bounds checks of the naive formulation
    /// disappear, which matters in the CG inner loop.
    fn spmv_rows(&self, start: usize, x: &[f64], y: &mut [f64]) {
        let mut lo = self.row_ptr[start] as usize;
        for (yi, &ptr) in y.iter_mut().zip(&self.row_ptr[start + 1..]) {
            let hi = ptr as usize;
            let mut acc = 0.0;
            for (v, c) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += v * x[*c as usize];
            }
            *yi = acc;
            lo = hi;
        }
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// Rows are processed in fixed [`SPMV_ROW_CHUNK`]-sized chunks across
    /// the `kraftwerk-par` pool; each output element depends on exactly
    /// one row, so the result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have a length other than `self.dim()`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        assert_eq!(y.len(), self.n, "y length mismatch");
        if self.n <= SPMV_ROW_CHUNK {
            self.spmv_rows(0, x, y);
            return;
        }
        kraftwerk_par::for_each_chunk_mut(y, SPMV_ROW_CHUNK, |chunk, y_rows| {
            self.spmv_rows(chunk * SPMV_ROW_CHUNK, x, y_rows);
        });
    }

    /// The main diagonal as a dense vector (zeros for missing entries).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = Vec::new();
        self.diagonal_into(&mut d);
        d
    }

    /// Writes the main diagonal into `out` (cleared and resized), using a
    /// per-row binary search over the column-sorted entries. Reuses the
    /// caller's buffer so the arena path allocates nothing.
    pub fn diagonal_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        let mut lo = self.row_ptr[0] as usize;
        for (r, (&ptr, slot)) in self.row_ptr[1..].iter().zip(out.iter_mut()).enumerate() {
            let hi = ptr as usize;
            if let Ok(k) = self.col_idx[lo..hi].binary_search(&(r as u32)) {
                *slot = self.values[lo + k];
            }
            lo = hi;
        }
    }

    /// Value at `(row, col)`; zero when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.row(row)
            .find(|&(c, _)| c == col)
            .map_or(0.0, |(_, v)| v)
    }

    /// Largest absolute asymmetry `|a_ij - a_ji|` over the stored pattern;
    /// zero for symmetric matrices. A diagnostic used by assembly tests.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                worst = worst.max((v - self.get(c, r)).abs());
            }
        }
        worst
    }

    /// Densifies the matrix (test/diagnostic helper; `O(n^2)` memory).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.n]; self.n];
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                dense[r][c] = v;
            }
        }
        dense
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMatrix({}x{}, nnz={})", self.n, self.n, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 2.0);
        coo.push_sym(0, 1, -1.0);
        coo.push(1, 1, 2.0);
        coo.push_sym(1, 2, -1.0);
        coo.push(2, 2, 2.0);
        coo.into_csr()
    }

    #[test]
    fn assembly_accumulates_duplicates() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let a = coo.into_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn assembly_drops_cancelled_entries() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, -1.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.into_csr();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn push_sym_makes_symmetric_matrices() {
        let a = example();
        assert_eq!(a.asymmetry(), 0.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(2, 0), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = example();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = example();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn rows_are_column_sorted() {
        let mut coo = CooMatrix::new(3);
        coo.push(0, 2, 3.0);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        let a = coo.into_csr();
        let row0: Vec<_> = a.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
    }

    #[test]
    fn to_dense_roundtrip() {
        let a = example();
        let d = a.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[r][c], a.get(r, c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut coo = CooMatrix::new(2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn rebuild_in_place_matches_into_csr_and_reuses_buffers() {
        let mut csr = CsrMatrix::default();
        let mut ws = CsrBuildScratch::default();
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 2.0);
        coo.push_sym(0, 1, -1.0);
        coo.push(1, 1, 2.0);
        coo.push_sym(1, 2, -1.0);
        coo.push(2, 2, 2.0);
        csr.rebuild_from(&coo, &mut ws);
        assert_eq!(csr, example());
        // Rebuild different content into the same storage.
        coo.reset(2);
        assert!(coo.is_empty());
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 5.0);
        let cap_before = (csr.row_ptr.capacity(), csr.values.capacity());
        csr.rebuild_from(&coo, &mut ws);
        assert_eq!(csr.dim(), 2);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.nnz(), 2);
        let cap_after = (csr.row_ptr.capacity(), csr.values.capacity());
        assert_eq!(cap_before, cap_after, "smaller rebuild must not reallocate");
    }

    #[test]
    fn diagonal_sum_accumulates_duplicates() {
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 2.0);
        coo.push(0, 0, 3.0);
        coo.push_sym(0, 2, 7.0); // off-diagonal: ignored
        coo.push(2, 2, 1.0);
        assert_eq!(coo.diagonal_sum(), 6.0);
    }

    #[test]
    fn diagonal_into_reuses_the_buffer() {
        let a = example();
        let mut d = Vec::with_capacity(16);
        let cap = d.capacity();
        a.diagonal_into(&mut d);
        assert_eq!(d, vec![2.0, 2.0, 2.0]);
        assert_eq!(d.capacity(), cap, "no reallocation for a fitting buffer");
    }

    #[test]
    fn spmv_is_identical_across_thread_counts() {
        // Large enough to span several SPMV_ROW_CHUNK chunks.
        let n = 3 * SPMV_ROW_CHUNK + 17;
        let mut coo = CooMatrix::new(n);
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for i in 0..n {
            coo.push(i, i, 4.0 + next());
            if i + 1 < n {
                coo.push_sym(i, i + 1, next());
            }
            if i + 97 < n {
                coo.push_sym(i, i + 97, next());
            }
        }
        let a = coo.into_csr();
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        kraftwerk_par::set_threads(1);
        let mut y1 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        kraftwerk_par::set_threads(4);
        let mut y4 = vec![0.0; n];
        a.spmv(&x, &mut y4);
        kraftwerk_par::set_threads(1);
        for (a, b) in y1.iter().zip(&y4) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut coo = CooMatrix::new(4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 1.0);
        let a = coo.into_csr();
        assert_eq!(a.row(1).count(), 0);
        assert_eq!(a.row(2).count(), 0);
        let x = [1.0; 4];
        let mut y = [9.0; 4];
        a.spmv(&x, &mut y);
        assert_eq!(y, [1.0, 0.0, 0.0, 1.0]);
    }
}
