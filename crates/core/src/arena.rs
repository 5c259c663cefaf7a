//! The per-session scratch arena.
//!
//! Every buffer the placement transformation loop needs is allocated once
//! and reused across iterations: after the arena has grown to the design's
//! size (typically during the first transformation), the steady-state loop
//! performs no further heap allocation. [`ScratchArena::capacity_signature`]
//! exposes the buffer capacities so tests can assert exactly that.

use crate::config::PrecondKind;
use crate::quadratic::{Assembled, AssemblyScratch};
use kraftwerk_field::{
    DensityScratch, ForceField, HybridWorkspace, MultigridWorkspace, ScalarMap, SpectralWorkspace,
};
use kraftwerk_geom::Vector;
use kraftwerk_sparse::{
    CgWorkspace, CsrMatrix, JacobiPreconditioner, Preconditioner, SsorPreconditioner,
};

/// The session's CG preconditioner slot: Jacobi refreshed in place (the
/// zero-allocation production path) or SSOR rebuilt per refresh (more
/// effective per iteration, but allocating — the watchdog ladder demotes
/// it to Jacobi on persistent CG stalls).
#[derive(Debug)]
pub(crate) enum SessionPrecond {
    /// Diagonal preconditioner, refreshed without allocation.
    Jacobi(JacobiPreconditioner),
    /// SSOR preconditioner; `None` until the first refresh.
    Ssor(Option<SsorPreconditioner>),
}

impl Default for SessionPrecond {
    fn default() -> Self {
        SessionPrecond::Jacobi(JacobiPreconditioner::default())
    }
}

impl SessionPrecond {
    /// Switches the slot to `kind`, dropping any stale state. Returns
    /// `true` when the kind actually changed (callers then invalidate the
    /// cached assembly so the next transform refreshes the slot).
    pub fn set_kind(&mut self, kind: PrecondKind) -> bool {
        let matches_kind = matches!(
            (&*self, kind),
            (SessionPrecond::Jacobi(_), PrecondKind::Jacobi)
                | (SessionPrecond::Ssor(_), PrecondKind::Ssor)
        );
        if !matches_kind {
            *self = match kind {
                PrecondKind::Jacobi => SessionPrecond::Jacobi(JacobiPreconditioner::default()),
                PrecondKind::Ssor => SessionPrecond::Ssor(None),
            };
        }
        !matches_kind
    }

    /// Sizes the Jacobi diagonal for an `n x n` matrix so the next refresh
    /// allocates nothing (SSOR rebuilds allocate by design).
    pub fn reserve(&mut self, n: usize) {
        if let SessionPrecond::Jacobi(p) = self {
            p.reserve(n);
        }
    }

    /// Entries the Jacobi diagonal holds without reallocating (0 for SSOR).
    pub fn capacity(&self) -> usize {
        match self {
            SessionPrecond::Jacobi(p) => p.capacity(),
            SessionPrecond::Ssor(_) => 0,
        }
    }

    /// Rebuilds the preconditioner for a (re-assembled) matrix.
    pub fn refresh_from(&mut self, a: &CsrMatrix) {
        match self {
            SessionPrecond::Jacobi(p) => p.refresh_from(a),
            SessionPrecond::Ssor(slot) => *slot = Some(SsorPreconditioner::from_matrix(a, 1.0)),
        }
    }
}

impl Preconditioner for SessionPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            SessionPrecond::Jacobi(p) => p.apply(r, z),
            SessionPrecond::Ssor(Some(p)) => p.apply(r, z),
            SessionPrecond::Ssor(None) => {
                unreachable!("SSOR preconditioner applied before refresh_from")
            }
        }
    }
}

/// Reusable state for [`crate::PlacementSession::transform`], grouped by
/// pipeline phase. All fields are buffers whose *contents* are rebuilt
/// every iteration (or cached — see `asm_valid`); none carry semantic
/// state across iterations.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// COO staging + CSR build scratch for system assembly.
    pub(crate) assembly: AssemblyScratch,
    /// The assembled system (matrices and linear terms, storage reused).
    pub(crate) asm: Assembled,
    /// Whether `asm` is still valid for the current placement. Only ever
    /// `true` for placement-independent assemblies (pure clique model, no
    /// linearization), where the matrix can be cached across iterations.
    pub(crate) asm_valid: bool,
    /// The unweighted assembly the hold force is derived from when timing
    /// weights are active.
    pub(crate) hold_asm: Assembled,
    /// Whether `hold_asm` is valid (same caching rule as `asm_valid`).
    pub(crate) hold_valid: bool,
    /// Cached diagonal of `asm.cx`, rebuilt with the assembly.
    pub(crate) diag_x: Vec<f64>,
    /// Cached diagonal of `asm.cy`, rebuilt with the assembly.
    pub(crate) diag_y: Vec<f64>,
    /// Per-cell mean stiffness, partially reordered by the median
    /// selection.
    pub(crate) stiffness: Vec<f64>,
    /// Raw (unscaled) field force per movable cell.
    pub(crate) raw: Vec<Vector>,
    /// Holding-force x component.
    pub(crate) hx: Vec<f64>,
    /// Holding-force y component.
    pub(crate) hy: Vec<f64>,
    /// Spring-force scratch (x), input to the hold computation.
    pub(crate) sx: Vec<f64>,
    /// Spring-force scratch (y).
    pub(crate) sy: Vec<f64>,
    /// Right-hand side of the x solve.
    pub(crate) bx: Vec<f64>,
    /// Right-hand side of the y solve.
    pub(crate) by: Vec<f64>,
    /// Movable-cell x coordinates before the solve (warm start).
    pub(crate) xs0: Vec<f64>,
    /// Movable-cell y coordinates before the solve.
    pub(crate) ys0: Vec<f64>,
    /// Preconditioner slot for the x system, refreshed with the assembly.
    pub(crate) px: SessionPrecond,
    /// Preconditioner slot for the y system.
    pub(crate) py: SessionPrecond,
    /// Conjugate-gradient workspace for the x solve.
    pub(crate) cg_x: CgWorkspace,
    /// Conjugate-gradient workspace for the y solve.
    pub(crate) cg_y: CgWorkspace,
    /// The density deviation grid, re-shaped in place each iteration.
    pub(crate) density: Option<ScalarMap>,
    /// Clamped cell rectangles for the density build.
    pub(crate) density_scratch: DensityScratch,
    /// Multigrid Poisson-solve grids.
    pub(crate) mg: MultigridWorkspace,
    /// Spectral Poisson-solve buffers (FFT plan + transform scratch).
    pub(crate) spectral: SpectralWorkspace,
    /// Hybrid Poisson-solve buffers (coarse DST seed + V-cycle grids).
    pub(crate) hybrid: HybridWorkspace,
    /// The force field written by the in-place Poisson solves.
    pub(crate) field: Option<ForceField>,
}

impl ScratchArena {
    /// Marks cached assemblies stale (placement-independent caching only
    /// survives while the net weights are unchanged).
    pub fn invalidate_assembly(&mut self) {
        self.asm_valid = false;
        self.hold_valid = false;
    }

    /// Capacities of every growable buffer a transformation fills, in a
    /// fixed order. Two equal signatures around a block of
    /// transformations prove the block allocated nothing new from the
    /// arena's pools.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut out = vec![
            self.stiffness.capacity(),
            self.raw.capacity(),
            self.hx.capacity(),
            self.hy.capacity(),
            self.sx.capacity(),
            self.sy.capacity(),
            self.bx.capacity(),
            self.by.capacity(),
            self.xs0.capacity(),
            self.ys0.capacity(),
            self.cg_x.capacity(),
            self.cg_y.capacity(),
        ];
        out.extend(self.branch_capacity_signature());
        out
    }

    /// Capacities of the buffers the concurrent field and matrix branches
    /// of a transformation fill: assembly staging, matrices, diagonals,
    /// Jacobi preconditioners, multigrid grids and the force field.
    pub(crate) fn branch_capacity_signature(&self) -> Vec<usize> {
        let mut out = vec![
            self.diag_x.capacity(),
            self.diag_y.capacity(),
            self.px.capacity(),
            self.py.capacity(),
        ];
        self.asm.capacities(&mut out);
        self.assembly.capacities(&mut out);
        out.extend(self.mg.capacity_signature());
        if let Some(field) = &self.field {
            out.push(field.capacity());
        }
        out
    }
}
