"""Direct solution of the coupled system and recovery of physical fields.

A is complex symmetric, so sparse LU (SuperLU through scipy) first runs in
symmetric mode: minimum degree on A + A^T with diagonal pivots, about half
the fill of COLAMD.  Every attempt factors A's own arrays, Re A's copy of
them, or their gather under a kept ordering; where the cavity unknowns go
in that ordering is set by A's pattern (the assembly module docstring).
Minimum degree reads A's pattern alone, so the permutation of an attempt
that passes is kept with A's SystemPattern, whose arrays every A of that
mesh and method kind holds.  The next such A (a sweep's next value) is
factored pre-permuted, P A P^T with the NATURAL ordering in symmetric
mode: the same attempt without the ordering work.

Only the Helmholtz DtN symbol h_n is complex: K, M, the penalties and the
modified-Helmholtz block T_q are real.  So A = A_r + i U diag(s) U^T
exactly, with A_r = Re A and the real rank-r term -Im T_p on the P_T block
(TbcMatrix.p_imag_factors: r = 2N + 1, and Im h_n = 2/(pi |H_n|^2) decays
fast in n).  The attempts, in order:

1. real (systems of at least REAL_MIN_DOFS unknowns): the symmetric attempt
   above on A_r, in real arithmetic, whose factors' values take 8 bytes
   per entry, not 16.  A x = b is then solved by the Woodbury identity
   (Hager, SIAM Review 31, 1989) on the columns of U of weight at least
   KEEP_WEIGHT = sqrt(eps) of the largest (17 of 31 at kappa R = 0.6 pi,
   N = 15): Z = A_r^-1 U once, an r x r complex capacitance matrix, and per
   right-hand side one real solve each for Re b and Im b plus the rank-r
   correction.  The first refinement sweep squares the columns left out
   down to roundoff.  Z's two fixed column halves, like Re b and Im b, are
   solved on two threads (_both), so the bits do not depend on whether the
   halves overlap.
2. the symmetric attempt on A;
3. COLAMD with partial pivoting on the plain A.

Each attempt runs one or two iterative-refinement sweeps with its factors
to recover digits lost to pivoting and conditioning.  The gate is a finite
solution whose normwise backward error on the original complex A is at
most RESIDUAL_BOUND; an attempt that raises or misses it falls to the next.

Threads and factors (scipy 1.17.1).  scipy records SuperLU's allocations
per thread, so a factor dropped on another thread than the one that made
it is never freed: 5 factors of a 1,014-dof system made on a worker and
dropped on the main thread held 5.8 MB more, dropped on the worker none.
So every factor is made and dropped inside one solve_system call, on the
caller's thread (cli's convergence study solves its levels on a worker,
beside the reference, and a sweep its later values on two threads that
share one kept ordering), and _both's second thread only solves with it.
Factoring A's p and q halves on two threads with the cavity unknowns last
(ROADMAP item 2) is blocked by SuperLU.L and SuperLU.U: they build CSC
copies of the factors and keep them for the factor's lifetime.  Reading
both halves' trailing blocks held 28 MB more on the 13,520-dof kite
reference (solve-loop peak 158-165 MB, against 126 MB whole), for a
factorization of 0.128-0.152 s on two threads against 0.152-0.194 s whole.

REAL_MIN_DOFS is the measured break-even of attempt 1 against attempt 2:
the real attempt pays for Z's r solves, which a small factorization does
not repay.  It was set with all r columns and one block solve for Z, where
the real attempt won in every repeated run from 2,000 unknowns up.  With
the cut and the two threads it moved down.  Median time ratio real /
complex of solve_system (alternating calls in one process, 1 BLAS thread,
2-core VM; fresh and kept ordering; the range of two runs below 7,350
unknowns, one run from there up):

    dofs       495 IP      495 regular     990 IP       1,326 IP     1,881 IP
    fresh     1.10-1.22    1.38-1.57     0.95-0.98    0.88-0.91       0.84
    kept      1.20-1.46    1.50-1.80     0.98-1.08    0.88-1.00    0.82-0.83
    dofs      2,310 IP     2,898 IP      7,350 IP    13,520 IP    13,520 BP
    fresh     0.77-0.82    0.80-0.83       0.75         0.70         0.79
    kept      0.80-0.90    0.76-0.77       0.71         0.68         0.78

(circles of radius 0.3, kites 0.3,0.2,0.1.)  The real attempt now won in
every run from 1,881 unknowns up and tied at 990 to 1,326.  REAL_MIN_DOFS
stays at 2,000 until a lower value, which moves the 1,881-unknown h = 0.05
circle onto the real attempt, is measured end to end.

The nodal fields then follow from the closed relations (u_inc satisfies
Laplacian(u_inc) = -kappa^2 u_inc):

    u   = q - p                  (total displacement; 0 on the cavity)
    p_s = p + u_inc,  q_s = q    (scattered auxiliaries)
    v   = q - p - u_inc          (scattered displacement)
    w   = p + q + u_inc          (bending moment kappa^-2 Laplacian(v))
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import BlockSystem
from .dtn import IncidentField
from .geometry import Mesh

RESIDUAL_BOUND = 1e-10
#: the fewest unknowns for which the real attempt runs (break-even, module docstring)
REAL_MIN_DOFS = 2000
#: the least weight, relative to the largest, of a column kept in the Woodbury
#: correction: what one refinement sweep squares down to roundoff (sqrt(eps))
KEEP_WEIGHT = math.sqrt(np.finfo(float).eps)

#: symmetric mode: minimum degree on A + A^T, diagonal pivots
SYMMETRIC = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
             "options": {"SymmetricMode": True}}
#: splu settings in the order they are tried on A, after the real attempt
#: (SYMMETRIC on Re A): symmetric mode, then COLAMD.
FACTORIZATIONS = (SYMMETRIC, {})
#: the symmetric attempt on a matrix already permuted by a kept ordering
PERMUTED = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
            "options": {"SymmetricMode": True}}


class SolverError(Exception):
    pass


@dataclass
class SolutionField:
    """Nodal complex fields; p and q share one value on the cavity nodes.

    Only p, q and the incident field are stored; the physical fields are
    derived from them by the relations in the module docstring.
    """

    p: np.ndarray
    q: np.ndarray
    u_inc: np.ndarray
    residual: float

    @property
    def p_scat(self) -> np.ndarray:
        return self.p + self.u_inc

    @property
    def v(self) -> np.ndarray:
        return self.q - self.p_scat

    @property
    def w(self) -> np.ndarray:
        return self.p_scat + self.q

    @cached_property
    def value_text(self) -> list[list[str]]:
        """Re and Im of p, q, v and w (in that order) as artifact text.

        Each value is formatted once per field by ``repr``, which equals ``str``
        for an int or a float (its shortest round-trip text), and shared by
        every writer; caching it assumes the field is never mutated.
        """
        values = np.column_stack([self.p, self.q, self.v, self.w]).view(float)
        return [list(map(repr, column)) for column in values.T.tolist()]


class _Ordering:
    """A passing symmetric attempt's permutation of its SystemPattern;
    unknown i is row and column perm[i] of P A P^T."""

    def __init__(self, perm: np.ndarray):
        self.perm = perm.copy()  # splu's array would keep the factors alive
        self._gather = None

    def factor(self, pattern, data: np.ndarray):
        """splu of P A P^T for the A with this pattern and these values,
        which A = A^T lets us store as CSR and read as CSC.  Two threads (a
        sweep's lanes) may both build the gather: each stores the same arrays."""
        n = len(pattern.indptr) - 1
        if self._gather is None:
            rows = self.perm[np.repeat(np.arange(n), np.diff(pattern.indptr))].astype(np.int64)
            cols = self.perm[pattern.indices]
            order = np.argsort(rows * n + cols)
            indptr = np.searchsorted(rows[order], np.arange(n + 1)).astype(pattern.indptr.dtype)
            self._gather = order, cols[order], indptr
        order, indices, indptr = self._gather
        lu = splu(sp.csc_matrix((data[order], indices, indptr), shape=(n, n)), **PERMUTED)
        return _Permuted(lu, self.perm)


class _Permuted:
    """Solves A x = b with the factors of P A P^T."""

    def __init__(self, lu, perm: np.ndarray):
        self.lu, self.perm = lu, perm

    def solve(self, b: np.ndarray) -> np.ndarray:
        c = np.empty_like(b)
        c[self.perm] = b
        return self.lu.solve(c)[self.perm]


def _both(solve, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(solve(first), solve(second)), the second on a thread of its own.

    SuperLU's solve releases the GIL and only reads its factors, so on two
    cores the halves run at once; on one they run in turn, with the same bits.
    An exception of either half is raised here.
    """
    with ThreadPoolExecutor(1) as pool:
        later = pool.submit(solve, second)
        return solve(first), later.result()


class _Woodbury:
    """Solves A x = b for A = A_r - i U diag(s) U^T, given the real factors
    of A_r (Woodbury identity), where (U, s) = tbc.p_imag_factors() sits on
    the P_T rows: A holds -T_p there.

    Only the columns of weight s >= KEEP_WEIGHT max(s) enter U; the first
    refinement sweep on the complex A squares the rest down to roundoff.
    """

    def __init__(self, lu, system: BlockSystem):
        dof = system.dof_map
        self.rows = slice(2 * dof.n_interior, 2 * dof.n_interior + dof.n_trunc)
        self.lu = lu
        u, s = system.tbc.p_imag_factors()
        keep = s >= KEEP_WEIGHT * s.max()
        self.u, s = u[:, keep], s[keep]
        basis = np.zeros((dof.size, len(s)))
        basis[self.rows] = self.u
        half = (len(s) + 1) // 2  # A_r^-1 U in two fixed column halves
        self.z = np.hstack(_both(lu.solve, basis[:, :half], basis[:, half:]))
        capacitance = np.diag(1.0 / (-1j * s)) + self.u.T @ self.z[self.rows]
        self.capacitance = np.linalg.inv(capacitance)

    def solve(self, b: np.ndarray) -> np.ndarray:
        y_re, y_im = _both(self.lu.solve, b.real, b.imag)  # two 1-column real solves
        y = y_re + 1j * y_im
        t = self.capacitance @ (self.u.T @ y[self.rows])
        # Z is real: two real products, not a complex copy of Z
        return y - (self.z @ t.real + 1j * (self.z @ t.imag))


def solve_system(system: BlockSystem) -> tuple[np.ndarray, float]:
    """Solve A W = F; returns (W, relative residual).

    Returns the first attempt to pass the gate: for a system of at least
    REAL_MIN_DOFS unknowns with its TBC, the symmetric attempt on A_r = Re A
    with the Woodbury correction, then each of FACTORIZATIONS on A.  An A that
    holds the arrays of a pattern with a kept ordering is factored with the
    PERMUTED settings in place of the symmetric ones.  Raises SolverError if none
    passes: each factorization fails, or its solution is non-finite or has a
    relative residual above RESIDUAL_BOUND.
    """
    A, F = system.A, system.F
    f_norm = np.linalg.norm(F)
    a_norm = np.bincount(A.indices, weights=np.abs(A.data),
                         minlength=A.shape[1]).max()  # induced 1-norm, no abs(A) copy
    pattern = system.pattern  # its kept ordering serves a system holding its own arrays
    if pattern is not None and not (A.indices is pattern.indices and A.indptr is pattern.indptr):
        pattern = None

    def factor(values: np.ndarray, settings: dict):
        """splu under `settings` of the matrix with A's pattern and these values
        (A's own or Re A's); the symmetric settings take the kept ordering."""
        if settings == SYMMETRIC and pattern is not None and pattern.ordering is not None:
            return pattern.ordering.factor(pattern, values)
        # A = A^T exactly, so its CSR arrays read as CSC are A: no copy
        return splu(sp.csc_matrix((values, A.indices, A.indptr), shape=A.shape), **settings)

    real = system.tbc is not None and system.dof_map.size >= REAL_MIN_DOFS
    attempts = [(True, SYMMETRIC)] * real + [(False, s) for s in FACTORIZATIONS]
    for in_real, settings in attempts:
        try:
            if in_real:  # the factors hold their own copy of Re A's values
                factors = factor(A.data.real.copy(), settings)
                lu = _Woodbury(factors, system)
            else:
                lu = factors = factor(A.data, settings)
            w = lu.solve(F)
            if not np.all(np.isfinite(w)):
                failure = "solver produced non-finite entries (singular system)"
                continue
            # iterative refinement reuses the factorization.  The first sweep
            # always runs: diagonal pivots can lose digits of w (6e-9 relative
            # on an ellipse) while the backward error stays far inside the gate,
            # and it absorbs the Woodbury columns left out.  The second recovers
            # digits lost to ill-conditioning on graded meshes.  Each residual
            # serves the gate and the next sweep's correction.
            r = F - A @ w
            for _ in range(2):
                w = w + lu.solve(r)
                r = F - A @ w
                # normwise backward error; stays meaningful when grading drives
                # the matrix norm far above the load norm
                denom = a_norm * np.linalg.norm(w) + f_norm
                residual = float(np.linalg.norm(r) / (denom if denom > 0 else 1.0))
                if residual <= RESIDUAL_BOUND:
                    break
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            # a singular matrix, or a failed half of the real attempt's solves
            failure = f"factorization failed: {exc}"
            continue
        if residual <= RESIDUAL_BOUND:
            if settings == SYMMETRIC and pattern is not None and pattern.ordering is None:
                # any passing fresh attempt keeps its ordering for later systems
                pattern.ordering = _Ordering(factors.perm_c)
            return w, residual
        failure = f"relative residual {residual:.3e} exceeds {RESIDUAL_BOUND}"
    raise SolverError(failure)


def recover_fields(w_vec: np.ndarray, system: BlockSystem, mesh: Mesh,
                   incident: IncidentField, residual: float = 0.0) -> SolutionField:
    """Scatter the unknown vector to nodal p and q."""
    dof = system.dof_map
    if len(w_vec) != dof.size:
        raise SolverError("unknown vector does not match the system dimension")
    return SolutionField(p=w_vec[dof.p_dof], q=w_vec[dof.q_dof],
                         u_inc=incident(mesh.nodes), residual=residual)
