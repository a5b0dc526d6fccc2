"""Host-speed reference: a fixed kernel that does not use the program under test.

The machine the benchmark runs on may share its cores, caches and memory
bandwidth with other tenants, and its speed then drifts by tens of per cent
over minutes; CPU time drifts with wall time, so this is not descheduling.
The benchmark times `reference_kernel` before and after each timed event and
scales the event by ``REFERENCE_S`` over the mean of those two timings
(`scale`): times are reported in seconds at the host speed at which the
kernel takes ``REFERENCE_S``.  The drift is fast (the kernel's median over
5 s windows of one process moved by +-20 %), so the reference is taken next
to each event, not once per run.

The kernel mixes the kinds of work the program does (pure-Python dict
building over a triangle mesh, element-by-element assembly with small numpy
arrays, a complex sparse LU, and Hankel and Bessel series with
scipy.special) and imports nothing from the program, so a change to the
program leaves it unchanged.  Kinds of work slow down by different shares
when the host is busy, so the mix matters: a kernel without the series part
over-corrected the series-dominated workload.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy import special

GRID = 64
MODES = 15
POINTS = 2500
# median of reference_kernel() over 20 calls on an idle 2-vCPU Xeon
# (2.1 GHz) virtual machine with one BLAS thread
REFERENCE_S = 0.40


def reference_kernel(n: int = GRID, points: int = POINTS) -> tuple[int, float]:
    """P1 Laplacian plus a complex shift on an n x n triangle grid, factorised,
    and a Hankel/Bessel series at `points` radii.

    Like the program, it builds the edge map in pure Python, assembles
    element by element with small numpy arrays, factorises with splu and
    sums mode series of scipy.special functions.
    """
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, i * (n + 1) + j + 1
            c, d = a + n + 1, b + n + 1
            tris += [(a, b, d), (a, d, c)]
    edges: dict[tuple[int, int], list[int]] = {}
    for t, (p, q, r) in enumerate(tris):
        for e in ((p, q), (q, r), (r, p)):
            edges.setdefault((min(e), max(e)), []).append(t)

    xs = np.linspace(0.0, 1.0, n + 1)
    pts = np.column_stack([c.ravel() for c in np.meshgrid(xs, xs)])
    rows, cols, vals = [], [], []
    for tri in tris:
        ids = list(tri)
        P = pts[ids]
        D = np.array([P[1] - P[0], P[2] - P[0]])
        G = np.linalg.inv(D)
        grads = np.column_stack([-G.sum(axis=1), G])
        local = 0.5 * abs(np.linalg.det(D)) * (grads.T @ grads)
        for a in range(3):
            for b in range(3):
                rows.append(ids[a])
                cols.append(ids[b])
                vals.append(local[a, b])
    N = len(pts)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsc()
    A = A + (1.0 + 0.5j) * sp.identity(N, format="csc")
    x = sla.splu(A).solve(np.ones(N, dtype=complex))

    orders = np.arange(MODES + 1)
    z = np.linspace(1.0, 4.0, points)[:, None]
    theta = np.linspace(0.0, 2.0 * np.pi, points)
    ang = np.exp(1j * np.outer(theta, orders))
    series = (special.hankel1(orders, z) + special.h1vp(orders, z)
              + special.kve(orders, z) * np.exp(-z)) * ang
    return len(edges), float(np.abs(x).sum() + np.abs(series.sum(axis=1)).sum())


def time_reference() -> float:
    """Wall time of one reference_kernel() call."""
    gc.collect()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at the reference host speed, from the reference timings around it."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
