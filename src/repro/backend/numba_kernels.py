"""``nopython`` kernels for the numba execution backend.

These are scalar-loop translations of the Algorithm-1 hot paths —
the packed pair-table build, the on-the-fly row-block field integral,
the two batched element contractions of the assembly spec, and the CSR
scatter-apply — compiled with ``numba.njit(nogil=True)`` so the
threaded dispatch layer (``ThreadedBackend.parallel_for``) overlaps
row blocks across cores without the GIL.

Elliptic integrals
------------------
``scipy.special.ellipk/ellipe`` are unavailable inside ``nopython``
code, and the usual Abramowitz & Stegun polynomial fits (~2e-8) would
blow the repo's ≤1e-12 cross-backend equivalence bar.  We instead use
the arithmetic-geometric mean (AGM) iteration, which is exact to
rounding in a handful of iterations:

    K(m) = pi / (2 AGM(1, sqrt(1-m)))
    E(m) = K(m) (1 - sum_n 2^{n-1} c_n^2),   c_0 = sqrt(m),
    c_{n+1} = (a_n - b_n)/2

The ``m -> 0`` (on-axis) limit returns exactly ``K = E = pi/2``,
matching the numpy reference's series-free branch; ``m -> 1``
(near-coincident) pairs are masked before the integrals are evaluated,
exactly like the reference (`SINGULAR_REL_TOL`).

Import discipline
-----------------
The module imports cleanly without numba: kernels are then plain
python functions (numerically identical, just slow), which is how the
kernel *math* is unit-tested on hosts without numba.  The
:class:`~repro.backend.numba_backend.NumbaBackend` refuses to
construct in that case, so the slow fallbacks never reach production
paths.  ``REPRO_NUMBA_CACHE=1`` turns on numba's on-disk kernel cache
(point ``NUMBA_CACHE_DIR`` somewhere persistent in CI).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common container case
    njit = None
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "SINGULAR_REL_TOL",
    "SMALL_M",
    "ellip_ke",
    "pair_components",
    "pair_rows",
    "field_rows",
    "element_blocks_D",
    "element_blocks_K",
    "csr_scatter_rows",
]

#: must match :data:`repro.core.landau_tensor.SINGULAR_REL_TOL`
#: (asserted by tests/test_backend_conformance.py)
SINGULAR_REL_TOL = 1e-14
#: series-switch threshold for the cancellation-prone combinations;
#: must match :data:`repro.core.landau_tensor.SMALL_M`
SMALL_M = 2.0e-3


def _jit(fn):
    """``njit(nogil=True)`` when numba is present, identity otherwise."""
    if not HAVE_NUMBA:
        return fn
    cache = os.environ.get("REPRO_NUMBA_CACHE", "0").strip().lower() not in (
        "0",
        "",
        "false",
        "off",
    )
    return njit(nogil=True, fastmath=False, cache=cache)(fn)


@_jit
def ellip_ke(m):
    """Complete elliptic integrals ``(K(m), E(m))`` by AGM iteration.

    Valid for ``0 <= m < 1``; exact ``pi/2`` pair at ``m == 0``.
    """
    half_pi = 0.5 * math.pi
    if m <= 0.0:
        return half_pi, half_pi
    a = 1.0
    b = math.sqrt(1.0 - m)
    c = math.sqrt(m)
    csum = 0.5 * c * c  # 2^{-1} c_0^2
    pow2 = 0.5
    for _ in range(64):
        an = 0.5 * (a + b)
        c = 0.5 * (a - b)
        b = math.sqrt(a * b)
        a = an
        pow2 *= 2.0
        csum += pow2 * c * c
        # c stalls at ~1 ulp of a (b = sqrt(a*b) rounding), so the
        # threshold must sit *above* the stall: a tighter cut (say
        # 1e-17 a) never triggers and the doubling pow2 amplifies the
        # stalled c^2 into ~1e-14 of junk over the remaining iterations
        if c <= 2.3e-16 * a:
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


@_jit
def pair_components(ri, zi, rj, zj):
    """The five packed Landau tensor components for one point pair:
    ``(Drr, Drz, Dzz, Krr, Kzr)`` — a scalar transliteration of
    ``azimuthal_integrals`` + ``landau_tensors_cyl`` including the
    coincident-pair mask and the small-``m`` series switch."""
    dz = zi - zj
    A = ri * ri + rj * rj + dz * dz
    B = 2.0 * ri * rj
    scale = A if A > 1.0 else 1.0
    if (A - B) <= 1e-14 * scale:  # SINGULAR_REL_TOL
        return 0.0, 0.0, 0.0, 0.0, 0.0
    ApB = A + B
    AmB = A - B
    m = 2.0 * B / ApB
    K, E = ellip_ke(m)
    sqrt_ApB = math.sqrt(ApB)
    inv_sqrt = 1.0 / sqrt_ApB
    inv_pow32 = inv_sqrt / ApB
    T0 = E * ApB / AmB
    if m < 2.0e-3:  # SMALL_M: Maclaurin series vs catastrophic cancellation
        hp = 0.5 * math.pi
        T1 = hp * (
            0.5 + m * (9.0 / 16.0 + m * (75.0 / 128.0 + m * 1225.0 / 2048.0))
        )
        T2 = hp * (3.0 / 8.0 + m * (15.0 / 32.0 + m * 525.0 / 1024.0))
        I11c = hp * m * (0.125 + m * (3.0 / 32.0 + m * 75.0 / 1024.0))
    else:
        T1 = (T0 - K) / m
        T2 = (T0 - 2.0 * K + E) / (m * m)
        I11c = 2.0 * (K - E) / m - K
    I10 = 4.0 * K * inv_sqrt
    I11 = 4.0 * I11c * inv_sqrt
    I30 = 4.0 * T0 * inv_pow32
    I31 = 4.0 * (2.0 * T1 - T0) * inv_pow32
    I32 = 4.0 * (4.0 * T2 - 4.0 * T1 + T0) * inv_pow32
    Drr = I10 - (ri * ri * I30 - 2.0 * ri * rj * I31 + rj * rj * I32)
    Drz = -(dz * (ri * I30 - rj * I31))
    Dzz = I10 - dz * dz * I30
    Krr = I11 - ((ri * ri + rj * rj) * I31 - ri * rj * (I30 + I32))
    Kzr = -(dz * (ri * I31 - rj * I30))
    return Drr, Drz, Dzz, Krr, Kzr


@_jit
def pair_rows(out, r, z, i0, i1):
    """Packed pair-table rows ``[i0, i1)`` of ``out (5, N, N)``.

    Disjoint row blocks make concurrent calls safe; ``nogil`` lets the
    threaded dispatcher overlap them.
    """
    N = r.shape[0]
    for i in range(i0, i1):
        ri = r[i]
        zi = z[i]
        for j in range(N):
            Drr, Drz, Dzz, Krr, Kzr = pair_components(ri, zi, r[j], z[j])
            out[0, i, j] = Drr
            out[1, i, j] = Drz
            out[2, i, j] = Dzz
            out[3, i, j] = Krr
            out[4, i, j] = Kzr


@_jit
def field_rows(G_D, G_K, r, z, cTD, cTKr, cTKz, i0, i1):
    """Algorithm-1 on-the-fly inner integral for field rows ``[i0, i1)``:
    tensors are recomputed per pair (never materialized) and contracted
    against the ``(N, B)`` column sources ``cTD``/``cTKr``/``cTKz``,
    accumulating into zero-initialized ``G_D (B, N, 2, 2)`` /
    ``G_K (B, N, 2)`` rows (``Krz``/``Kzz`` alias ``Drz``/``Dzz``)."""
    N = r.shape[0]
    Bk = cTD.shape[1]
    for i in range(i0, i1):
        ri = r[i]
        zi = z[i]
        for j in range(N):
            Drr, Drz, Dzz, Krr, Kzr = pair_components(ri, zi, r[j], z[j])
            for b in range(Bk):
                td = cTD[j, b]
                G_D[b, i, 0, 0] += Drr * td
                G_D[b, i, 0, 1] += Drz * td
                G_D[b, i, 1, 1] += Dzz * td
                tkr = cTKr[j, b]
                tkz = cTKz[j, b]
                G_K[b, i, 0] += Krr * tkr + Drz * tkz
                G_K[b, i, 1] += Kzr * tkr + Dzz * tkz
        for b in range(Bk):
            G_D[b, i, 1, 0] = G_D[b, i, 0, 1]


@_jit
def element_blocks_D(w, gphys, GD, out, x0, x1):
    """Diffusion element blocks for batch rows ``[x0, x1)``:

    ``out[x,e,a,b] += sum_{q,d,c} w[e,q] gphys[e,q,a,d] GD[x,e,q,d,c]
    gphys[e,q,b,c]`` — the ``"eq,eqad,xeqdc,eqbc->xeab"`` assembly spec.
    """
    ne, nq = w.shape
    nb = gphys.shape[2]
    for x in range(x0, x1):
        for e in range(ne):
            for q in range(nq):
                wq = w[e, q]
                d00 = GD[x, e, q, 0, 0]
                d01 = GD[x, e, q, 0, 1]
                d10 = GD[x, e, q, 1, 0]
                d11 = GD[x, e, q, 1, 1]
                for a in range(nb):
                    ga0 = gphys[e, q, a, 0]
                    ga1 = gphys[e, q, a, 1]
                    t0 = wq * (ga0 * d00 + ga1 * d10)
                    t1 = wq * (ga0 * d01 + ga1 * d11)
                    for b in range(nb):
                        out[x, e, a, b] += (
                            t0 * gphys[e, q, b, 0] + t1 * gphys[e, q, b, 1]
                        )


@_jit
def element_blocks_K(w, gphys, GK, Bq, out, x0, x1):
    """Friction element blocks for batch rows ``[x0, x1)``:

    ``out[x,e,a,b] += sum_{q,d} w[e,q] gphys[e,q,a,d] GK[x,e,q,d]
    Bq[q,b]`` — the ``"eq,eqad,xeqd,qb->xeab"`` assembly spec.
    """
    ne, nq = w.shape
    nb = gphys.shape[2]
    for x in range(x0, x1):
        for e in range(ne):
            for q in range(nq):
                wq = w[e, q]
                k0 = GK[x, e, q, 0]
                k1 = GK[x, e, q, 1]
                for a in range(nb):
                    s = wq * (gphys[e, q, a, 0] * k0 + gphys[e, q, a, 1] * k1)
                    for b in range(nb):
                        out[x, e, a, b] += s * Bq[q, b]


@_jit
def csr_scatter_rows(indptr, indices, data, flat, out, x0, x1):
    """CSR scatter-apply for batch rows ``[x0, x1)``:
    ``out[x, i] = sum_p data[p] flat[x, indices[p]]`` over the scatter
    operator's row ``i`` slice ``p in [indptr[i], indptr[i+1])``."""
    nrows = indptr.shape[0] - 1
    for x in range(x0, x1):
        for i in range(nrows):
            acc = 0.0
            for p in range(indptr[i], indptr[i + 1]):
                acc += data[p] * flat[x, indices[p]]
            out[x, i] = acc


def warm_all() -> None:
    """Compile every kernel on tiny inputs (both table dtypes), so the
    first real call never pays compilation.  Harmless (just slow) when
    numba is absent."""
    r = np.array([0.5, 1.0, 1.5])
    z = np.array([-0.25, 0.0, 0.25])
    for dt in (np.float64, np.float32):
        out = np.zeros((5, 3, 3), dtype=dt)
        pair_rows(out, r, z, 0, 3)
    G_D = np.zeros((2, 3, 2, 2))
    G_K = np.zeros((2, 3, 2))
    c = np.ones((3, 2))
    field_rows(G_D, G_K, r, z, c, c, c, 0, 3)
    w = np.ones((2, 2))
    gphys = np.ones((2, 2, 3, 2))
    Bq = np.ones((2, 3))
    Ce = np.zeros((1, 2, 3, 3))
    element_blocks_D(w, gphys, np.ones((1, 2, 2, 2, 2)), Ce, 0, 1)
    element_blocks_K(w, gphys, np.ones((1, 2, 2, 2)), Bq, Ce, 0, 1)
    indptr = np.array([0, 1, 2], dtype=np.int32)
    indices = np.array([0, 1], dtype=np.int32)
    csr_scatter_rows(
        indptr, indices, np.ones(2), np.ones((1, 2)), np.zeros((1, 2)), 0, 1
    )
