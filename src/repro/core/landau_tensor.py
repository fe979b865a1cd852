"""Landau tensors: the 3D projection kernel (eq. 3) and its axisymmetric
forms ``U^D`` and ``U^K`` (eqs. 7-8), the analogue of PETSc's
``LandauTensor2D``/``LandauTensor3D``.

Axisymmetric reduction
----------------------
With the field point at ``(r, z)`` (azimuth 0 WLOG) and the source point at
``(rp, zp)`` with azimuth ``phi``, the relative velocity magnitude is

    |u|^2 = A - B cos(phi),   A = r^2 + rp^2 + (z - zp)^2,   B = 2 r rp .

Because the distributions are axisymmetric, the source azimuth is integrated
analytically.  The required integrals

    I1n = int_0^{2pi} cos^n(phi) |u|^-1 dphi      (n = 0, 1)
    I3n = int_0^{2pi} cos^n(phi) |u|^-3 dphi      (n = 0, 1, 2)

reduce to complete elliptic integrals ``K(m)``, ``E(m)`` with parameter
``m = 2B/(A+B)`` (scipy convention: parameter m = k^2):

    I10 = 4 K / sqrt(A+B)
    I11 = (4 / sqrt(A+B)) * (2 (K - E)/m - K)
    I30 = 4 T0 / (A+B)^{3/2},             T0 = E / (1 - m)
    I31 = (4 / (A+B)^{3/2}) * (2 T1 - T0), T1 = (T0 - K)/m
    I32 = (4 / (A+B)^{3/2}) * (4 T2 - 4 T1 + T0), T2 = (T0 - 2K + E)/m^2

(derived with the half-angle substitution; property-tested against direct
numerical quadrature of the 3D tensor in the test suite).

Tensor components
-----------------
In the local (e_r, e_z) frame at the field point, with
``u . e_r(0) = r - rp cos(phi)``, ``u . e_r(phi) = r cos(phi) - rp`` and
``u_z = z - zp = dz``:

    U^D_ij = int dphi [ delta_ij / |u| - (u.e_i(0))(u.e_j(0)) / |u|^3 ]
    U^K_ij = int dphi [ e_i(0).e_j(phi) / |u| - (u.e_i(0))(u.e_j(phi)) / |u|^3 ]

``U^D`` contracts two field-point gradients (the diffusion term, eq. 5);
``U^K`` contracts a field-point gradient with a source-point gradient (the
friction term, eq. 6).

Pair symmetry
-------------
``A``, ``B`` and therefore all five integrals depend on the *unordered*
pair only, and so do ``Dzz`` and ``Krr``.  Exchanging field and source
point flips the sign of ``dz`` and swaps ``r <-> rp``, which maps
``Drz(x, x') = Kzr(x', x)`` and leaves ``Drr`` as the one component whose
exchanged value needs new arithmetic.  The expressions below are written
so these identities hold *bitwise* (``(r^2 + rp^2) + dz^2``, ``(2 r) rp``:
every rounding is of a quantity symmetric in the pair), which is what lets
:func:`pair_block_tensors` evaluate each unordered pair once and still
reproduce :func:`landau_tensors_cyl` entry for entry.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
from scipy import special as sps

__all__ = [
    "landau_tensor_3d",
    "azimuthal_integrals",
    "landau_tensors_cyl",
    "pair_block_tensors",
    "shared_block_scratch",
    "field_rows",
]

#: relative tolerance below which a pair is considered coincident and masked
#: (the self-interaction term, dropped exactly as PETSc's ``mask`` does).
SINGULAR_REL_TOL = 1e-14

#: parameter below which the cancellation-prone combinations of ``K`` and
#: ``E`` switch to their Maclaurin series (see :func:`azimuthal_integrals`)
SMALL_M = 2.0e-3


def landau_tensor_3d(v: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """The 3D Landau projection tensor ``U(v, vp)`` of eq. (3).

    ``U = (|u|^2 I - u u^T) / |u|^3`` with ``u = v - vp``.  Inputs are
    broadcastable arrays of 3-vectors; returns ``(..., 3, 3)``.
    """
    v = np.asarray(v, dtype=float)
    vp = np.asarray(vp, dtype=float)
    u = v - vp
    u2 = np.sum(u * u, axis=-1)
    if np.any(u2 == 0.0):
        raise ZeroDivisionError("Landau tensor is singular at v == vp")
    norm = u2**1.5
    eye = np.eye(3)
    return (u2[..., None, None] * eye - u[..., :, None] * u[..., None, :]) / norm[
        ..., None, None
    ]


def _small_m_series(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maclaurin series of ``T1 = (T0 - K)/m``, ``T2 = (T0 - 2K + E)/m^2``
    and ``2 (K - E)/m - K`` (``T0 = E/(1 - m)``), which cancel
    catastrophically as ``m -> 0`` (nearly on-axis pairs): with
    ``c = pi/2``,

        T1   = c [ 1/2 + (9/16) m + (75/128) m^2 + (1225/2048) m^3 + ... ]
        T2   = c [ 3/8 + (15/32) m + (525/1024) m^2 + ... ]
        I11c = c [ m/8 + (3/32) m^2 + (75/1024) m^3 + ... ]

    (series error O(m^3) ~ cancellation error at the ``SMALL_M``
    crossover)."""
    hp = 0.5 * np.pi
    return (
        hp * (0.5 + m * (9.0 / 16.0 + m * (75.0 / 128.0 + m * 1225.0 / 2048.0))),
        hp * (3.0 / 8.0 + m * (15.0 / 32.0 + m * 525.0 / 1024.0)),
        hp * m * (0.125 + m * (3.0 / 32.0 + m * 75.0 / 1024.0)),
    )


def azimuthal_integrals(
    A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(I10, I11, I30, I31, I32)`` for ``|u|^2 = A - B cos(phi)``.

    Requires ``A > B >= 0`` element-wise (guaranteed for distinct points in
    the (r >= 0, z) half-plane).  Uses ``scipy.special.ellipk/ellipe`` with
    parameter ``m = 2B/(A+B)``; the ``m -> 0`` (``B = 0``, on-axis) limit is
    handled by series-free exact values ``K = E = pi/2``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    ApB = A + B
    AmB = A - B
    m = 2.0 * B / ApB
    # scipy's ellipkm1 gives K(1-m1) accurately near m=1; here simple ellipk
    # suffices because coincident pairs are masked before calling.
    K = sps.ellipk(m)
    E = sps.ellipe(m)
    sqrt_ApB = np.sqrt(ApB)
    inv_sqrt = 1.0 / sqrt_ApB
    inv_pow32 = inv_sqrt / ApB

    T0 = E * ApB / AmB  # E/(1-m), written to avoid forming 1-m
    # (T0-K)/m, (T0-2K+E)/m^2 and 2(K-E)/m - K cancel catastrophically as
    # m -> 0, so switch to their series there (_small_m_series)
    small = m < SMALL_M
    msafe = np.where(small, 1.0, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        T1 = (T0 - K) / msafe
        T2 = (T0 - 2.0 * K + E) / (msafe * msafe)
        I11_core = 2.0 * (K - E) / msafe - K
    if np.any(small):
        sT1, sT2, sI11 = _small_m_series(np.where(small, m, 0.0))
        T1 = np.where(small, sT1, T1)
        T2 = np.where(small, sT2, T2)
        I11_core = np.where(small, sI11, I11_core)
    I10 = 4.0 * K * inv_sqrt
    I11 = 4.0 * I11_core * inv_sqrt
    I30 = 4.0 * T0 * inv_pow32
    I31 = 4.0 * (2.0 * T1 - T0) * inv_pow32
    I32 = 4.0 * (4.0 * T2 - 4.0 * T1 + T0) * inv_pow32
    return I10, I11, I30, I31, I32


def landau_tensors_cyl(
    r: np.ndarray,
    z: np.ndarray,
    rp: np.ndarray,
    zp: np.ndarray,
    mask_singular: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Axisymmetric Landau tensors ``U^D`` and ``U^K`` for point pairs.

    Parameters
    ----------
    r, z:
        field-point coordinates (broadcastable arrays).
    rp, zp:
        source-point coordinates (broadcastable against ``r, z``).
    mask_singular:
        if True (default), coincident pairs contribute zero — the ``mask``
        of PETSc's kernel; if False, coincident pairs raise.

    Returns
    -------
    UD:
        ``(..., 2, 2)`` diffusion tensor (symmetric).
    UK:
        ``(..., 2, 2)`` friction tensor; ``K_i = sum_j UK[i, j] (grad f)_j``.
    """
    r, z, rp, zp = np.broadcast_arrays(
        np.asarray(r, dtype=float),
        np.asarray(z, dtype=float),
        np.asarray(rp, dtype=float),
        np.asarray(zp, dtype=float),
    )
    dz = z - zp
    A = r * r + rp * rp + dz * dz
    B = 2.0 * r * rp

    scale = np.maximum(A, 1.0)
    coincident = (A - B) <= SINGULAR_REL_TOL * scale
    if np.any(coincident):
        if not mask_singular:
            raise ZeroDivisionError("coincident field/source pair in Landau tensor")
        # displace the coincident pairs; their contributions are zeroed below
        A = np.where(coincident, A + 1.0, A)
        B = np.where(coincident, 0.0, B)

    I10, I11, I30, I31, I32 = azimuthal_integrals(A, B)

    shape = r.shape
    UD = np.zeros(shape + (2, 2))
    UK = np.zeros(shape + (2, 2))

    # u . e_r(0)   = r - rp cos(phi)
    # u . e_r(phi) = r cos(phi) - rp
    # u_z          = dz
    # --- U^D: delta_ij I1(0) (for rr, zz) minus second moments of u at field frame
    # (u.e_r(0))^2 = r^2 - 2 r rp cos + rp^2 cos^2
    UD[..., 0, 0] = I10 - (r * r * I30 - 2.0 * r * rp * I31 + rp * rp * I32)
    # (u.e_r(0)) u_z = dz (r - rp cos)
    UD[..., 0, 1] = -(dz * (r * I30 - rp * I31))
    UD[..., 1, 0] = UD[..., 0, 1]
    UD[..., 1, 1] = I10 - dz * dz * I30

    # --- U^K: e_i(0).e_j(phi)/|u| - (u.e_i(0))(u.e_j(phi))/|u|^3
    # rr: cos/|u| - (r - rp cos)(r cos - rp)/|u|^3
    #   (r - rp cos)(r cos - rp) = r^2 cos - r rp - r rp cos^2 + rp^2 cos
    UK[..., 0, 0] = I11 - (
        (r * r + rp * rp) * I31 - r * rp * (I30 + I32)
    )
    # rz: -(u.e_r(0)) u_z / |u|^3 = -dz (r - rp cos)/|u|^3
    UK[..., 0, 1] = -(dz * (r * I30 - rp * I31))
    # zr: -u_z (u.e_r(phi)) / |u|^3 = -dz (r cos - rp)/|u|^3
    UK[..., 1, 0] = -(dz * (r * I31 - rp * I30))
    # zz: 1/|u| - dz^2/|u|^3
    UK[..., 1, 1] = I10 - dz * dz * I30

    if np.any(coincident):
        UD[coincident] = 0.0
        UK[coincident] = 0.0
    return UD, UK


# ----------------------------------------------------------------------
# The row-block kernel behind the two O(N^2) hot loops of Algorithm 1 —
# the field-response build (:meth:`repro.core.operator.LandauOperator.
# _build_response`, which contracts a block's rows against the basis as
# soon as they are complete) and the on-the-fly field launch, which
# :meth:`repro.backend.NumpyBackend.field_rows` runs.  Both are the same
# evaluation of the tensors for a block of point pairs, followed by
# "contract against the basis" or "contract against the sources"
# (:func:`field_rows`).

#: float64 planes of per-pair scratch :func:`pair_block_tensors` holds
#: live at its widest point (the six results, the integrals still to be
#: consumed and one temporary); sizes the blocks the operator cuts
PAIR_BLOCK_PLANES = 13

#: the calling thread's open :func:`shared_block_scratch`, if any
_scratch = threading.local()


@contextlib.contextmanager
def shared_block_scratch():
    """Within the ``with``, the calling thread's :func:`pair_block_tensors`
    calls — the blocks of one launch — share one scratch allocation, grown
    to the largest block and released on exit.  Outside any ``with`` every
    call allocates, and drops, its own."""
    _scratch.buf = np.empty(0)
    try:
        yield
    finally:
        del _scratch.buf


def _scratch_planes(R: int, W: int) -> list[np.ndarray]:
    """``PAIR_BLOCK_PLANES`` uninitialised contiguous ``(R, W)`` planes."""
    need = PAIR_BLOCK_PLANES * R * W
    buf = getattr(_scratch, "buf", None)
    if buf is None:
        buf = np.empty(need)
    elif buf.size < need:
        _scratch.buf = buf = None  # drop the smaller one before growing
        buf = _scratch.buf = np.empty(need)
    return list(buf[:need].reshape(PAIR_BLOCK_PLANES, R, W))


def pair_block_tensors(
    r: np.ndarray, z: np.ndarray, i0: int, i1: int
) -> tuple[np.ndarray, ...]:
    """The packed tensor components of field points ``[i0, i1)`` against
    source points ``[i0, N)``: ``(Drr, Drz, Dzz, Krr, Kzr, DrrT)``, each
    ``(i1 - i0, N - i0)``.

    The first five are entry for entry what :func:`landau_tensors_cyl`
    gives for those pairs (same expression trees, so ``np.array_equal``;
    only signed zeros can differ).  ``DrrT[i, j]`` is ``Drr`` with field
    and source exchanged, ``Drr(x_j, x_i)`` — together with ``Dzz``,
    ``Krr`` (unchanged under exchange) and ``Drz``/``Kzr`` (which swap)
    it gives the tensors of the pairs below the block without evaluating
    their integrals again, see "Pair symmetry" in the module docstring.

    Every intermediate is formed in place in ``PAIR_BLOCK_PLANES``
    planes of scratch, and the results are views into it: inside a
    :func:`shared_block_scratch` the calling thread's next block
    overwrites them.  The coincident pairs and the ``m < SMALL_M``
    series branch are fixed up by index on the few entries they touch.
    """
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    R = i1 - i0
    r_j = r[None, i0:]
    r_i = r[i0:i1, None]
    r2 = r[i0:] * r[i0:]
    r2_j = r2[None, :]
    r2_i = r2[:R, None]
    free = _scratch_planes(R, r_j.shape[1])
    take, drop = free.pop, free.append

    # geometry: A = r^2 + rp^2 + dz^2, B = 2 r rp
    dz = sub(z[i0:i1, None], z[None, i0:], out=take())
    dz2 = mul(dz, dz, out=take())
    rr = add(r2_i, r2_j, out=take())
    A = add(rr, dz2, out=take())
    B = mul(2.0 * r_i, r_j, out=take())
    AmB = sub(A, B, out=take())
    tol = np.maximum(A, 1.0, out=take())
    tol *= SINGULAR_REL_TOL
    coincident = np.flatnonzero(AmB <= tol)
    if coincident.size:
        # displaced like the reference; the results are zeroed below
        A.ravel()[coincident] += 1.0
        B.ravel()[coincident] = 0.0
        AmB.ravel()[coincident] = A.ravel()[coincident]
    ApB = add(A, B, out=A)

    # azimuthal_integrals(A, B), statement for statement
    m = mul(2.0, B, out=tol)
    m /= ApB
    K = sps.ellipk(m, out=take())
    E = sps.ellipe(m, out=take())
    small = np.flatnonzero(m < SMALL_M)
    if small.size:
        m_small = m.ravel()[small]
        m.ravel()[small] = 1.0  # msafe
    T0 = mul(E, ApB, out=take())
    T0 /= AmB
    inv_sqrt = np.sqrt(ApB, out=AmB)
    div(1.0, inv_sqrt, out=inv_sqrt)
    inv_pow32 = div(inv_sqrt, ApB, out=ApB)
    T1 = sub(T0, K, out=take())
    T1 /= m
    T2 = mul(2.0, K, out=take())
    sub(T0, T2, out=T2)
    T2 += E
    mm = mul(m, m, out=take())
    T2 /= mm
    drop(mm)
    I11 = sub(K, E, out=E)
    mul(2.0, I11, out=I11)
    I11 /= m
    I11 -= K
    drop(m)
    if small.size:
        T1.ravel()[small], T2.ravel()[small], I11.ravel()[small] = _small_m_series(
            m_small
        )
    I10 = mul(4.0, K, out=K)
    I10 *= inv_sqrt
    mul(4.0, I11, out=I11)
    I11 *= inv_sqrt
    I31 = mul(2.0, T1, out=inv_sqrt)
    I31 -= T0
    mul(4.0, I31, out=I31)
    I31 *= inv_pow32
    I32 = mul(4.0, T2, out=T2)
    mul(4.0, T1, out=T1)
    I32 -= T1
    drop(T1)
    I32 += T0
    mul(4.0, I32, out=I32)
    I32 *= inv_pow32
    I30 = mul(4.0, T0, out=T0)
    I30 *= inv_pow32
    drop(inv_pow32)

    # landau_tensors_cyl's components; 2 r rp is B (its displaced
    # entries are zeroed with the rest)
    BI31 = mul(B, I31, out=B)
    tmp = take()

    def radial(a2, b2):
        """``I10 - (a2 I30 - 2 r rp I31 + b2 I32)``."""
        out = mul(a2, I30, out=take())
        out -= BI31
        out += mul(b2, I32, out=tmp)
        return sub(I10, out, out=out)

    Drr = radial(r2_i, r2_j)
    DrrT = radial(r2_j, r2_i)
    drop(BI31)
    Dzz = mul(dz2, I30, out=dz2)
    sub(I10, Dzz, out=Dzz)
    Krr = mul(rr, I31, out=rr)
    cross = mul(r_i, r_j, out=tmp)
    cross *= add(I30, I32, out=I10)
    Krr -= cross
    sub(I11, Krr, out=Krr)

    def axial(a, b, out):
        """``-(dz (r a - rp b))``."""
        mul(r_i, a, out=out)
        out -= mul(r_j, b, out=tmp)
        out *= dz
        return np.negative(out, out=out)

    Drz = axial(I30, I31, I10)
    Kzr = axial(I31, I30, I11)

    comps = (Drr, Drz, Dzz, Krr, Kzr, DrrT)
    if coincident.size:
        for comp in comps:
            comp.ravel()[coincident] = 0.0
    return comps


def field_rows(
    G_D: np.ndarray,
    G_K: np.ndarray,
    r: np.ndarray,
    z: np.ndarray,
    cTD: np.ndarray,
    cTKr: np.ndarray,
    cTKz: np.ndarray,
    i0: int,
    i1: int,
) -> None:
    """On-the-fly Algorithm-1 inner integral, the share of row block
    ``[i0, i1)``: evaluate the block's tensors and contract them against
    the ``(N, B)`` column sources, *adding* into ``G_D (B, N, 2, 2)`` /
    ``G_K (B, N, 2)`` the sums over sources ``[i0, N)`` for field rows
    ``[i0, i1)`` and, through the mirror, the sums over sources
    ``[i0, i1)`` for field rows ``[i1, N)``.

    Calls over any partition of ``[0, N)`` turn zero-initialised outputs
    into the complete fields.  A call writes rows beyond its own block,
    so concurrent calls need separate outputs (summed by the caller).
    """
    Drr, Drz, Dzz, Krr, Kzr, DrrT = pair_block_tensors(r, z, i0, i1)
    rows = slice(i0, i1)
    sD, sKr, sKz = cTD[i0:], cTKr[i0:], cTKz[i0:]
    Grz = (Drz @ sD).T
    G_D[:, rows, 0, 0] += (Drr @ sD).T
    G_D[:, rows, 0, 1] += Grz
    G_D[:, rows, 1, 0] += Grz
    G_D[:, rows, 1, 1] += (Dzz @ sD).T
    G_K[:, rows, 0] += (Krr @ sKr + Drz @ sKz).T
    G_K[:, rows, 1] += (Kzr @ sKr + Dzz @ sKz).T
    R = i1 - i0
    if R == Drr.shape[1]:
        return
    # rows below the block: U(x_j, x_i) from the integrals of (x_i, x_j)
    # — Drr from DrrT, Drz and Kzr exchanged, Dzz and Krr as they are
    below = slice(i1, None)
    DrrT, Drz, Dzz, Krr, Kzr = (
        comp[:, R:] for comp in (DrrT, Drz, Dzz, Krr, Kzr)
    )
    sD, sKr, sKz = cTD[rows].T, cTKr[rows].T, cTKz[rows].T
    Grz = sD @ Kzr
    G_D[:, below, 0, 0] += sD @ DrrT
    G_D[:, below, 0, 1] += Grz
    G_D[:, below, 1, 0] += Grz
    G_D[:, below, 1, 1] += sD @ Dzz
    G_K[:, below, 0] += sKr @ Krr + sKz @ Kzr
    G_K[:, below, 1] += sKr @ Drz + sKz @ Dzz
