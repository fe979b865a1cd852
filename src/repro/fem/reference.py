"""Tensor-product Lagrange (Qk) reference elements on ``[-1, 1]^2``.

The paper uses "tensor elements" where the number of basis functions equals
the number of integration points (``N_b = N_q``, e.g. 16 for Q3).  The basis
here is nodal Lagrange on Gauss-Lobatto-Legendre (GLL) points, which keeps
the interpolation well conditioned at higher order; node ordering is
lexicographic with the first reference coordinate fastest, matching
:class:`repro.fem.quadrature.TensorQuadrature`.

The ``tabulate`` method produces the ``B`` (values) and ``D`` (reference
gradients) tables passed to the element kernels — the direct analogue of the
finite element "tablatures" fed to Algorithm 1 in the paper.
"""

from __future__ import annotations

import numpy as np


def gauss_lobatto_points(n: int) -> np.ndarray:
    """``n`` Gauss-Lobatto-Legendre points on ``[-1, 1]`` (including endpoints).

    For ``n >= 3`` the interior points are the roots of ``P'_{n-1}``, the
    derivative of the Legendre polynomial of degree ``n-1``.
    """
    if n < 2:
        raise ValueError(f"GLL needs at least 2 points, got {n}")
    if n == 2:
        return np.array([-1.0, 1.0])
    # roots of derivative of Legendre polynomial of degree n-1
    cP = np.zeros(n)
    cP[-1] = 1.0
    dP = np.polynomial.legendre.legder(cP)
    interior = np.polynomial.legendre.legroots(dP)
    return np.concatenate([[-1.0], np.sort(interior), [1.0]])


def lagrange_basis_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the 1D Lagrange basis on ``nodes`` at points ``x``.

    Returns ``(len(x), len(nodes))``; row ``i`` holds all basis values at
    ``x[i]`` and sums to 1.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(nodes)
    vals = np.ones((len(x), n))
    for j in range(n):
        for m in range(n):
            if m == j:
                continue
            vals[:, j] *= (x - nodes[m]) / (nodes[j] - nodes[m])
    return vals


def lagrange_deriv_1d(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate first derivatives of the 1D Lagrange basis at ``x``.

    Returns ``(len(x), len(nodes))``.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(nodes)
    out = np.zeros((len(x), n))
    for j in range(n):
        # d/dx prod_m (x - x_m)/(x_j - x_m) = sum_k 1/(x_j-x_k) prod_{m!=k} ...
        for k in range(n):
            if k == j:
                continue
            term = np.ones(len(x)) / (nodes[j] - nodes[k])
            for m in range(n):
                if m == j or m == k:
                    continue
                term *= (x - nodes[m]) / (nodes[j] - nodes[m])
            out[:, j] += term
    return out


class LagrangeQuad:
    """Qk nodal Lagrange element on the reference square.

    Attributes
    ----------
    order:
        polynomial degree ``k``.
    nodes_1d:
        the ``k+1`` GLL nodes in each direction.
    nnodes:
        ``(k+1)^2`` basis functions / nodes.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.nodes_1d = gauss_lobatto_points(order + 1)
        self.nnodes_1d = order + 1
        self.nnodes = self.nnodes_1d**2
        # lexicographic node coordinates on the reference square
        xi, eta = np.meshgrid(self.nodes_1d, self.nodes_1d, indexing="xy")
        self.nodes = np.column_stack([xi.ravel(), eta.ravel()])

    def tabulate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tabulate basis values and reference gradients at ``points``.

        Parameters
        ----------
        points:
            ``(nq, 2)`` reference coordinates.

        Returns
        -------
        B:
            ``(nq, nnodes)`` basis values.
        D:
            ``(nq, nnodes, 2)`` reference-coordinate gradients.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vx = lagrange_basis_1d(self.nodes_1d, points[:, 0])
        vy = lagrange_basis_1d(self.nodes_1d, points[:, 1])
        dx = lagrange_deriv_1d(self.nodes_1d, points[:, 0])
        dy = lagrange_deriv_1d(self.nodes_1d, points[:, 1])
        nq = points.shape[0]
        B = np.empty((nq, self.nnodes))
        D = np.empty((nq, self.nnodes, 2))
        for j in range(self.nnodes_1d):
            for i in range(self.nnodes_1d):
                a = j * self.nnodes_1d + i
                B[:, a] = vx[:, i] * vy[:, j]
                D[:, a, 0] = dx[:, i] * vy[:, j]
                D[:, a, 1] = vx[:, i] * dy[:, j]
        return B, D

    def edge_nodes(self, edge: int) -> np.ndarray:
        """Local node indices on edge ``edge`` in edge-parameter order.

        Edges: 0 = bottom (eta=-1), 1 = right (xi=+1), 2 = top (eta=+1),
        3 = left (xi=-1).  Edge-parameter order runs with increasing
        xi (bottom/top) or increasing eta (left/right).
        """
        n = self.nnodes_1d
        if edge == 0:
            return np.arange(n)
        if edge == 1:
            return np.arange(n) * n + (n - 1)
        if edge == 2:
            return (n - 1) * n + np.arange(n)
        if edge == 3:
            return np.arange(n) * n
        raise ValueError(f"edge must be 0..3, got {edge}")

    def interior_nodes(self) -> np.ndarray:
        """Local indices of the ``(k-1)^2`` nodes on no edge, lexicographic.

        Their basis functions vanish on the cell boundary, so they couple
        only to the nodes of their own cell."""
        n = self.nnodes_1d
        inner = np.arange(1, n - 1)
        return (inner[:, None] * n + inner[None, :]).ravel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Q{self.order}"
