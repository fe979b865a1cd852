"""Streaming uncertainty-quantification reductions.

Members arrive one at a time (the campaign never holds full-ensemble
field arrays); every estimator here consumes scalars member-at-a-time:

* :class:`StreamingMoments` — Welford mean/variance;
* :class:`P2Quantile` — the Jain-Chlamtac P² running-quantile estimator
  (constant memory, no sorting of the full sample);
* :class:`ScalarReservoir` — a bounded scalar buffer feeding exact
  quantiles and bootstrap confidence intervals for campaign sizes below
  the cap (beyond it, the P² estimates stand alone and the CIs are
  computed on the retained subsample);
* :func:`bootstrap_ci` — seeded percentile bootstrap of any statistic;
* :func:`oat_sensitivity` — Sobol-style one-at-a-time first-order
  indices: the between-bin variance of conditional output means over
  each input dimension, normalized by total output variance.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "StreamingMoments",
    "P2Quantile",
    "ScalarReservoir",
    "EnsembleAccumulator",
    "bootstrap_ci",
    "oat_sensitivity",
]


class StreamingMoments:
    """Welford single-pass mean/variance."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class P2Quantile:
    """Jain-Chlamtac P² streaming quantile estimator (5 markers)."""

    def __init__(self, p: float):
        if not (0.0 < p < 1.0):
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = float(p)
        self._init: list[float] = []
        self._q = None  # marker heights
        self._n = None  # marker positions
        self._np = None  # desired positions
        self._dn = None  # desired-position increments

    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            return
        if self._q is None:
            self._init.append(x)
            if len(self._init) == 5:
                self._init.sort()
                p = self.p
                self._q = list(self._init)
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
                self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d >= 1.0 else -1.0
                qp = self._parabolic(i, d)
                if not (q[i - 1] < qp < q[i + 1]):
                    qp = self._linear(i, d)
                q[i] = qp
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        if self._q is not None:
            return float(self._q[2])
        if not self._init:
            return float("nan")
        # fewer than 5 samples: fall back to the exact empirical quantile
        s = sorted(self._init)
        k = self.p * (len(s) - 1)
        lo = int(math.floor(k))
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (k - lo) * (s[hi] - s[lo])


class ScalarReservoir:
    """Bounded scalar buffer (first ``cap`` finite values are retained)."""

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = int(cap)
        self.values: list[float] = []
        self.seen = 0
        self.dropped = 0

    def add(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            return
        self.seen += 1
        if len(self.values) < self.cap:
            self.values.append(x)
        else:
            self.dropped += 1

    def quantile(self, p: float) -> float:
        if not self.values:
            return float("nan")
        return float(np.quantile(np.asarray(self.values), p))


def bootstrap_ci(
    values,
    stat=np.mean,
    n_boot: int = 400,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap ``(lo, hi)`` CI of ``stat(values)``."""
    arr = np.asarray(list(values), dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size < 2:
        v = float(stat(arr)) if arr.size else float("nan")
        return (v, v)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    reps = np.asarray([float(stat(arr[row])) for row in idx])
    lo, hi = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(lo), float(hi))


class EnsembleAccumulator:
    """Member-at-a-time reduction of one scalar campaign output.

    Keeps Welford moments, P² quantile markers for the requested
    probabilities, and a bounded reservoir for exact quantiles/bootstrap
    CIs.  :meth:`summary` is the JSON-able distribution record the
    campaign report and JSON artifact embed.
    """

    QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

    def __init__(self, name: str, reservoir_cap: int = 4096, seed: int = 0):
        self.name = name
        self.moments = StreamingMoments()
        self.p2 = {p: P2Quantile(p) for p in self.QUANTILES}
        self.reservoir = ScalarReservoir(reservoir_cap)
        self.seed = int(seed)
        self.skipped = 0  # non-finite member outputs (e.g. no quench crossing)

    def add(self, x: float) -> None:
        if not math.isfinite(float(x)):
            self.skipped += 1
            return
        self.moments.add(x)
        for est in self.p2.values():
            est.add(x)
        self.reservoir.add(x)

    def summary(self, n_boot: int = 400) -> dict:
        ci_lo, ci_hi = bootstrap_ci(
            self.reservoir.values, n_boot=n_boot, seed=self.seed
        )
        quantiles = {}
        for p in self.QUANTILES:
            # exact from the reservoir while it covers the sample;
            # P² streaming estimate once members outnumber the cap
            exact_ok = self.reservoir.dropped == 0
            quantiles[f"q{int(p * 100):02d}"] = (
                self.reservoir.quantile(p) if exact_ok else self.p2[p].value
            )
        return {
            "name": self.name,
            "count": self.moments.count,
            "skipped": self.skipped,
            "mean": self.moments.mean,
            "std": self.moments.std,
            "variance": self.moments.variance,
            "ci95_mean": [ci_lo, ci_hi],
            **quantiles,
        }


def oat_sensitivity(
    inputs: list[dict],
    outputs: list[float],
    bins: int = 4,
) -> dict[str, float]:
    """First-order one-at-a-time sensitivity indices.

    For each input dimension the members are split into ``bins``
    equal-count bins by that input; the index is the variance of the
    per-bin conditional output means over the total output variance — a
    binned estimate of the Sobol first-order index ``Var(E[Y|X_i]) /
    Var(Y)``.  Dimensions with (near-)zero input spread report 0.
    """
    if len(inputs) != len(outputs):
        raise ValueError(
            f"inputs/outputs length mismatch: {len(inputs)} vs {len(outputs)}"
        )
    y = np.asarray(outputs, dtype=float)
    keep = np.isfinite(y)
    y = y[keep]
    if y.size < 2 * bins or float(np.var(y)) == 0.0:
        return {}
    var_y = float(np.var(y))
    kept_inputs = [d for d, k in zip(inputs, keep) if k]
    out = {}
    for name in sorted(kept_inputs[0]):
        x = np.asarray([d[name] for d in kept_inputs], dtype=float)
        if float(np.ptp(x)) == 0.0:
            out[name] = 0.0
            continue
        order = np.argsort(x, kind="stable")
        splits = np.array_split(order, bins)
        means = [float(np.mean(y[s])) for s in splits if s.size]
        counts = np.asarray([s.size for s in splits if s.size], dtype=float)
        mu = float(np.sum(counts * means) / np.sum(counts))
        between = float(
            np.sum(counts * (np.asarray(means) - mu) ** 2) / np.sum(counts)
        )
        out[name] = between / var_y
    return out
