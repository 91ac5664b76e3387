"""Distribution analysis for per-capita debt and the debt-to-GDP ratio.

Covers histogram probability densities, maximum-likelihood fits of the
two-parameter Gamma density p(x) ~ x**(k-1) * exp(-x/r_c), Zipf
rank-frequency exponents, and the duality between the Zipf exponent zeta
and the pdf tail exponent 1 + 1/zeta.

scipy is used only for ``gammaincc`` in ``GammaFit.tail_probability``,
which the ``threshold`` subcommand calls. It is imported on that first
call, so ``import debtkit`` and the other subcommands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSample,
    EmptySample,
    NoConvergence,
    NonFiniteValue,
    NonPositiveInWindow,
    NonPositiveSample,
    TooFewPoints,
    WindowTooSmall,
)
from .panel import _WRITE_ROWS, write_table
from .regress import ols

EULER_GAMMA = 0.5772156649015329

_NEWTON_RTOL = 1e-10
_NEWTON_MAX_ITER = 100


@dataclass(eq=False)
class HistogramPdf:
    """Normalized histogram density: integral density*width == 1."""

    edges: np.ndarray
    density: np.ndarray
    n: int

    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


@dataclass(frozen=True)
class GammaFit:
    """MLE of the Gamma shape k and scale r_c; k*r_c equals the sample mean."""

    k: float
    r_c: float
    log_likelihood: float
    n: int

    def tail_probability(self, threshold: float) -> float:
        """P(X > threshold) under the fitted Gamma (regularized upper tail).

        A threshold <= 0 gives 1.0 and +inf gives 0.0; NaN is rejected.
        """
        if math.isnan(threshold):
            raise NonFiniteValue("threshold must not be NaN")
        if threshold <= 0:
            return 1.0
        # local: scipy.special is most of start-up, and only threshold needs it
        from scipy.special import gammaincc
        return float(gammaincc(self.k, threshold / self.r_c))


@dataclass(frozen=True)
class ZipfFit:
    """Rank-frequency power-law fit value(rank) ~ rank**(-zeta).

    implied_pdf_exponent = 1 + 1/zeta is the corresponding density tail
    exponent.
    """

    zeta: float
    rank_window: tuple[int, int]
    r_squared: float
    implied_pdf_exponent: float


def histogram_pdf(samples: Sequence[float],
                  bins: "int | Sequence[float]" = 50) -> HistogramPdf:
    """Histogram density of nonnegative samples, normalized to integrate to 1.

    Integer ``bins`` means that many equal-width bins over [0, max(samples)];
    an explicit ascending edge array overrides. Samples outside explicit
    edges are not counted (n reflects the counted samples).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise EmptySample("histogram needs at least one sample")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("samples must be finite")
    if np.any(arr < 0):
        raise ValueError("samples must be >= 0")
    if np.isscalar(bins) or isinstance(bins, (int, np.integer)):
        n_bins = int(bins)
        if n_bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins!r}")
        top = float(arr.max())
        if top == 0.0:
            top = 1.0  # all-zero sample: one unit-width bin carries all mass
        edges = np.linspace(0.0, top, n_bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit edges must be ascending with >= 2 entries")
    counts, edges = np.histogram(arr, bins=edges)
    n = int(counts.sum())
    if n == 0:
        raise EmptySample("no sample falls inside the given edges")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = counts / n / np.diff(edges)
    if not np.isfinite(density).all():  # bins a few subnormals wide, or none
        raise DegenerateSample("histogram density is not finite: the bins are "
                               "too narrow for the sample's range")
    return HistogramPdf(edges=edges, density=density, n=n)


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0.

    Shifts the argument with psi(x+1) = psi(x) + 1/x until x > 6, then uses
    the asymptotic series truncated after the x**-14 term, which keeps the
    absolute error below 1e-12 on that range.
    """
    if not x > 0:
        raise ValueError(f"digamma defined here for x > 0 only, got {x!r}")
    acc = 0.0
    while x <= 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    t = inv * inv
    series = t * (1.0 / 12.0 - t * (1.0 / 120.0 - t * (1.0 / 252.0 - t * (
        1.0 / 240.0 - t * (1.0 / 132.0 - t * (691.0 / 32760.0 - t / 12.0))))))
    return acc + math.log(x) - 0.5 * inv - series


def trigamma(x: float) -> float:
    """Trigamma psi'(x) for x > 0, by the same shift-then-series scheme."""
    if not x > 0:
        raise ValueError(f"trigamma defined here for x > 0 only, got {x!r}")
    acc = 0.0
    while x <= 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    t = inv * inv
    series = inv * (1.0 + 0.5 * inv + t * (1.0 / 6.0 - t * (1.0 / 30.0 - t * (
        1.0 / 42.0 - t * (1.0 / 30.0 - t * (5.0 / 66.0 - t * (
            691.0 / 2730.0 - t * (7.0 / 6.0))))))))
    return acc + series


def _gamma_log_likelihood(k: float, r_c: float, total: float,
                          total_log: float, n: int) -> float:
    return ((k - 1.0) * total_log - total / r_c
            - n * math.lgamma(k) - n * k * math.log(r_c))


def fit_gamma_mle(samples: Sequence[float]) -> GammaFit:
    """Maximum-likelihood Gamma fit via Newton-Raphson on the shape k.

    Solves log(k) - psi(k) = log(mean) - mean(log samples) starting from the
    moment estimate k0 = mean**2/variance (of samples / mean if those leave
    the float range), then sets r_c = mean/k. Converged when
    |delta k| < 1e-10 * k within 100 iterations.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise EmptySample("gamma fit needs samples")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise NonPositiveSample("all samples must be finite and > 0")
    n = int(arr.size)
    if n < 2:
        raise DegenerateSample("gamma fit needs at least two samples")
    with np.errstate(over="ignore"):  # an overflow leaves no finite start
        mean = float(arr.mean())
        variance = float(arr.var())
    log_arr = np.log(arr)
    mean_log = float(log_arr.mean())
    s = math.log(mean) - mean_log  # > 0 by Jensen unless the sample is constant
    k = mean * mean / variance if variance > 0.0 else math.nan
    if s > 0.0 and not 0.0 < k < math.inf and math.isfinite(mean):
        scaled = arr / mean  # moments left the float range; same shape k
        variance = float(scaled.var())
        k = float(scaled.mean()) ** 2 / variance if variance > 0.0 else math.nan
    if variance == 0.0 or s <= 0.0:
        raise DegenerateSample("zero-variance sample drives the shape to infinity")
    if not 0.0 < k < math.inf:
        raise NoConvergence(f"gamma shape start mean**2/variance = {k!r} is "
                            f"not finite and > 0")
    for _ in range(_NEWTON_MAX_ITER):
        f = math.log(k) - digamma(k) - s
        f_prime = 1.0 / k - trigamma(k)
        k_next = k - f / f_prime
        if k_next <= 0:
            k_next = k / 2.0  # safeguard: the root is positive
        if abs(k_next - k) < _NEWTON_RTOL * k:
            k = k_next
            break
        k = k_next
    else:
        raise NoConvergence("gamma shape Newton iteration did not converge",
                            last_iterate=k)
    r_c = mean / k
    log_likelihood = _gamma_log_likelihood(k, r_c, float(arr.sum()),
                                           float(log_arr.sum()), n)
    return GammaFit(k=k, r_c=r_c, log_likelihood=log_likelihood, n=n)


def zipf_ranks(samples: Sequence[float]) -> np.ndarray:
    """The samples sorted descending: the value at index i has rank i + 1.

    Ties keep their input order (stable sort). NaN has no place in a
    descending order, so the samples must be finite.
    """
    return _rank_tables(samples)[0].ranked


class _RankTable:
    """Values in rank order, which np.asarray gives, and the rows of their
    rank table, formatted with those of the other tables of one sample."""

    def __init__(self, ranked: np.ndarray, i: int, sample: tuple):
        # sample: the whole sample ranked, each table's rows in that order
        # (None for all), and the rows' text of tables formatted, not written
        self.ranked, self._i, self._sample = ranked, i, sample

    def __array__(self, dtype=None, copy=None):
        return np.array(self.ranked, dtype) if copy else np.asarray(
            self.ranked, dtype)

    def _write_rows(self, f) -> None:
        """Write the rows to f; unless they are held, format each value once
        for every table of the sample, holding the others' rows as text."""
        whole, picks, held = self._sample
        if self._i in held:
            f.writelines(held.pop(self._i))
            return
        held.update((j, []) for j in range(len(picks)) if j != self._i)
        done = [0] * len(picks)
        for start in range(0, len(whole), _WRITE_ROWS):
            block = list(map(repr, whole[start:start + _WRITE_ROWS].tolist()))
            for j, pick in enumerate(picks):
                values = block if pick is None else list(compress(
                    block, pick[start:start + _WRITE_ROWS].tolist()))
                rows = [None] * (2 * len(values))
                rows[::2] = range(done[j] + 1, done[j] + len(values) + 1)
                rows[1::2], done[j] = values, done[j] + len(values)
                text = "%d,%s\r\n" * len(values) % tuple(rows)
                (f.write if j == self._i else held[j].append)(text)


def _rank_tables(samples: Sequence[float], masks=()) -> "list[_RankTable]":
    """The rank table of the samples, then one per mask of the rows it picks.
    The samples are sorted once; a subset keeps that stable order, which is
    the order zipf_ranks gives the subset alone."""
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"samples must be 1-d, got shape {values.shape}")
    if values.size == 0:
        raise EmptySample("rank plot needs at least one sample")
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("samples must be finite")
    order = np.argsort(-values, kind="stable")
    ranked = values[order]
    picks = [None, *(np.asarray(mask, bool)[order] for mask in masks)]
    sample = (ranked, picks, {})
    return [_RankTable(ranked if pick is None else ranked[pick], i, sample)
            for i, pick in enumerate(picks)]


def fit_zipf_exponent(ranked: Sequence[float],
                      rank_window: "tuple[int, int] | None" = None) -> ZipfFit:
    """OLS of log value on log rank over ranks [r_lo, r_hi]; zeta = -slope.

    ranked holds values in rank order, as zipf_ranks returns them: the value
    at index i has rank i + 1. The default window is every rank, and the
    values in the window must be finite and > 0.
    """
    ranked = np.asarray(ranked, dtype=float)
    if ranked.ndim != 1:
        raise ValueError(f"ranked must be 1-d, the values in rank order "
                         f"(rank i + 1 at index i); got shape {ranked.shape}")
    if ranked.size == 0:
        raise EmptySample("no ranked values")
    if rank_window is None:
        rank_window = (1, ranked.size)
    r_lo, r_hi = int(rank_window[0]), int(rank_window[1])
    if r_lo < 1 or r_hi < r_lo:
        raise ValueError(f"bad rank window ({r_lo}, {r_hi})")
    window = ranked[r_lo - 1:r_hi]
    if window.size < 3:
        raise WindowTooSmall(
            f"window [{r_lo}, {r_hi}] holds {window.size} ranks; need >= 3")
    if np.any(window <= 0):
        raise NonPositiveInWindow(
            f"window [{r_lo}, {r_hi}] contains values <= 0")
    if not np.all(np.isfinite(window)):
        raise NonFiniteValue(
            f"window [{r_lo}, {r_hi}] contains values that are not finite")
    fit = ols(np.log(np.arange(r_lo, r_lo + window.size)), np.log(window))
    zeta = -fit.slope
    if zeta <= 0:
        raise DegenerateSample(
            "values do not decay across the rank window; zeta would be <= 0")
    return ZipfFit(zeta=zeta, rank_window=(r_lo, r_hi),
                   r_squared=fit.r_squared,
                   implied_pdf_exponent=1.0 + 1.0 / zeta)


def summary_stats(samples: Sequence[float]) -> tuple[float, float, int]:
    """Arithmetic mean, population standard deviation, and count."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise TooFewPoints(f"need at least 2 samples, got {arr.size}")
    return float(arr.mean()), float(arr.std()), int(arr.size)


def write_histogram_csv(hist: HistogramPdf, path,
                        header_comment: "str | None" = None) -> None:
    write_table(path, ["bin_left", "bin_right", "density"],
                [hist.edges[:-1], hist.edges[1:], hist.density], header_comment)


def write_ranks_csv(ranked: np.ndarray, path,
                    header_comment: "str | None" = None) -> None:
    """Write (rank, value) rows of values in rank order or a _RankTable."""
    if isinstance(ranked, _RankTable):  # the header as write_table writes it
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write((f"# {header_comment}\n" if header_comment else "")
                    + "rank,value\r\n")
            return ranked._write_rows(f)
    write_table(path, ["rank", "value"],
                [np.arange(1, len(ranked) + 1), ranked], header_comment)
