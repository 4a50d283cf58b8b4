"""Poisson kernel, its resolvents, and the parameters that admit them.

All four kernels are 1-periodic difference kernels on the line, evaluated
in closed form (h) or as truncated cosine series (H, l, L).  With u = x - xi
and coefficients a_n:

    h(u) = 1 + 2 sum r^n cos(2 n pi u)            (summed in closed Poisson form)
    H(u) = 1/(1-2L) + 2 sum r^n/(1-2L r^n) cos(2 n pi u)
    l(u) = 1/(1-2L) + 2 sum r^2n/(1-2L r^n) cos(2 n pi u)
    L(u) = 1/(1-2L-L^2) + 2 sum r^2n/(1-2L r^n - L^2 r^2n) cos(2 n pi u)

where L stands for lambda.  The series denominators degenerate when lambda
approaches 0, r^-n, r^-n/2 or (-1 +- sqrt(2)) r^-n, so ``PoissonParams``
refuses such a lambda when it is built.

Every series is summed in separable form, K = c0 + 2 (C diag(a) C'^T +
S diag(a) S'^T) with C, S the cosines and sines of 2 pi n x on the out-nodes
and C', S' those on the in-nodes: (n_out + n_in) N trigonometric values and
one GEMM per chunk of modes rather than n_out n_in N cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterExclusionError, require_finite
from .grid import _trig_table

__all__ = [
    "PoissonParams",
    "MIN_REL_DIST",
    "poisson_h",
    "kernel_matrix",
]

_SQRT2 = math.sqrt(2.0)

# relative distance (absolute for the value 0) that lambda keeps from every
# excluded value
MIN_REL_DIST = 1e-3

# cap keeps n_trunc finite as r -> 1; evaluation cost stays manageable
_MAX_TRUNC = 200_000

# entries of one side's mode chunk, (n_out + n_in) * chunk <= _CHUNK: the
# cos/sin tables of a chunk stay near 2 * 8 * _CHUNK bytes
_CHUNK = 1 << 18


def _default_n_trunc(r: float, series_tol: float) -> int:
    # smallest N with 2 r^(N+1) / (1 - r) <= series_tol
    target = series_tol * (1.0 - r) / 2.0
    n = int(math.ceil(math.log(target) / math.log(r))) - 1
    return min(max(n, 1), _MAX_TRUNC)


@dataclass(frozen=True)
class PoissonParams:
    """Parameters r, lambda of the reformulation; Lambda is pinned to lambda^2.

    ``n_trunc`` truncates every cosine series so the geometric tail
    2 r^(n_trunc+1)/(1-r) stays below ``series_tol``.  lambda keeps
    MIN_REL_DIST from the excluded values, so every instance admits the
    resolvents H, l and L.
    """

    r: float
    lam: float
    Lambda: float
    n_trunc: int
    series_tol: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r must lie in (0, 1), got {self.r}")
        if self.Lambda != self.lam * self.lam:
            raise ConfigError("Lambda must equal lambda^2 exactly")
        if self.n_trunc < 1:
            raise ConfigError("n_trunc must be >= 1")
        tail = 2.0 * self.r ** (self.n_trunc + 1) / (1.0 - self.r)
        if tail > self.series_tol and self.n_trunc < _MAX_TRUNC:
            raise ConfigError(
                f"n_trunc={self.n_trunc} leaves series tail {tail:.3g} > {self.series_tol:.3g}"
            )
        _check_exclusion(self.lam, self.r, self.n_trunc)

    @classmethod
    def create(cls, r: float = 0.5, lam: float = 0.2, series_tol: float = 1e-12,
               n_trunc: int | None = None) -> "PoissonParams":
        require_finite(r=r)
        if not 0.0 < r < 1.0:
            raise ConfigError(f"r must lie in (0, 1), got {r}")
        if n_trunc is None:
            n_trunc = _default_n_trunc(r, series_tol)
        return cls(r=float(r), lam=float(lam), Lambda=float(lam) * float(lam),
                   n_trunc=int(n_trunc), series_tol=float(series_tol))


# family name -> base value at n = 0; members are base * r^(-n)
_FAMILIES = (
    ("r^-n", 1.0),
    ("(1/2) r^-n", 0.5),
    ("(-1+sqrt2) r^-n", -1.0 + _SQRT2),
    ("(-1-sqrt2) r^-n", -1.0 - _SQRT2),
)


def _check_exclusion(lam: float, r: float, n_trunc: int) -> None:
    """Raise ParameterExclusionError when lambda comes within MIN_REL_DIST of
    0 or of a member n = 0..n_trunc of {r^-n, r^-n/2, (-1+-sqrt2) r^-n}.

    The distance is relative, absolute for the value 0.
    """
    if abs(lam) < MIN_REL_DIST:
        raise ParameterExclusionError(lam, "zero", 0, 0.0, abs(lam))
    for family, base in _FAMILIES:
        # |base| r^-n grows with n; stop once the family is permanently clear
        for n in range(n_trunc + 1):
            value = base / r ** n
            if n > 0 and abs(value) > abs(lam) and 1.0 - abs(lam) / abs(value) >= MIN_REL_DIST:
                break
            rel = abs(lam - value) / abs(value)
            if rel < MIN_REL_DIST:
                raise ParameterExclusionError(lam, family, n, value, rel)


def poisson_h(x, xi, p: PoissonParams):
    """Closed-form Poisson kernel (1-r^2) / (1 - 2 r cos(2 pi (x-xi)) + r^2)."""
    u = np.asarray(x, dtype=float) - np.asarray(xi, dtype=float)
    return (1.0 - p.r ** 2) / (1.0 - 2.0 * p.r * np.cos(2.0 * np.pi * u) + p.r ** 2)


def _cosine_series(c0, coeffs, out_nodes, in_nodes):
    """c0 + 2 sum_n a_n cos(2 pi n (x - xi)) for x in out_nodes, xi in in_nodes.

    Factored through cos(a - b) = cos a cos b + sin a sin b: each chunk of
    modes costs (n_out + n_in) * chunk cosines and sines and one GEMM
    [C S]_out diag(2a, 2a) [C S]_in^T, in place of n_out * n_in * chunk
    cosines.  Chunks keep the tables within ``_CHUNK`` entries however long
    the series is.  Returns the (n_out, n_in) matrix, symmetrized when the
    node sets are equal so that it is exactly symmetric like the kernel.
    """
    xo = np.asarray(out_nodes, dtype=float).ravel()
    xi = np.asarray(in_nodes, dtype=float).ravel()
    same = np.array_equal(xo, xi)
    out = np.full((xo.size, xi.size), float(c0))
    n = np.arange(1, coeffs.size + 1)
    step = max(1, _CHUNK // max(xo.size + xi.size, 1))
    for s in range(0, coeffs.size, step):
        a = 2.0 * coeffs[s:s + step]
        t_out = _trig_table(xo, n[s:s + step])
        t_in = t_out if same else _trig_table(xi, n[s:s + step])
        scaled = t_out * np.concatenate((a, a))
        out += scaled @ t_in.T
    if same:
        out = 0.5 * (out + out.T)
    return out


def _H_coeffs(p):
    n = np.arange(1, p.n_trunc + 1)
    rn = p.r ** n
    return 1.0 / (1.0 - 2.0 * p.lam), rn / (1.0 - 2.0 * p.lam * rn)


def _l_coeffs(p):
    n = np.arange(1, p.n_trunc + 1)
    rn = p.r ** n
    return 1.0 / (1.0 - 2.0 * p.lam), rn ** 2 / (1.0 - 2.0 * p.lam * rn)


def _L_coeffs(p):
    n = np.arange(1, p.n_trunc + 1)
    rn = p.r ** n
    return (1.0 / (1.0 - 2.0 * p.lam - p.Lambda),
            rn ** 2 / (1.0 - 2.0 * p.lam * rn - p.Lambda * rn ** 2))


_KINDS = {"H": _H_coeffs, "l": _l_coeffs, "L": _L_coeffs}


def kernel_matrix(kind: str, p: PoissonParams, out_nodes, in_nodes) -> np.ndarray:
    """Dense cross matrix kind(out_i, in_j) for kind in {'h', 'H', 'l', 'L'}."""
    if kind == "h":
        return poisson_h(np.asarray(out_nodes, float)[:, None],
                         np.asarray(in_nodes, float)[None, :], p)
    if kind not in _KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    return _cosine_series(*_KINDS[kind](p), out_nodes, in_nodes)
