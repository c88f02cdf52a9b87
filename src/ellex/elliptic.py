"""Jacobi-elliptic parametrization: complete elliptic integrals by AGM,
the hyperbolic Jacobi quotient snh(u) = -i sn(iu), and the map from
(modulus, lambda, u) to the multiplicative parameters (p, q, x).

snh is evaluated through theta quotients in the nome, which keeps a single
code path for all elliptic objects and extends entrywise evaluation of the
eight-vertex matrix to arbitrary complex multiplicative arguments:

    snh(u) = k^(-1/2) p^(1/4) * T(y),   y = exp(pi u / 2K),
    T(y)   = y * theta_{p^2}(y^-2) / theta_{p^2}(p y^-2)

with p = exp(-pi K'/K) the nome of the modulus k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, NearSingularity
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _in_disk,
    _near_zero,
    _nonzero,
    _product,
    _square,
    _theta_pair,
    qpochhammer,
)

__all__ = [
    "EllipticParams",
    "NomeParams",
    "complete_K",
    "jacobi_snh",
    "snh_core",
    "param_map",
    "baxter_entries",
    "modulus_from_nome",
]

# snh_core's pole guard (a relative distance to a zero of its denominator
# theta) and baxter_entries' absolute floor on |snh(lambda)|
_POLE_TOL = 1e-10


def _quarter_period(b: float) -> float:
    """pi / (2 AGM(1, b)): K(k) for b = sqrt(1 - k^2), and K'(k) = K(k') for
    b = k, which needs no sqrt(1 - k^2) and so loses nothing to cancellation.

    The AGM stops once its iterates are within one unit in the last place
    of each other (relative 2^-52), or after 64 steps.
    """
    a = 1.0
    for _ in range(64):
        if abs(a - b) <= 2.0**-52 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def complete_K(modulus: float) -> float:
    """Complete elliptic integral K(k) by arithmetic-geometric mean iteration.

    Requires 0 < modulus < 1.
    """
    k = float(modulus)
    if not (0.0 < k < 1.0) or not math.isfinite(k):
        raise DomainError(f"modulus must lie in (0, 1), got {modulus!r}")
    return _quarter_period(math.sqrt(1.0 - k * k))


@dataclass(frozen=True)
class EllipticParams:
    """Elliptic modulus k in (0,1), spectral shift lambda > 0, argument u."""

    modulus: float
    lam: float
    u: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.modulus < 1.0):
            raise DomainError(f"modulus must lie in (0, 1), got {self.modulus!r}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be positive, got {self.lam!r}")
        if not math.isfinite(self.u):
            raise DomainError(f"u must be finite, got {self.u!r}")

    @cached_property
    def K(self) -> float:
        return complete_K(self.modulus)

    @cached_property
    def K_prime(self) -> float:
        return _quarter_period(self.modulus)

    @cached_property
    def nome(self) -> float:
        return math.exp(-math.pi * self.K_prime / self.K)


@dataclass(frozen=True)
class NomeParams:
    """The base pair (p, q) of the multiplicative parametrization.

    0 < |q| < 1 and p != 0.  |p| may be 1 or more: the exchange functions
    use p only inside theta arguments, and every function that uses p as a
    product base (``r_plus``, ``kappa_inv``, ``mu_inv``, ``snh_core``,
    ``modulus_from_nome``) checks |p| < 1 itself and raises NonConvergentBase.
    """

    p: complex
    q: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _nonzero(self.p, "p"))
        object.__setattr__(self, "q", _in_disk(self.q, "q"))


def snh_core(
    y: complex, p: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """T(y) = y * theta_{p^2}(y^-2) / theta_{p^2}(p y^-2).

    The modulus-dependent prefactor k^(-1/2) p^(1/4) is left out; it cancels
    in the entry ratios a, b and contributes only p^(1/2) to the entry d.
    Both thetas share one (p^2; p^2)_inf, and each step runs in the order
    two ``theta`` calls would take it, so value and error are theirs; each
    argument and the base is checked once.
    """
    yv = _nonzero(y, "y")
    av = _in_disk(p * p, "p^2")
    y2 = _square(yv, "y^2")
    den_arg = _nonzero(p / y2, "theta argument")
    if _near_zero(av, den_arg, _POLE_TOL):
        raise NearSingularity(f"snh pole near multiplicative argument {yv!r}")
    num = _theta_pair(av, _nonzero(1.0 / y2, "theta argument"), policy)
    aa = _product(av, av, policy)
    den = _theta_pair(av, den_arg, policy)
    return yv * (num * aa) / (den * aa)


def jacobi_snh(
    u: float, modulus: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """snh(u) = -i sn(iu) for real u, via the theta-quotient form; odd in u."""
    if not math.isfinite(u):
        raise DomainError(f"u must be finite, got {u!r}")
    if u == 0.0:
        return 0.0
    K = complete_K(modulus)
    Kp = _quarter_period(modulus)
    p = math.exp(-math.pi * Kp / K)
    y = math.exp(math.pi * u / (2.0 * K))
    val = (p**0.25 / math.sqrt(modulus)) * snh_core(y, p, policy)
    return float(val.real)


def param_map(ep: EllipticParams) -> tuple[NomeParams, complex]:
    """(modulus, lambda, u) -> ((p, q), x):

    p = exp(-pi K'/K), q = -exp(-pi lambda / 2K), x = exp(pi u / 2K).
    Note q comes out negative real in this parametrization.
    """
    p = ep.nome
    q = -math.exp(-math.pi * ep.lam / (2.0 * ep.K))
    x = math.exp(math.pi * ep.u / (2.0 * ep.K))
    return NomeParams(complex(p), complex(q)), complex(x)


def baxter_entries(
    ep: EllipticParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[complex, complex, complex, complex]:
    """Bare eight-vertex entries at the point u:

        a = snh(lam - u)/snh(lam),  b = snh(u)/snh(lam),
        c = 1,                      d = k snh(lam - u) snh(u).
    """
    sn_lam = jacobi_snh(ep.lam, ep.modulus, policy)
    if abs(sn_lam) < _POLE_TOL:
        raise NearSingularity(f"snh(lambda) = {sn_lam:.3e} below tolerance")
    sn_lmu = jacobi_snh(ep.lam - ep.u, ep.modulus, policy)
    sn_u = jacobi_snh(ep.u, ep.modulus, policy)
    a = sn_lmu / sn_lam
    b = sn_u / sn_lam
    d = ep.modulus * sn_lmu * sn_u
    return complex(a), complex(b), complex(1.0), complex(d)


def modulus_from_nome(
    p: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Elliptic modulus from the nome via theta constants:

        k(p) = 4 p^(1/2) [ (-p^2; p^2)_inf / (-p; p^2)_inf ]^4
    """
    pv = _in_disk(p, "p")
    p2 = pv * pv
    ratio = qpochhammer(-p2, p2, policy) / qpochhammer(-pv, p2, policy)
    return 4.0 * cmath.sqrt(pv) * ratio**4
