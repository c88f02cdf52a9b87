"""Exchange functions on the constraint surface p^m = q^(c+2).

F(m, x) is the scalar factor exchanged between the trace generator and the
algebra generators; Y(x) is the factor closing the quadratic algebra of the
trace generators themselves.  Both are finite products of theta quotients
in the base q^4, so they are defined for any nonzero p (p enters only
through theta *arguments*), and nothing here checks |p| < 1: NomeParams
accepts any p != 0, and only the functions that use p as a product base
(R+, mu, kappa) raise NonConvergentBase for |p| >= 1.  This matters at the
commuting points p = q^(2k) with k < 0, where |p| > 1.

Closed forms implemented (th = theta_{q^4}):

    m > 0:  F(m,x) = prod_{s=1..2m}  q^-1 th(x^2 q^2 p^-s) th(x^-2 q^2 p^s)
                                     / [ th(x^-2 p^s) th(x^2 p^-s) ]
    m < 0:  F(m,x) = prod_{s=0..2|m|-1}  q th(x^2 p^s) th(x^-2 p^-s)
                                     / [ th(x^2 q^2 p^s) th(x^-2 q^2 p^-s) ]

    Y(x) = [ prod_{s=1..S} x^2 th(x^-2 p^s) th(x^2 q^2 p^s)
                           / ( th(x^2 p^s) th(x^-2 q^2 p^s) ) ]^2,
    S = 2m - 1 for m > 0 and S = 2|m| for m < 0.

Cross paths kept for verification: F as the iterated product of the
nome-shift factor, F(m,x) = F(|m|, x^-1 p^(1/2))^-1 for m < 0, and
Y(x) = F(m, q^c x) / F(m, -p^(1/2) x) with q^c = p^m / q^2 held in exact
integer-power form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .elliptic import NomeParams
from .errors import DomainError
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _as_complex,
    _in_disk,
    _nonzero,
    _nonzero_int,
    _square,
    _theta_quotient,
)
from .rmatrix import tau_fn

__all__ = [
    "LevelParams",
    "CommutingPoint",
    "shift_factor_F",
    "exchange_F",
    "exchange_F_iterated",
    "exchange_F_negative_by_reciprocity",
    "exchange_Y",
    "exchange_Y_ratio",
    "commuting_F",
    "check_p_periodicity",
]


@dataclass(frozen=True)
class LevelParams:
    """Nonzero integer level m with the charge c derived from q^(c+2) = p^m.

    c is computed once by principal logarithm and stored; q^c itself is kept
    in the exact form p^m / q^2 so downstream products never re-take logs.
    """

    m: int
    nome: NomeParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _nonzero_int(self.m, "m"))

    @property
    def c(self) -> complex:
        return self.m * cmath.log(self.nome.p) / cmath.log(self.nome.q) - 2.0

    @property
    def q_pow_c(self) -> complex:
        return self.nome.p**self.m / self.nome.q**2


@dataclass(frozen=True)
class CommutingPoint:
    """The special nome p = q^(2k) for nonzero integer k.

    For k odd the exchange function degenerates to 1; for k even it takes a
    k-independent closed form. Negative k puts |p| above 1, which is still a
    valid evaluation point for the theta-argument-only exchange functions.
    """

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _nonzero_int(self.k, "k"))

    @property
    def parity(self) -> str:
        return "odd" if self.k % 2 else "even"

    def exact_nome(self, q: complex) -> NomeParams:
        qv = _as_complex(q, "q")
        return NomeParams(qv ** (2 * self.k), qv)


def shift_factor_F(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The literal four-tau nome-shift factor

        F(x) = tau(x q^(1/2)) tau(x^-1 q^(1/2))
               tau(x q^(1/2) p^(1/2)) tau(x^-1 q^(1/2) p^(-1/2)).

    Principal square roots; their branch choices cancel in the product.
    The rmatrix module carries the collapsed branch-free form of the same
    quantity as an independent code path.
    """
    xv = _nonzero(x, "x")
    sq = cmath.sqrt(nome.q)
    sp = cmath.sqrt(nome.p)
    return (
        tau_fn(xv * sq, nome.q, policy)
        * tau_fn(sq / xv, nome.q, policy)
        * tau_fn(xv * sq * sp, nome.q, policy)
        * tau_fn(sq / (xv * sp), nome.q, policy)
    )


def exchange_F(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Closed theta-product form of F(m, x)."""
    xv = _nonzero(x, "x")
    p, q = level.nome.p, level.nome.q
    q4 = q**4
    q2 = q * q
    x2 = _square(xv, "x^2")
    ix2 = 1.0 / x2
    result = 1.0 + 0j
    if level.m > 0:
        ps = 1.0 + 0j
        for _ in range(1, 2 * level.m + 1):
            ps *= p  # p^s
            result *= _theta_quotient(
                q4,
                (x2 * q2 / ps, ix2 * q2 * ps),
                (ix2 * ps, x2 / ps),
                policy,
            ) / q
    else:
        ps = 1.0 + 0j
        for s in range(0, 2 * abs(level.m)):
            if s:
                ps *= p
            result *= q * _theta_quotient(
                q4,
                (x2 * ps, ix2 / ps),
                (x2 * q2 * ps, ix2 * q2 / ps),
                policy,
            )
    return result


def exchange_F_iterated(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """F(m, x) as the iterated product of the nome-shift factor:

        prod_{s=1..m} F(x p^-s)          for m > 0,
        prod_{s=0..|m|-1} F(x p^s)^-1    for m < 0.

    Independent of the closed form; used as a cross path in verification.
    """
    xv = _as_complex(x, "x")
    result = 1.0 + 0j
    if level.m > 0:
        for s in range(1, level.m + 1):
            result *= shift_factor_F(xv * level.nome.p ** (-s), level.nome, policy)
    else:
        for s in range(0, abs(level.m)):
            result /= shift_factor_F(xv * level.nome.p**s, level.nome, policy)
    return result


def exchange_F_negative_by_reciprocity(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """For m < 0: F(m, x) = F(|m|, x^-1 p^(1/2))^-1, a cross-check path."""
    if level.m >= 0:
        raise DomainError("reciprocity path applies to negative m only")
    mirror = LevelParams(-level.m, level.nome)
    arg = cmath.sqrt(level.nome.p) / _as_complex(x, "x")
    return 1.0 / exchange_F(mirror, arg, policy)


def exchange_Y(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Closed form of the quadratic exchange function Y(x)."""
    xv = _nonzero(x, "x")
    p, q = level.nome.p, level.nome.q
    q4 = q**4
    q2 = q * q
    x2 = _square(xv, "x^2")
    ix2 = 1.0 / x2
    upper = 2 * level.m - 1 if level.m > 0 else 2 * abs(level.m)
    inner = 1.0 + 0j
    ps = 1.0 + 0j
    for _ in range(1, upper + 1):
        ps *= p
        inner *= x2 * _theta_quotient(
            q4,
            (ix2 * ps, x2 * q2 * ps),
            (x2 * ps, ix2 * q2 * ps),
            policy,
        )
    return inner * inner


def exchange_Y_ratio(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Y(x) = F(m, q^c x) / F(m, -p^(1/2) x), the construction-path form.

    q^c is taken in the exact form p^m / q^2; F is even in its argument, so
    the branch of p^(1/2) is immaterial.
    """
    xv = _as_complex(x, "x")
    num = exchange_F(level, level.q_pow_c * xv, policy)
    den = exchange_F(level, -cmath.sqrt(level.nome.p) * xv, policy)
    return num / den


def commuting_F(
    m: int,
    cp: CommutingPoint,
    x: complex,
    q: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Reference value of F(m, x) at the exact point p = q^(2k):

        1                                                   for k odd,
        q^(-2m) x^(4m) [ th(x^2 q^2) / th(x^2) ]^(4m)       for k even,

    with th = theta_{q^4}. Serves as the oracle for exchange_F there.
    A value out of floating-point range raises DomainError.
    """
    m = _nonzero_int(m, "m")
    qv = _in_disk(q, "q")
    xv = _nonzero(x, "x")
    if cp.k % 2:
        return 1.0 + 0j
    x2 = _square(xv, "x^2")
    ratio = _theta_quotient(qv**4, (x2 * qv * qv,), (x2,), policy)
    try:
        value = qv ** (-2 * m) * xv ** (4 * m) * ratio ** (4 * m)
        if cmath.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):  # complex ** n on overflow, 0 ** -n
        pass
    raise DomainError(f"commuting_F is not finite at x = {xv!r}, m = {m}")


def check_p_periodicity(
    level: LevelParams, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """Invariance of F(m, x) under p -> p q^4: |F - F_shifted| / max(1, |F|).

    Raises NonConvergentBase when |p q^4| >= 1, outside the domain of the check.
    """
    xv = _as_complex(x, "x")
    q = level.nome.q
    shifted_p = _in_disk(level.nome.p * q**4, "p q^4")
    base = exchange_F(level, xv, policy)
    shifted = exchange_F(LevelParams(level.m, NomeParams(shifted_p, q)), xv, policy)
    return abs(base - shifted) / max(1.0, abs(base))
