"""Exchange functions on the constraint surface p^m = q^(c+2).

F(m, x) is the scalar factor exchanged between the trace generator and the
algebra generators; Y(x) is the factor closing the quadratic algebra of the
trace generators themselves.  Both are finite products of theta quotients
in the base q^4, so they are defined for any nonzero p (p enters only
through theta *arguments*), and nothing here checks |p| < 1: NomeParams
accepts any p != 0, and only the functions that use p as a product base
(R+, mu, kappa) raise NonConvergentBase for |p| >= 1.  This matters at the
commuting points p = q^(2k) with k < 0, where |p| > 1.

Closed forms implemented (th = theta_{q^4}), held as the tables _F_POS,
_F_NEG and _Y of one step's factors, which one loop multiplies out:

    m > 0:  F(m,x) = prod_{s=1..2m}  q^-1 th(x^2 q^2 p^-s) th(x^-2 q^2 p^s)
                                     / [ th(x^-2 p^s) th(x^2 p^-s) ]
    m < 0:  F(m,x) = prod_{s=0..2|m|-1}  q th(x^2 p^s) th(x^-2 p^-s)
                                     / [ th(x^2 q^2 p^s) th(x^-2 q^2 p^-s) ]

    Y(x) = [ prod_{s=1..S} x^2 th(x^-2 p^s) th(x^2 q^2 p^s)
                           / ( th(x^2 p^s) th(x^-2 q^2 p^s) ) ]^2,
    S = 2m - 1 for m > 0 and S = 2|m| for m < 0.

The levels of F (of one sign of m) and of Y at one point run over the same
steps.  Inside a ``qseries.point_scope()`` the base q^4 keeps each table's
running product at one q, p and x, so a lower level reads its step and a
higher one carries on from the last step formed.  No point shares a step
with another, and outside a scope no level shares one with another.

Cross paths kept for verification share no table: F as the iterated product
of the four-tau nome-shift factor, F(m,x) = F(|m|, x^-1 p^(1/2))^-1 for
m < 0, Y(x) = F(m, q^c x) / F(m, -p^(1/2) x) with q^c = p^m / q^2 in exact
integer-power form, and commuting_F, exchange_F's oracle at p = q^(2k), which
on the tables would check them against themselves.
"""

from __future__ import annotations

import cmath
import struct
from dataclasses import dataclass
from typing import Callable

from .elliptic import NomeParams
from .errors import DomainError
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _as_complex,
    _base,
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

    Only m and the nome are stored.  ``c`` is computed on each access by
    principal logarithms, and ``q_pow_c`` takes q^c in the exact form
    p^m / q^2, so downstream products never take a logarithm.
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
        try:
            p = qv ** (2 * self.k)
        except (OverflowError, ZeroDivisionError):  # complex ** n on overflow, 0 ** -n
            raise DomainError(
                f"p = q^(2k) is out of floating-point range at k = {self.k}, q = {qv!r}"
            ) from None
        return NomeParams(p, qv)


# Step s's theta_{q^4} factors, numerator then denominator: (e, k, f) is th(x^(2e) q^(2k) p^(f s))
_F_POS = (((1, 1, -1), (-1, 1, 1)), ((-1, 0, 1), (1, 0, -1)))  # s = 1..2m
_F_NEG = (((1, 0, 1), (-1, 0, -1)), ((1, 1, 1), (-1, 1, -1)))  # s = 0..2|m|-1
_Y = (((-1, 0, 1), (1, 1, 1)), ((1, 0, 1), (-1, 1, 1)))  # s = 1..S
# each table's factors in that order, compiled once: the index of the head
# x^(2e) q^(2k) in (x^2, x^-2, x^2 q^2, x^-2 q^2) and whether p^s multiplies it
_HEADS = {table: tuple((2 * k + (e < 0), f > 0) for side in table for e, k, f in side)
          for table in (_F_POS, _F_NEG, _Y)}
# a run's key beside its table: the exact bits of q, p and x
_RUN_BITS = struct.Struct("6d").pack


class _Run:
    """One table's steps formed so far at one q, p and x: each factor's head
    x^(+-2) q^(0 or 2) and whether p^s multiplies or divides it, p^s at the
    last step formed, the running product after each step, and the first s
    whose quotient is exactly 0 (None before one)."""

    __slots__ = ("heads", "ps", "products", "zero")

    def __init__(self, heads: list) -> None:
        self.heads = heads
        self.ps = 1.0 + 0j
        self.products: list[complex] = []
        self.zero: int | None = None


def _closed_form(
    table: tuple, first: int, last: int, step: Callable, nome: NomeParams, x: complex,
    policy: TruncationPolicy,
) -> tuple[complex, bool]:
    """The product from 1 of step(quot, q, x^2) over s = first..last, quot the
    quotient of ``table`` at s on the arguments head * p^s or head / p^s (heads
    x^(+-2) q^(0 or 2) and the base q^4 formed once), and whether one of those
    quotients is exactly 0; a p^s that underflows to 0 raises DomainError
    naming it before that step's arguments are formed.

    The base q^4 keeps each table's run under the exact bits of q, p and x;
    a table is always multiplied out from one first step by one step
    function, so its run serves every level.  A level whose steps are formed
    reads its running product; a higher one carries on from the last step
    formed.  Every step goes
    through ``_theta_quotient`` in the order a fresh evaluation takes, so the
    value, error and message are that evaluation's.  Inside a point scope the
    levels at one point share their steps; nothing is shared across points,
    and outside a scope the base and its runs live for one call."""
    xv = _nonzero(x, "x")
    p, q = nome.p, nome.q
    x2 = _square(xv, "x^2")
    q4 = _base(q**4, policy, "q^4")
    key = (table, _RUN_BITS(q.real, q.imag, p.real, p.imag, xv.real, xv.imag))
    run = q4.runs.get(key)
    if run is None:
        q2 = q * q
        ix2 = 1.0 / x2
        heads = (x2, ix2, x2 * q2, ix2 * q2)
        run = q4.runs[key] = _Run([(heads[i], up) for i, up in _HEADS[table]])
    products = run.products
    formed = len(products)
    if first + formed <= last:
        (a, a_up), (b, b_up), (c, c_up), (d, d_up) = run.heads
        ps = run.ps
        result = products[-1] if formed else 1.0 + 0j
        for s in range(first + formed, last + 1):
            if s:
                ps *= p
                if ps == 0:
                    raise DomainError(f"p^{s} underflows at p = {p!r}")
            nums = (a * ps if a_up else a / ps, b * ps if b_up else b / ps)
            dens = (c * ps if c_up else c / ps, d * ps if d_up else d / ps)
            quot = _theta_quotient(q4, nums, dens)
            if not quot and run.zero is None:
                run.zero = s
            result *= step(quot, q, x2)
            products.append(result)
            run.ps = ps
    return products[last - first], run.zero is not None and run.zero <= last


def _finite(value: complex, zero: bool, name: str, level: LevelParams, x: complex) -> complex:
    """value, or DomainError when a running product overflowed although
    every step was finite, or underflowed to 0 although no step's quotient
    was 0 (``zero`` is false)."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} is not finite at x = {complex(x)!r}, m = {level.m}")
    if not (value or zero):
        raise DomainError(f"{name} underflows to 0 at x = {complex(x)!r}, m = {level.m}")
    return value


def shift_factor_F(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The literal four-tau nome-shift factor

        F(x) = tau(x q^(1/2)) tau(x^-1 q^(1/2))
               tau(x q^(1/2) p^(1/2)) tau(x^-1 q^(1/2) p^(-1/2)).

    Principal square roots; their branch choices cancel in the product.
    The branch-free form of the same quantity is exchange_F(1, x p).
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
    """Closed theta-product form of F(m, x); a value out of floating-point
    range raises DomainError."""
    m, nome = level.m, level.nome
    if m > 0:
        value, zero = _closed_form(_F_POS, 1, 2 * m, lambda quot, q, x2: quot / q, nome, x,
                                   policy)
    else:
        value, zero = _closed_form(_F_NEG, 0, -2 * m - 1, lambda quot, q, x2: q * quot, nome,
                                   x, policy)
    return _finite(value, zero, "F", level, x)


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
    """Closed form of the quadratic exchange function Y(x); a value out of
    floating-point range raises DomainError."""
    upper = 2 * level.m - 1 if level.m > 0 else 2 * abs(level.m)
    inner, zero = _closed_form(_Y, 1, upper, lambda quot, q, x2: x2 * quot, level.nome, x,
                               policy)
    return _finite(inner * inner, zero, "Y", level, x)


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
    A value out of floating-point range raises DomainError.  Inside a point
    scope the base q^4 keeps both thetas, so the levels at one point form
    them once.
    """
    m = _nonzero_int(m, "m")
    qv = _in_disk(q, "q")
    xv = _nonzero(x, "x")
    if cp.k % 2:
        return 1.0 + 0j
    x2 = _square(xv, "x^2")
    ratio = _theta_quotient(_base(qv**4, policy, "q^4"), (x2 * qv * qv,), (x2,))
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
