"""Classical limits: the k-labeled Poisson structure function, the central
(c = -2) bracket via logarithmic derivatives of tau, the beta-ladder
``beta_limit_check`` connecting them to the quadratic exchange function
(p = q^(4k/(2 - beta)), any nonzero k), and mode-bracket structure
constants from annulus-resolved Laurent coefficients.

Structure function conventions (x stands for the ratio w/z throughout):

    g(x) = x^2/(1-x^2) - x^-2/(1-x^-2)
           + sum_{n>=0} [ -2 x^2 q^4n/(1 - x^2 q^4n)
                          + 2 x^2 q^(4n+2)/(1 - x^2 q^(4n+2))
                          + 2 x^-2 q^4n/(1 - x^-2 q^4n)
                          - 2 x^-2 q^(4n+2)/(1 - x^-2 q^(4n+2)) ]

    k-labeled bracket / (t t)   =  2 k m ln(q) g(x)            (k odd)
                                = -2 k m (2m-1) ln(q) g(x)     (k even)

    central bracket / (t t)     = -(ln q) [ x d/dx ln tau(q^(1/2) x)
                                            - (1/x) d/d(1/x) ln tau(q^(1/2)/x) ]

g(x) is odd under x -> 1/x and has simple poles on every circle |x| = |q|^j.
The central bracket equals 2 ln(q) g(x) identically in x.

Mode extraction: on the annulus |x| in (|q|^n, |q|^(n-1)) the raw Laurent
coefficients of the structure function are taken by trapezoidal quadrature
on the circle of geometric-mean radius (spectrally accurate there).  The
raw coefficients of a single annulus are *not* coefficient-antisymmetric:
functional antisymmetry g(1/x) = -g(x) relates annulus n to its mirror
1 - n, and the leftover l-symmetric part is the central piece that this
package deliberately leaves out (central extensions are out of scope).
The bracket structure constants stored in ``ModeBracketTable.coefficients``
are therefore the antisymmetric part (g_l - g_-l)/2 of the raw data, which
is exactly what an antisymmetric bracket on commuting mode symbols can see;
the raw coefficients are kept alongside for expansion and residue checks.

The circle is sampled once, at 2N nodes: np.fft.fft of the samples gives
the 2N-node rule, np.fft.fft of the even nodes the N-node rule, and the
two rules must agree to 1e-9.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import NomeParams
from .errors import (
    AnnulusContainsPole,
    DomainError,
    NearSingularity,
    QuadratureUnresolved,
    TruncationExceeded,
)
from .exchange import LevelParams, exchange_Y
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _ZERO_RTOL,
    _as_complex,
    _in_disk,
    _near_zero,
    _nonzero,
    _nonzero_int,
    _square,
    log_deriv_theta,
)

__all__ = [
    "AnnulusLabel",
    "ModeBracketTable",
    "poisson_series_g",
    "poisson_structure",
    "poisson_structure_center",
    "beta_limit_check",
    "laurent_modes",
    "format_mode_bracket",
]

_SUPPRESS_BELOW = 1e-12  # format_mode_bracket omits coefficients this small


def poisson_series_g(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The bracketed series g(x), with poles at x^2 = q^(2j).

    Stops after term n once t = q^(4(n+1)) makes |x^2 t| and |x^-2 t| below
    1/2 and 8 (|x|^2 + |x|^-2) |t| / (1 - |q|^4) < tail_tol, which bounds the
    absolute value of the dropped terms.
    """
    xv = _nonzero(x, "x")
    qv = _in_disk(q, "q")
    a = _square(xv, "x^2")
    b = 1.0 / a
    if _near_zero(qv * qv, a, _ZERO_RTOL):
        raise NearSingularity(f"x = {xv!r} is within {_ZERO_RTOL:g} of a pole x^2 = q^(2j)")
    q2 = qv * qv
    q4 = q2 * q2
    total = a / (1.0 - a) - b / (1.0 - b)
    t = 1.0 + 0j
    mag = abs(a) + abs(b)
    for _ in range(policy.max_terms):
        total += (
            -2.0 * a * t / (1.0 - a * t)
            + 2.0 * a * t * q2 / (1.0 - a * t * q2)
            + 2.0 * b * t / (1.0 - b * t)
            - 2.0 * b * t * q2 / (1.0 - b * t * q2)
        )
        t *= q4
        if (
            abs(a * t) < 0.5
            and abs(b * t) < 0.5
            and 8.0 * mag * abs(t) / (1.0 - abs(q4)) < policy.tail_tol
        ):
            return total
    raise TruncationExceeded(
        f"structure-function series did not meet tail {policy.tail_tol:g} "
        f"within {policy.max_terms} terms"
    )


def poisson_structure(
    m: int,
    k: int,
    x: complex,
    q: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Full k-labeled structure function: parity-dependent prefactor times g."""
    m, k = _nonzero_int(m, "m"), _nonzero_int(k, "k")
    qv = _in_disk(q, "q")
    lnq = cmath.log(qv)
    if k % 2:
        prefactor = 2.0 * k * m * lnq
    else:
        prefactor = -2.0 * k * m * (2 * m - 1) * lnq
    return prefactor * poisson_series_g(x, qv, policy)


def poisson_structure_center(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The bracket on the center, reduced to theta log-derivatives.

    With L(y) = y d/dy log theta_{q^4}(y),

        x d/dx ln tau(q^(1/2) x) = -1 + 2 L(q^2 x^2) + 2 L(x^-2),

    so the displayed antisymmetric combination becomes

        -2 ln(q) [ L(q^2 x^2) + L(x^-2) - L(q^2 x^-2) - L(x^2) ].
    """
    xv = _nonzero(x, "x")
    qv = _in_disk(q, "q")
    q4 = qv**4
    x2 = _square(xv, "x^2")
    q2 = qv * qv

    def L(y: complex) -> complex:
        return log_deriv_theta(q4, y, policy)

    return -2.0 * cmath.log(qv) * (L(q2 * x2) + L(1.0 / x2) - L(q2 / x2) - L(x2))


def beta_limit_check(
    m: int,
    k: int,
    q: complex,
    x: complex,
    betas: Sequence[float] = (1e-2, 1e-3),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, dict]:
    """Compare ln(Y)/beta against the k-labeled structure function on a
    ladder of finite steps beta -> 0.

    At each beta the nome is p = q^(4k / (2 - beta)), so that
    q^(2k) = p^(1 - beta/2); Y takes any p != 0, so k may be negative.
    Every beta must lie in (0, 0.1] and at least two must differ; the
    ladder runs in descending order, duplicates kept.  First-order
    convergence makes the error fall tenfold per decade of beta: the order
    defect is |log10(err(1e-2) / err(1e-3)) - 1| when the ladder holds both
    steps (0 when err(1e-3) is exactly 0), else |fitted order - 1|, the
    least-squares slope of log err against log beta over nonzero errors.
    Returns the defect and its data: the target, one row per step, the
    fitted order and the 1e-2 to 1e-3 error ratio (None without the pair).
    """
    ladder = sorted(map(float, betas), reverse=True)
    if not all(0.0 < beta <= 0.1 for beta in ladder):
        raise DomainError(f"every beta must lie in (0, 0.1], got {ladder!r}")
    if len(set(ladder)) < 2:
        raise DomainError("the ladder needs at least two distinct betas to fit an order")
    xv = _as_complex(x, "x")
    target = poisson_structure(m, k, xv, q, policy)
    lnq = cmath.log(q)
    rows = []
    for beta in ladder:
        nome = NomeParams(cmath.exp(4.0 * k / (2.0 - beta) * lnq), q)
        value = cmath.log(exchange_Y(LevelParams(m, nome), xv, policy)) / beta
        rows.append((beta, value, abs(value - target)))
    logs = [(math.log(b), math.log(e)) for b, _, e in rows if e > 0]
    n = len(logs)
    order = math.nan  # a slope needs two distinct betas with nonzero errors
    if len({u for u, _ in logs}) >= 2:
        sx = sum(u for u, _ in logs)
        sy = sum(v for _, v in logs)
        sxx = sum(u * u for u, _ in logs)
        sxy = sum(u * v for u, v in logs)
        order = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    errs = {b: e for b, _, e in rows}
    ratio = None
    if 1e-2 in errs and 1e-3 in errs:
        if errs[1e-3] == 0.0:
            ratio, defect = math.inf, 0.0
        else:
            ratio = errs[1e-2] / errs[1e-3]
            defect = abs(math.log10(ratio) - 1.0)
    else:
        defect = abs(order - 1.0)
    return defect, {
        "target": target,
        "table": [{"beta": b, "lnY_over_beta": d, "abs_error": e} for b, d, e in rows],
        "fitted_order": order,
        "ratio_1e-2_to_1e-3": ratio,
    }


@dataclass(frozen=True)
class AnnulusLabel:
    """Selects the annulus |x| in (|q|^n_ann, |q|^(n_ann - 1)) between two
    consecutive pole circles of the structure function."""

    n_ann: int

    def __post_init__(self) -> None:
        if int(self.n_ann) != self.n_ann:
            raise DomainError("annulus label must be an integer")
        object.__setattr__(self, "n_ann", int(self.n_ann))

    def radius(self, q: complex) -> float:
        """Geometric-mean radius |q|^(n_ann - 1/2), farthest from both poles."""
        return abs(q) ** (self.n_ann - 0.5)


@dataclass(frozen=True)
class ModeBracketTable:
    """Structure constants of {t_n, t_m} = sum_l g_l t_(n+l) t_(m-l).

    ``coefficients`` holds the antisymmetric part (satisfying g_l = -g_-l),
    ``raw_coefficients`` the plain contour values on the labeled annulus.
    """

    annulus: AnnulusLabel
    coefficients: dict[int, complex]
    raw_coefficients: dict[int, complex]
    which: str
    params: dict

    def antisymmetry_violation(self) -> float:
        worst = 0.0
        for l, g in self.coefficients.items():
            worst = max(worst, abs(g + self.coefficients.get(-l, 0.0)))
        return worst


_WHICH_ALIASES = {
    "klimit": "klimit",
    "theorem7": "klimit",
    "center": "center",
    "ps1": "center",
}


def _structure_integrand(which: str, q: complex, m: int | None, k: int | None, policy):
    kind = _WHICH_ALIASES.get(which)
    if kind is None:
        raise DomainError(f"unknown structure function {which!r}")
    if kind == "klimit":
        if m is None or k is None:
            raise DomainError("the k-labeled structure function needs m and k")

        def f(z: complex) -> complex:
            return poisson_structure(m, k, z, q, policy)

    else:

        def f(z: complex) -> complex:
            return poisson_structure_center(z, q, policy)

    return kind, f


def laurent_modes(
    which: str,
    *,
    q: complex,
    annulus: AnnulusLabel,
    l_max: int = 8,
    quadrature_points: int = 256,
    m: int | None = None,
    k: int | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> ModeBracketTable:
    """Laurent coefficients g_l, |l| <= l_max, of a structure function on one annulus.

    g_l = (1/2 pi i) oint_{|x| = r} x^(-l-1) f(x) dx by the trapezoidal rule
    on the circle of radius r = |q|^(n_ann - 1/2).  f is sampled once at
    2N nodes (N = quadrature_points); np.fft.fft of those samples gives the
    2N-node rule and of the even nodes alone the N-node rule.  Raises
    QuadratureUnresolved when the two rules differ in any coefficient by
    more than 1e-9, AnnulusContainsPole when r is within 1e-6 of a pole
    circle |q|^j.
    """
    qv = _in_disk(q, "q")
    kind, f = _structure_integrand(which, qv, m, k, policy)
    if int(l_max) != l_max or l_max < 0:
        raise DomainError(f"l_max must be a non-negative integer, got {l_max!r}")
    l_max = int(l_max)
    if quadrature_points < 4 * (l_max + 1):
        raise DomainError(
            f"quadrature_points = {quadrature_points} < 4 (l_max + 1) = {4 * (l_max + 1)}"
        )
    r = annulus.radius(qv)
    jc = round(math.log(r) / math.log(abs(qv)))
    for j in (jc - 1, jc, jc + 1):
        if abs(r - abs(qv) ** j) < 1e-6:
            raise AnnulusContainsPole(
                f"radius {r:.8g} within 1e-6 of pole circle |q|^{j}"
            )
    nodes = 2 * quadrature_points
    vals = np.array([f(r * cmath.exp(2j * math.pi * j / nodes)) for j in range(nodes)])

    def rule(samples: np.ndarray) -> dict[int, complex]:
        # index l of the transform is frequency l; negative l wraps to the end
        hat = np.fft.fft(samples)
        return {l: complex(hat[l]) / (len(samples) * r**l) for l in range(-l_max, l_max + 1)}

    coarse = rule(vals[::2])
    fine = rule(vals)
    drift = max(abs(coarse[l] - fine[l]) for l in fine)
    if drift > 1e-9:
        raise QuadratureUnresolved(
            f"doubling {quadrature_points} nodes moved a coefficient by {drift:.3e}"
        )
    odd = {l: 0.5 * (fine[l] - fine[-l]) for l in fine}
    return ModeBracketTable(
        annulus=annulus,
        coefficients=odd,
        raw_coefficients=fine,
        which=kind,
        params={
            "q": qv,
            "m": m,
            "k": k,
            "radius": r,
            "nodes": nodes,
            "drift": drift,
        },
    )


def format_mode_bracket(
    table: ModeBracketTable,
    n: int,
    m_mode: int,
    cutoff: int,
) -> dict:
    """Deterministic rendering of {t_n, t_m} = sum_l g_l t_(n+l) t_(m-l),
    truncated at |l| <= cutoff; coefficients below 1e-12 are suppressed.

    For n == m_mode the antisymmetric pairs (l, -l) multiply the same
    commuting monomial and cancel; they are listed under "cancelled_pairs"
    instead of appearing as terms.
    """
    if int(n) != n or int(m_mode) != m_mode or int(cutoff) != cutoff or cutoff < 0:
        raise DomainError("mode indices must be integers and cutoff >= 0")
    terms = []
    cancelled: list[list[int]] = []
    for l in sorted(l for l in table.coefficients if abs(l) <= cutoff):
        g = table.coefficients[l]
        if abs(g) <= _SUPPRESS_BELOW:
            continue
        if n == m_mode:
            if l > 0:
                cancelled.append([-l, l])
            continue
        terms.append(
            {
                "l": l,
                "coeff": g,
                "monomial": f"t[{n + l}]*t[{m_mode - l}]",
            }
        )
    if terms:
        parts = [
            f"({t['coeff'].real:.12g}{t['coeff'].imag:+.12g}j) {t['monomial']}"
            for t in terms
        ]
        rhs = " + ".join(parts)
    else:
        rhs = "0"
    text = f"{{t[{n}], t[{m_mode}]}} = {rhs}"
    out = {
        "bracket": [n, m_mode],
        "annulus": table.annulus.n_ann,
        "terms": terms,
        "text": text,
    }
    if n == m_mode and cancelled:
        out["cancelled_pairs"] = cancelled
    return out
