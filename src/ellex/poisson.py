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
1 - n.  On annulus 0, in units of the prefactor, the raw coefficients are
2 q^(2j) / (1 + q^(2j)) at l = 2j, 2 / (1 + q^(2j)) at l = -2j (j >= 1),
1 at l = 0 and 0 at odd l, so the l-symmetric part (g_l + g_-l)/2 is 1
at every even l and 0 at every odd one: the modes of a delta(x^2) term.
The bracket structure constants stored in ``ModeBracketTable.coefficients``
are the antisymmetric part (g_l - g_-l)/2 of the raw data, which is
exactly what an antisymmetric bracket on commuting mode symbols can see;
the raw coefficients are kept alongside for expansion and residue checks.

The circle is sampled once, at 2N nodes.  One FFT of the even nodes (E)
and one of the odd nodes (O) give both rules: the N-node rule is E_l and
the 2N-node rule E_l + w^l O_l with w = exp(-pi i / N), and the two must
agree to 1e-9.  The transform is this module's own (``_fft``), so no
command needs numpy.  One integrand per table does the q-level work; each
node forms x^2 and the series' cores, and counts its terms unless the whole
circle shares one count.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

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
    _base,
    _in_disk,
    _log_deriv_core,
    _nonzero,
    _nonzero_int,
    _series_powers,
    _square,
    _unmet,
    log_deriv_theta,
    near_theta_zero,
    point_scope,
)

__all__ = [
    "AnnulusLabel",
    "ModeBracketTable",
    "poisson_series_g",
    "poisson_structure",
    "poisson_structure_center",
    "beta_limit_check",
    "ORDER_DEFECT_TOL",
    "laurent_modes",
    "format_mode_bracket",
]

ORDER_DEFECT_TOL = math.log10(2.0)  # passing defect: the error falls 5- to 20-fold per decade
_SUPPRESS_BELOW = 1e-12  # format_mode_bracket omits coefficients this small


def poisson_series_g(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The bracketed series g(x), with poles at x^2 = q^(2j).

    Keeps the terms n < N for the least N >= 1 with
    8 (|x|^2 + |x|^-2) |q^(4N)| / (1 - |q|^4) < tail_tol, which bounds the
    absolute value of the dropped terms and keeps |x^2 q^(4N)| and
    |x^-2 q^(4N)| below 1/8.  ``qseries._series_powers`` counts them once
    and gives the powers t = q^(4n) from the table of the checked base q^4,
    so the loop tests nothing and the value is bit for bit what testing
    after every term, with t formed by repeated multiplication, gives.  A q^4
    that underflows to 0 leaves the first term alone.
    """
    xv = _nonzero(x, "x")
    qv = _in_disk(q, "q")
    a = _square(xv, "x^2")
    b = 1.0 / a
    if near_theta_zero(qv * qv, a):
        raise NearSingularity(f"x = {xv!r} is within {_ZERO_RTOL:g} of a pole x^2 = q^(2j)")
    q2 = qv * qv
    q4 = q2 * q2
    scale = 8.0 * (abs(a) + abs(b))
    if q4:
        powers = _series_powers(scale, _base(q4, policy, "q^4"), "structure-function")
    elif scale < math.inf:  # q^4 underflowed to 0: the bound holds after one term
        powers = [1.0 + 0j, 0j]
    else:
        raise _unmet("structure-function", policy)
    return _series_g_core(a, b, q2, powers)


def _series_g_core(a: complex, b: complex, q2: complex, powers: list[complex]) -> complex:
    """g at checked a = x^2 and b = 1/x^2, over the powers t = q^(4n) of the
    base q^4 and the term past them: a loop with no test in it."""
    one = 1.0 + 0j  # a complex 1, as in qseries._theta_pair
    total = a / (one - a) - b / (one - b)
    neg_2a, pos_2a, pos_2b = -2.0 * a, 2.0 * a, 2.0 * b
    for t in powers[:-1]:
        at, bt, bt2 = a * t, b * t, pos_2b * t
        total += (
            neg_2a * t / (one - at)
            + pos_2a * t * q2 / (one - at * q2)
            + bt2 / (one - bt)
            - bt2 * q2 / (one - bt * q2)
        )
    return total


def _prefactor(m: int, k: int, q: complex) -> complex:
    """The k-labeled structure function's prefactor, m, k and q checked in that order."""
    m, k = _nonzero_int(m, "m"), _nonzero_int(k, "k")
    lnq = cmath.log(_in_disk(q, "q"))
    if k % 2:
        return 2.0 * k * m * lnq
    return -2.0 * k * m * (2 * m - 1) * lnq


def poisson_structure(
    m: int,
    k: int,
    x: complex,
    q: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Full k-labeled structure function: parity-dependent prefactor times g."""
    return _prefactor(m, k, q) * poisson_series_g(x, q, policy)


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
    q4 = _in_disk(qv**4, "q^4")
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
    q^(2k) = p^(1 - beta/2); Y takes any p != 0, so k may be negative, and
    a p that overflows raises DomainError.
    Every beta must lie in (0, 0.1] and at least two must differ; the
    ladder runs over the distinct betas in descending order.  First-order
    convergence makes the error fall tenfold per decade of beta, and the
    two finest steps b1 > b2 alone decide it: the order is
    log10(e1 / e2) / log10(b1 / b2) and the defect is |order - 1|.  Unless
    e1 and e2 are both nonzero and e2 is below the coarsest step's error,
    the ladder does not converge: the order is nan and the defect inf.
    Every caller passes the ladder exactly when the defect is at most
    ``ORDER_DEFECT_TOL``.  Returns the defect and its data: the target,
    one row per step and the order.
    """
    ladder = sorted(set(map(float, betas)), reverse=True)
    if not all(0.0 < beta <= 0.1 for beta in ladder):
        raise DomainError(f"every beta must lie in (0, 0.1], got {ladder!r}")
    if len(ladder) < 2:
        raise DomainError("the ladder needs at least two distinct betas to measure an order")
    xv = _as_complex(x, "x")
    target = poisson_structure(m, k, xv, q, policy)
    lnq = cmath.log(q)
    rows = []
    for beta in ladder:
        try:
            nome = NomeParams(cmath.exp(4.0 * k / (2.0 - beta) * lnq), q)
        except OverflowError:
            raise DomainError(f"p = q^(4k / (2 - beta)) overflows at k = {k}, beta = {beta:g}, "
                              f"q = {q!r}") from None
        value = cmath.log(exchange_Y(LevelParams(m, nome), xv, policy)) / beta
        rows.append((beta, value, abs(value - target)))
    (b1, _, e1), (b2, _, e2) = rows[-2:]
    order, defect = math.nan, math.inf
    if e1 > 0.0 and 0.0 < e2 < rows[0][2]:
        order = math.log10(e1 / e2) / math.log10(b1 / b2)
        defect = abs(order - 1.0)
    return defect, {
        "target": target,
        "table": [{"beta": b, "lnY_over_beta": d, "abs_error": e} for b, d, e in rows],
        "order": order,
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
        """Geometric-mean radius |q|^(n_ann - 1/2), farthest from both poles;
        DomainError when it leaves the floating-point range."""
        if not abs((self.n_ann - 0.5) * math.log(abs(q))) < 700.0:
            raise DomainError(f"radius of annulus {self.n_ann} out of floating-point range")
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


_WHICH_ALIASES = {
    "klimit": "klimit",
    "theorem7": "klimit",
    "center": "center",
    "ps1": "center",
}


def _kind(which: str, m: int | None, k: int | None) -> str:
    """The structure function ``which`` names, with the levels it needs."""
    kind = _WHICH_ALIASES.get(which)
    if kind is None:
        raise DomainError(f"unknown structure function {which!r}")
    if kind == "klimit" and (m is None or k is None):
        raise DomainError("the k-labeled structure function needs m and k")
    return kind


def _circle_powers(scale: float, base, series: str) -> list[complex] | None:
    """The powers that ``_series_powers`` gives at every node of a circle
    whose nodes' scales lie within relative 3e-12 of ``scale``, or None where
    two of them may differ.  The count only grows with the scale, so where
    the least and the largest scale agree, every scale between does.  A node
    with |x| within relative 1e-12 of r moves x^2 + x^-2, and the
    log-derivative's |y| + 1/|y| + 1, by less than relative 2e-12; rounding
    adds a few ulps."""
    try:
        low = _series_powers(scale * (1.0 - 3e-12), base, series)
        high = _series_powers(scale * (1.0 + 3e-12), base, series)
    except TruncationExceeded:
        return None
    return low if len(low) == len(high) else None


def _circle_integrand(kind: str, q: complex, r: float, m: int | None, k: int | None,
                      policy: TruncationPolicy):
    """The structure function on the circle |x| = r of a checked q, as one
    function of x whose every value, error type and message is the public
    function's.

    It does the q-level work once: the checks of m, k, q and q^4, q^2, the
    base q^4 and ln q in the prefactor, each raising what the first node
    would.  Each node then forms x^2 and its cores; each series counts its
    terms once for the whole circle (``_circle_powers``), and per node only
    where two nodes' counts may differ.  The node checks it drops give one
    verdict on the whole circle:
    - the moduli of x^2, 1/x^2, q^2 x^2 and q^2 / x^2 lie in
      (1e-200, 1e100), so none is 0, inf or out of reciprocal range;
    - the poles of g (x^2 = q^(2j)) and the zeros of the center's
      theta_{q^4} factors lie on the circles |x| = |q|^j, which r clears by
      relative 1e-6 (laurent_modes has checked), so no node lies within
      their relative 1e-8; and each node's window of candidate powers is
      at least 200 times narrower than that check's, which held no more
      than 1024 of them, so |q| near 1 refuses no node there either.
    Where that cannot be shown, at |q^2| <= 1e-100 (q^4 may underflow) or
    r^2 outside (1e-100, 1e100), every node goes through the public
    function, with all its checks in their order.
    """
    q2 = q * q
    r2 = r * r
    if not (1e-100 < abs(q2) and 1e-100 < r2 < 1e100):
        if kind == "klimit":
            return lambda x: poisson_structure(m, k, x, q, policy)
        return lambda x: poisson_structure_center(x, q, policy)
    if kind == "klimit":
        prefactor = _prefactor(m, k, q)
        base = _base(q2 * q2, policy, "q^4")
        core = _series_g_core
        shared = _circle_powers(8.0 * (r2 + 1.0 / r2), base, "structure-function")

        def klimit(x: complex) -> complex:
            a = x * x
            b = 1.0 / a
            powers = shared or _series_powers(8.0 * (abs(a) + abs(b)), base, "structure-function")
            return prefactor * core(a, b, q2, powers)

        return klimit
    base = _base(q**4, policy, "q^4")
    prefactor = -2.0 * cmath.log(q)
    L = _log_deriv_core
    # the moduli of the four arguments below, at |x| = r
    s1, s2, s3, s4 = [
        _circle_powers(2.0 * (y + 1.0 / y + 1.0), base, "log-derivative")
        for y in (abs(q2) * r2, 1.0 / r2, abs(q2) / r2, r2)
    ]

    def center(x: complex) -> complex:
        x2 = x * x
        return prefactor * (
            L(q2 * x2, base, s1) + L(1.0 / x2, base, s2) - L(q2 / x2, base, s3) - L(x2, base, s4)
        )

    return center


@functools.lru_cache(maxsize=32)
def _roots(n: int) -> tuple[complex, ...]:
    """exp(-2 pi i k / n) for 0 <= k < n/2, each from its own angle."""
    return tuple(cmath.exp(-2j * math.pi * k / n) for k in range(n // 2))


def _fft(values: list[complex]) -> list[complex]:
    """The discrete Fourier transform X_l = sum_j v_j exp(-2 pi i j l / n),
    0 <= l < n, as numpy.fft.fft computes it.

    A length that is a power of two goes through radix-2 stages in place
    (Stockham order).  Before the stage that doubles m, the list holds, for
    each residue r mod n/m, the m-point transform of v_r, v_(r+n/m), ... in
    slots r m .. r m + m - 1; the first half of the list holds the
    residues whose even parts the stage needs and the second half their odd
    parts, so X = E + w^k O and E - w^k O come from the two halves whole.
    Any other length n goes through Bluestein's chirp,
    j l = (j^2 + l^2 - (l - j)^2)/2, as a convolution whose length is a power
    of two at least 2n - 1; its chirp exp(-pi i j^2 / n) takes j^2 mod 2n,
    so every angle stays below 2 pi.
    """
    n = len(values)
    if n & (n - 1):
        return _bluestein(values)
    cur = list(values)
    half = n // 2
    m = 1
    while m < n:
        head = cur[:half]
        turned = [w * b for w, b in zip(_roots(2 * m) * (half // m), cur[half:])]
        plus = [a + t for a, t in zip(head, turned)]
        minus = [a - t for a, t in zip(head, turned)]
        # block r of plus and of minus go to slots 2 r m and 2 r m + m; the
        # loop runs over whichever of the m offsets or the n/2m blocks is fewer
        step = 2 * m
        if m * m <= half:
            for k in range(m):
                cur[k::step] = plus[k::m]
                cur[m + k::step] = minus[k::m]
        else:
            for r in range(0, half, m):
                cur[2 * r:2 * r + m] = plus[r:r + m]
                cur[2 * r + m:2 * r + step] = minus[r:r + m]
        m = step
    return cur


def _bluestein(values: list[complex]) -> list[complex]:
    n = len(values)
    size = 1 << (2 * n - 2).bit_length()
    chirp = [cmath.exp(-1j * math.pi * (j * j % (2 * n)) / n) for j in range(n)]
    kernel = [w.conjugate() for w in chirp] + [0j] * (size - 2 * n + 1)
    kernel += kernel[n - 1:0:-1]
    padded = [v * w for v, w in zip(values, chirp)] + [0j] * (size - n)
    # the inverse transform as the conjugate of the transform of the conjugate
    spectrum = [u.conjugate() * h.conjugate() for u, h in zip(_fft(padded), _fft(kernel))]
    return [w * c.conjugate() / size for w, c in zip(chirp, _fft(spectrum))]


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
    2N nodes (N = quadrature_points, params["nodes"] = 2N), in one point
    scope, by one integrand that does the q-level work once and shares one
    base q^4 (``_circle_integrand``); its samples are the public function's
    bit for bit.  ``_fft`` of the even and of the odd nodes gives the N-node
    rule and, combined, the 2N-node rule.  Raises
    QuadratureUnresolved when the two rules differ in any coefficient by
    more than 1e-9, AnnulusContainsPole when r is within relative 1e-6 of a
    pole circle |q|^j, and DomainError when some r^l, |l| <= l_max, leaves
    the floating-point range; every input is checked before f is sampled.
    """
    qv = _in_disk(q, "q")
    kind = _kind(which, m, k)
    if int(l_max) != l_max or l_max < 0:
        raise DomainError(f"l_max must be a non-negative integer, got {l_max!r}")
    l_max = int(l_max)
    if quadrature_points < 4 * (l_max + 1):
        raise DomainError(
            f"quadrature_points = {quadrature_points} < 4 (l_max + 1) = {4 * (l_max + 1)}"
        )
    r = annulus.radius(qv)
    if near_theta_zero(abs(qv), r, 1e-6):
        raise AnnulusContainsPole(f"radius {r:.8g} within relative 1e-6 of a circle |q|^j")
    if not l_max * abs(math.log(r)) < 700.0:
        raise DomainError(f"r^l for |l| <= {l_max} out of floating-point range at radius {r:.8g}")
    nodes = 2 * quadrature_points
    with point_scope():  # every node shares the structure function's base q^4
        f = _circle_integrand(kind, qv, r, m, k, policy)
        vals = [f(r * cmath.exp(2j * math.pi * j / nodes)) for j in range(nodes)]
    # index l of a transform is frequency l; negative l wraps to the end
    even, odd = _fft(vals[0::2]), _fft(vals[1::2])
    ls = range(-l_max, l_max + 1)
    coarse = {l: even[l] / (quadrature_points * r**l) for l in ls}
    fine = {
        l: (even[l] + cmath.exp(-1j * math.pi * l / quadrature_points) * odd[l]) / (nodes * r**l)
        for l in ls
    }
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
