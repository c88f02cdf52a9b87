"""C2 and C3 proved on the exchange tables as they ship, in integers only.

At a commuting point p = q^(2k), the factor th(x^(2e) q^(2j) p^(f s)) of
``exchange._F_POS``, ``_F_NEG`` and ``_Y`` (th = theta_{q^4}) is
th(X^e q^n) with X = x^2 and n = 2j + 2kfs.  The inversion law
th(z) = -z th(1/z) takes e = -1 to e = 1, and the shift law
th(a^t w) = (-1)^t a^(-t(t-1)/2) w^(-t) th(w), a = q^4, takes n to
r = n mod 4.  So each closed form reduces to (-1)^sigma q^alpha X^beta times
prod_r th(X q^r)^(c_r), r = 0..3, held here as the integer vector
(sigma, alpha, beta, c_0, c_1, c_2, c_3): a product of forms is the sum of
their vectors.  An identity holds for every x and q when both sides reduce
to the same vector, sigma taken mod 2.

Claims proved for 1 <= |m|, |k| <= 12:
- C2: Y = 1 at every k;
- C3: F = 1 for odd k, and for even k F = q^(-2m) x^(4m) [th(x^2 q^2) / th(x^2)]^(4m),
  ``commuting_F``'s closed form.
"""

import cmath

import pytest

from ellex import exchange
from ellex.qseries import theta

# the step monomials exchange_F and exchange_Y multiply each step's quotient by
Q_INV, Q, X = (0, -1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)
SHIPPED = (exchange._F_POS, exchange._F_NEG, exchange._Y, Q_INV)


def add(u, v, times=1):
    return tuple(a + times * b for a, b in zip(u, v))


def factor(e, n):
    """th(X^e q^n) as a vector."""
    v = (0,) * 7
    if e < 0:  # th(X^-1 q^n) = -X^-1 q^n th(X q^-n)
        v, n = (1, n, -1, 0, 0, 0, 0), -n
    t, r = divmod(n, 4)
    # th(q^(4t) X q^r) = (-1)^t q^(-2t(t-1)) (X q^r)^(-t) th(X q^r)
    shift = [t, -2 * t * (t - 1) - r * t, -t, 0, 0, 0, 0]
    shift[3 + r] = 1
    return add(v, shift)


def closed_form(table, first, last, step, k):
    """The product over s = first..last of step times the table's quotient
    at s, at p = q^(2k)."""
    total = (0,) * 7
    for s in range(first, last + 1):
        for sign, side in ((1, table[0]), (-1, table[1])):
            for e, j, f in side:
                total = add(total, factor(e, 2 * j + 2 * k * f * s), sign)
        total = add(total, step)
    return total


def same(u, v):
    return (u[0] - v[0]) % 2 == 0 and u[1:] == v[1:]


def first_failure(f_pos, f_neg, y, pos_step, bound=12):
    """The first (claim, m, k) with 1 <= |m|, |k| <= bound whose reduced
    sides differ, or None."""
    span = [n for n in range(-bound, bound + 1) if n]
    for k in span:
        for m in span:
            if m > 0:
                f = closed_form(f_pos, 1, 2 * m, pos_step, k)
            else:
                f = closed_form(f_neg, 0, -2 * m - 1, Q, k)
            # commuting_F: 1, or q^(-2m) X^(2m) [th(X q^2) / th(X)]^(4m)
            want = (0,) * 7 if k % 2 else (0, -2 * m, 2 * m, -4 * m, 0, 4 * m, 0)
            if not same(f, want):
                return "C3", m, k
            inner = closed_form(y, 1, 2 * m - 1 if m > 0 else -2 * m, X, k)
            if not same(add(inner, inner), (0,) * 7):
                return "C2", m, k
    return None


def test_the_shipped_tables_prove_c2_and_c3():
    assert first_failure(*SHIPPED) is None


@pytest.mark.parametrize("e", [1, -1])
def test_each_reduced_factor_is_the_theta_it_stands_for(e):
    q, x2 = 0.6 * cmath.exp(0.3j), (1.1 + 0.2j) ** 2
    for n in range(-7, 8):
        sigma, alpha, beta, *counts = factor(e, n)
        r = counts.index(1)
        value = (-1) ** sigma * q**alpha * x2**beta * theta(q**4, x2 * q**r)
        want = theta(q**4, x2**e * q**n)
        assert abs(value - want) <= 1e-12 * abs(want), n


def flipped(table, side, index, part):
    """table with one entry changed: e or f negated, or j toggled 0 <-> 1."""
    rows = [list(map(list, half)) for half in table]
    entry = rows[side][index]
    entry[part] = 1 - entry[part] if part == 1 else -entry[part]
    return tuple(tuple(map(tuple, half)) for half in rows)


def _mutants():
    """Every single-entry change of each table, the m < 0 table's numerator
    and denominator swapped, and the m > 0 step q^-2 instead of q^-1."""
    f_pos, f_neg, y, step = SHIPPED
    yield pytest.param((f_pos, (f_neg[1], f_neg[0]), y, step), id="F_NEG-swapped")
    yield pytest.param((f_pos, f_neg, y, add(Q_INV, Q_INV)), id="positive-m-step-q^-2")
    for name, at in (("F_POS", 0), ("F_NEG", 1), ("Y", 2)):
        for side in (0, 1):
            for index in (0, 1):
                for part in (0, 1, 2):
                    tables = list(SHIPPED)
                    tables[at] = flipped(tables[at], side, index, part)
                    yield pytest.param(tuple(tables), id=f"{name}[{side}][{index}][{part}]")


@pytest.mark.parametrize("tables", _mutants())
def test_each_mutant_fails_the_proof(tables):
    assert first_failure(*tables, bound=6) is not None
