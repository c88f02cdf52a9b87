"""Eight-vertex matrix tests: normalization factors, assembly, transposes,
and the crossing / nome-shift / Yang-Baxter identity checks."""

import cmath
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex import rmatrix, suites
from ellex.elliptic import EllipticParams, NomeParams, baxter_entries, param_map
from ellex.errors import (
    DomainError,
    EllexError,
    NearSingularity,
    NonConvergentBase,
    SingularMatrix,
    TruncationExceeded,
)
from ellex.exchange import LevelParams, exchange_F, shift_factor_F
from ellex.qseries import TruncationPolicy, qpochhammer
from ellex.rmatrix import (
    check_crossing,
    check_pshift,
    check_ybe,
    kappa_inv,
    mu_inv,
    partial_transpose,
    r_plus,
    rmatrix_inverse,
    tau_fn,
    tau_fn_pochhammer,
)

NOME = NomeParams(0.0278640785937287, -0.4077049890725035)  # modulus 0.6, lambda 1.0


def eight_vertex(a, b, c, d):
    """The eight-vertex layout (rows/cols ++, +-, -+, --) as a numpy array,
    for the tests that hold the entry forms to numpy's dense algebra."""
    np = pytest.importorskip("numpy")
    return np.array([[a, 0, 0, d], [0, b, c, 0], [0, c, b, 0], [d, 0, 0, a]], dtype=complex)


def times(m, n):
    """The product of two eight-vertex matrices, in entries."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + d * h, b * f + c * g, b * g + c * f, a * h + d * e


def qp1_brute(x, b, terms=800):
    r = 1.0 + 0j
    t = 1.0 + 0j
    for _ in range(terms):
        r *= 1 - x * t
        t *= b
    return r


# --- tau ---------------------------------------------------------------------


def test_tau_at_unit_square_points():
    # x^2 = 1 makes numerator and denominator coincide, so tau = 1/x
    for q in (0.4, -0.45):
        assert tau_fn(1.0, q) == pytest.approx(1.0)
        assert tau_fn(-1.0, q) == pytest.approx(-1.0)


def test_tau_reflection_product():
    q, x = 0.4, 1.3
    assert tau_fn(x, q) * tau_fn(1.0 / x, q) == pytest.approx(1.0, abs=1e-11)


def test_tau_dual_representation():
    # frozen from the brute pochhammer-ratio oracle at q=0.35, x=0.8+0.1j
    val = tau_fn(0.8 + 0.1j, 0.35)
    assert val == pytest.approx(1.7039635984430153 - 0.8119008509839601j, abs=1e-12)
    for q, x in [(0.35, 0.8 + 0.1j), (0.4, 1.3), (-0.45, 0.9 - 0.2j)]:
        a, b = tau_fn(x, q), tau_fn_pochhammer(x, q)
        assert abs(a - b) <= 1e-11 * abs(a)


# --- mu, kappa ---------------------------------------------------------------


def test_kappa_reflection_inverse():
    y = 1.1**2
    prod = kappa_inv(y, 0.2, 0.4) * kappa_inv(1.0 / y, 0.2, 0.4)
    assert prod == pytest.approx(1.0, abs=1e-10)


def test_kappa_matches_brute_double_product():
    # frozen from a nested 120x120 brute product at p=0.2, q=0.4, x=1.1
    assert kappa_inv(1.1**2, 0.2, 0.4) == pytest.approx(1.02464040132512, abs=1e-12)


@pytest.mark.parametrize(
    "y,p,q,stage",
    [
        (1.21, 0.2, 0.4, "tail series"),  # no head rows; the series needs ~30 terms
        (1e-3, 0.5, 0.6, "head rows"),  # |q^4/y| = 130 needs 8 rows of base 0.5
    ],
)
def test_kappa_inv_truncation_exceeded(y, p, q, stage):
    with pytest.raises(TruncationExceeded, match=stage):
        kappa_inv(y, p, q, TruncationPolicy(max_terms=5, tail_tol=1e-15))


def kappa_inv_listwise(x2, p, q, policy):
    """kappa_inv with its tail series on lists: the eight powers and the
    eight bounds are rebuilt as lists every term, and the bounds are added
    left to right (the order sum() uses for floats through Python 3.11).
    kappa_inv keeps them in locals, and must equal this bit for bit."""
    y, p, q = complex(x2), complex(p), complex(q)
    q2 = q * q
    q4 = q2 * q2
    a, b = sorted((p, q4), key=abs, reverse=True)
    num_rows, den_rows, tails = [], [], []
    for rows, args in (
        (num_rows, (q4 / y, q2 * y, p / y, p * q2 * y)),
        (den_rows, (q4 * y, q2 / y, p * y, p * q2 / y)),
    ):
        for z in args:
            start = len(rows)
            while abs(z) > 0.5:
                if len(rows) - start == policy.max_terms:
                    raise TruncationExceeded(
                        f"more than max_terms={policy.max_terms} head rows "
                        f"(base moduli {abs(a):.4g}, {abs(b):.4g})"
                    )
                rows.append(z)
                z *= a
            tails.append(z)
    share = policy.tail_tol / (2 * (len(num_rows) + len(den_rows) + 1))
    row_policy = TruncationPolicy(policy.max_terms, share)
    num = den = 1.0 + 0j
    for z in num_rows:
        num *= qpochhammer(z, b, row_policy)
    for z in den_rows:
        den *= qpochhammer(z, b, row_policy)
    if not (cmath.isfinite(num) and cmath.isfinite(den)):
        raise DomainError(f"kappa_inv row products out of floating-point range at x2 = {y!r}")
    if den == 0:
        raise NearSingularity(f"kappa_inv denominator vanished at x2 = {y!r}")
    mags = [abs(w) for w in tails]
    scale = 1.0 / ((1.0 - abs(a)) * (1.0 - abs(b)))
    rest = [scale * m * m / (1.0 - m) for m in mags]
    powers = tails
    a_j, b_j = a, b
    log_tail = 0j
    for j in range(1, policy.max_terms + 1):
        n1, n2, n3, n4, d1, d2, d3, d4 = powers
        signed = (n1 + n2 + n3 + n4) - (d1 + d2 + d3 + d4)
        log_tail -= signed / (j * (1.0 - a_j) * (1.0 - b_j))
        bound = 0.0
        for r in rest:
            bound += r
        if bound < share * (j + 1):
            return num / den * cmath.exp(log_tail)
        powers = [v * w for v, w in zip(powers, tails)]
        rest = [r * m for r, m in zip(rest, mags)]
        a_j *= a
        b_j *= b
    raise TruncationExceeded(
        f"kappa_inv tail series did not meet {share:g} within "
        f"max_terms={policy.max_terms} terms"
    )


def value_or_error(f, *args):
    try:
        return repr(f(*args))
    except EllexError as exc:
        return type(exc), str(exc)


def test_kappa_inv_equals_the_listwise_loop():
    # seeded (x^2, p, q), complex q included, at caps small enough to stop
    # the head rows, the row products and the tail series
    rng = random.Random(24)
    seen = set()
    for i in range(1000):
        p = cmath.rect(rng.uniform(0.02, 0.9), rng.uniform(-cmath.pi, cmath.pi))
        if i % 3:
            q = cmath.rect(rng.uniform(0.1, 0.95), rng.uniform(-cmath.pi, cmath.pi))
        else:
            q = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.95)
        x2 = cmath.rect(10.0 ** rng.uniform(-1.5, 1.5), rng.uniform(-cmath.pi, cmath.pi))
        policy = TruncationPolicy(
            rng.choice((512, 512, 40, 12, 6, 3)), rng.choice((1e-15, 1e-10, 1e-300))
        )
        want = value_or_error(kappa_inv_listwise, x2, p, q, policy)
        assert value_or_error(kappa_inv, x2, p, q, policy) == want, (x2, p, q, policy)
        seen.add(want[1].split(" ")[0] if isinstance(want, tuple) else "value")
    assert seen == {"value", "more", "kappa_inv", "tail"}


@pytest.mark.parametrize("p", [1.0, -1.2, 0.9j + 0.5])
def test_kappa_inv_rejects_nome_outside_disk(p):
    with pytest.raises(NonConvergentBase):
        kappa_inv(1.21, p, 0.4)


def test_mu_inv_finite_nonzero_on_grid():
    for x in (0.55, 0.8, 1.1 + 0.2j, 1.9):
        v = mu_inv(x, 0.2, 0.4)
        assert cmath.isfinite(v)
        assert abs(v) > 0


# --- assembly ----------------------------------------------------------------


def test_r_plus_degenerates_to_permutation_at_x_one():
    # the entries collapse to the permutation pattern a = c = 1, b = d = 0 as
    # x -> 1, while the scalar normalization has a simple pole there (the tau
    # denominator theta_{q^4}(x^2) vanishes at x = 1), so r_plus(1) reports it
    with pytest.raises(NearSingularity):
        r_plus(1.0, NOME)
    a, b, c, d = r_plus(1.0 + 1e-4, NOME)
    assert abs(b / a) < 1e-3 and abs(d / a) < 1e-3
    assert abs(c / a - 1.0) < 1e-3


def test_r_plus_sparsity_exact():
    # R+ is its four entries; the eight-vertex zeros are the layout's
    r = r_plus(1.23 + 0.1j, NOME)
    assert isinstance(r, tuple) and len(r) == 4
    assert all(type(e) is complex and e != 0 for e in r)


def test_r_plus_two_path_assembly():
    # entries from the u-space elliptic path, normalization from the q-series path
    ep = EllipticParams(0.6, 1.0, 0.35)
    nome, x = param_map(ep)
    scale = tau_fn(cmath.sqrt(nome.q) / x, nome.q) * mu_inv(x, nome.p, nome.q)
    independent = [scale * e for e in baxter_entries(ep)]
    direct = r_plus(x, nome)
    assert max(abs(u - v) for u, v in zip(independent, direct)) < 1e-10


# --- transposes and inversion --------------------------------------------------


@given(
    st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=25, deadline=None)
def test_partial_transpose_involutive_and_composes(vals):
    m = tuple(complex(v) for v in vals)
    for slot in (1, 2):
        twice = partial_transpose(partial_transpose(m, slot), slot)
        assert twice == m
    # the full transpose leaves the symmetric layout as it is
    assert partial_transpose(partial_transpose(m, 1), 2) == m


def test_partial_transpose_matches_the_dense_one():
    np = pytest.importorskip("numpy")
    rng = random.Random(41)
    for slot in (1, 2) * 10:
        vals = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        dense = eight_vertex(*vals).reshape(2, 2, 2, 2)
        dense = dense.transpose(2, 1, 0, 3) if slot == 1 else dense.transpose(0, 3, 2, 1)
        assert np.array_equal(dense.reshape(4, 4), eight_vertex(*partial_transpose(vals, slot)))


def test_partial_transpose_on_r_plus():
    r = r_plus(1.2 + 0.3j, NOME)
    assert partial_transpose(partial_transpose(r, 1), 2) == r
    # symmetric layout: the two slot transposes coincide here
    assert partial_transpose(r, 1) == partial_transpose(r, 2) == (r[0], r[1], r[3], r[2])


def test_inverse_reports_condition_and_rejects_singular():
    r = r_plus(1.2, NOME)
    inv, cond = rmatrix_inverse(r)
    assert max(abs(u - v) for u, v in zip(times(inv, r), (1, 1, 0, 0))) < 1e-12
    assert cond > 1.0
    with pytest.raises(SingularMatrix, match="condition number inf"):
        rmatrix_inverse((1.0, 1.0, 1.0, 1.0))
    # well conditioned, but a block determinant underflows or overflows
    for tiny_or_huge in (1e-170, 1e170):
        with pytest.raises(SingularMatrix, match="determinant is out of floating-point range"):
            rmatrix_inverse((tiny_or_huge, tiny_or_huge, 0.0, 0.0))


def test_inverse_and_condition_match_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(37)
    for _ in range(200):
        entries = [cmath.rect(rng.uniform(0.1, 3.0), rng.uniform(-cmath.pi, cmath.pi))
                   for _ in range(4)]
        dense = eight_vertex(*entries)
        cond = float(np.linalg.cond(dense))
        if cond > 1e6:
            continue
        inv, got = rmatrix_inverse(entries)
        assert got == pytest.approx(cond, rel=1e-12)
        want = np.linalg.inv(dense)
        assert np.max(np.abs(eight_vertex(*inv) - want)) <= 1e-14 * cond * np.max(np.abs(want))


@pytest.mark.parametrize("length", [3, 5, 16])
def test_matrix_functions_reject_non_4x4(length):
    bad = (1.0,) * length
    with pytest.raises(DomainError):
        partial_transpose(bad, 1)
    with pytest.raises(DomainError):
        rmatrix_inverse(bad)


def test_embeddings_match_numpy_kron():
    # slot-major embeddings: R12 = R (x) I, R23 = I (x) R, and R13 is R (x) I
    # with slots 2 and 3 swapped in its row and column indices
    np = pytest.importorskip("numpy")
    entries = (1.1 + 0.2j, 0.7 - 0.1j, 0.3 + 0.4j, -0.2 + 0.9j)
    dense, eye2 = eight_vertex(*entries), np.eye(2)
    swap = np.kron(dense, eye2).reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    for (i, j), want in {(1, 2): np.kron(dense, eye2), (2, 3): np.kron(eye2, dense),
                         (1, 3): swap}.items():
        got = np.zeros((8, 8), dtype=complex)
        for row, cols in enumerate(rmatrix._embedded(entries, i, j)):
            for col, v in cols.items():
                got[row, col] = v
        assert np.array_equal(got, want), (i, j)


# --- identity checks -----------------------------------------------------------


def test_crossing_residual_small():
    err, scale, cond = check_crossing(1.17 + 0.21j, NOME)
    assert err < 1e-12
    assert 0.0 < scale < math.inf and 1.0 <= cond < 1e12


def test_crossing_residual_stable_under_tighter_tail():
    x = 0.93 - 0.18j
    r1 = check_crossing(x, NOME, TruncationPolicy(512, 1e-12))
    r2 = check_crossing(x, NOME, TruncationPolicy(512, 1e-13))
    assert abs(r1[0] - r2[0]) < 1e-11


def test_crossing_error_path_near_singular():
    # x on the theta zero spiral of the prefactor denominator
    q = NOME.q
    x = cmath.sqrt(q**4)  # x^2 = q^4, a zero of theta_{q^4}(x^2)
    with pytest.raises((NearSingularity, SingularMatrix)):
        check_crossing(x, NOME)


def test_pshift_relation_and_scalar_consistency():
    x = 1.21 + 0.14j
    err, scale = check_pshift(x, NOME)
    assert err < 1e-12 and 0.0 < scale < math.inf
    # F(x) of the matrix relation, the closed form F(1, x p), equals the
    # exchange module's four-tau product
    f_here = exchange_F(LevelParams(1, NOME), x * NOME.p)
    f_other = shift_factor_F(x, NOME)
    assert abs(f_here - f_other) <= 1e-12 * abs(f_here)


def test_ybe_residual_generic():
    err, scale = check_ybe(1.15, 0.9, NOME)
    assert err < 1e-11 and 0.0 < scale < math.inf


def test_ybe_degenerate_point_consistency():
    # at x = 1 the inner matrix is the slot permutation and the relation
    # P12 R13(y) R23(y) = R23(y) R13(y) P12 holds exactly; the normalized
    # matrix itself is on its x = 1 pole and reports NearSingularity
    with pytest.raises(NearSingularity):
        check_ybe(1.0, 0.85, NOME)
    np = pytest.importorskip("numpy")
    perm = eight_vertex(1.0, 0.0, 1.0, 0.0)
    ry = eight_vertex(*r_plus(0.85, NOME))
    eye2 = np.eye(2)
    s23 = np.zeros((8, 8))
    for s1 in range(2):
        for s2 in range(2):
            for s3 in range(2):
                s23[4 * s1 + 2 * s2 + s3, 4 * s1 + 2 * s3 + s2] = 1.0
    p12 = np.kron(perm, eye2)
    r23 = np.kron(eye2, ry)
    r13 = s23 @ np.kron(ry, eye2) @ s23  # x = 1 makes the 13 argument equal y
    resid = np.max(np.abs(p12 @ r13 @ r23 - r23 @ r13 @ p12))
    assert resid < 1e-11


def test_ybe_residual_scales_with_tail_tol():
    tight, _ = check_ybe(1.1, 0.95, NOME, TruncationPolicy(512, 1e-15))
    loose, _ = check_ybe(1.1, 0.95, NOME, TruncationPolicy(512, 1e-7))
    assert tight < 1e-12
    assert loose < 1e-4
    assert loose >= tight


# Two points (p, x, y) that the rmatrix sampler draws at q = 0.99647i.  Each
# check's entries are tiny there, so its absolute residual passes 1e-9 and
# says nothing; the suites refuse a point whose scale is below the
# reciprocal of its ceiling, as they refuse one above it
TINY_Q = complex(6.101638685651041e-17, 0.9964732182208355)
TINY_A = (0.22058116312563292, 0.934191766606252 - 0.6892041339277742j,
          -1.1074161895523014 + 0.19583781968740122j)
TINY_B = (0.52875917765976, -0.7283033655355248 - 0.3289007503616184j,
          0.8087845463158235 - 0.16727792512732267j)


@pytest.mark.parametrize("name, at, floor", [
    ("crossing", TINY_A, 1e-2), ("pshift", TINY_B, 1e-3), ("ybe", TINY_B, 1 / 50),
])
def test_suites_refuse_points_whose_entries_are_tiny(name, at, floor):
    p, x, y = at
    nome = NomeParams(p, TINY_Q)
    check = {"crossing": check_crossing, "pshift": check_pshift, "ybe": check_ybe}[name]
    err, scale, *_ = check(x, y, nome) if name == "ybe" else check(x, nome)
    assert err < 1e-9 and scale < floor
    with pytest.raises(SingularMatrix, match="ill-posed point"):
        getattr(suites, f"_eval_{name}")(suites.VerifyConfig(q=TINY_Q), (complex(p), TINY_Q, x, y))


def test_r_plus_refuses_a_normalization_that_overflows_without_a_warning():
    # a point the crossing sampler draws at q = 0.99647i: tau(q^(1/2)/x) mu(x)^-1
    # is not finite there, and is refused before it scales the entries
    nome = NomeParams(0.5611382994560222, TINY_Q)
    x = 1.2524720713877586 + 0.008845382650347377j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^R\+ normalization is not finite at x = "):
            r_plus(x, nome)
