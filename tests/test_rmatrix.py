"""Eight-vertex matrix tests: normalization factors, assembly, transposes,
and the crossing / nome-shift / Yang-Baxter identity checks."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex.elliptic import EllipticParams, NomeParams, baxter_entries, param_map
from ellex.errors import (
    DomainError,
    NearSingularity,
    NonConvergentBase,
    SingularMatrix,
    TruncationExceeded,
)
from ellex.exchange import shift_factor_F
from ellex.qseries import TruncationPolicy
from ellex.rmatrix import (
    check_crossing,
    check_pshift,
    check_ybe,
    kappa_inv,
    mu_inv,
    partial_transpose,
    pshift_scalar,
    r_plus,
    rmatrix_inverse,
    tau_fn,
    tau_fn_pochhammer,
)

NOME = NomeParams(0.0278640785937287, -0.4077049890725035)  # modulus 0.6, lambda 1.0


def eight_vertex(a, b, c, d, scale=1.0):
    """The eight-vertex layout (rows/cols ++, +-, -+, --) times scale."""
    return scale * np.array(
        [[a, 0, 0, d], [0, b, c, 0], [0, c, b, 0], [d, 0, 0, a]], dtype=complex
    )


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


@pytest.mark.parametrize("p", [1.0, -1.2, 0.9j + 0.5])
def test_kappa_inv_rejects_nome_outside_disk(p):
    with pytest.raises(NonConvergentBase):
        kappa_inv(1.21, p, 0.4)


def test_mu_inv_finite_nonzero_on_grid():
    for x in (0.55, 0.8, 1.1 + 0.2j, 1.9):
        v = mu_inv(x, 0.2, 0.4)
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        assert abs(v) > 0


# --- assembly ----------------------------------------------------------------


def test_r_plus_degenerates_to_permutation_at_x_one():
    # the entries collapse to the permutation pattern a = c = 1, b = d = 0 as
    # x -> 1, while the scalar normalization has a simple pole there (the tau
    # denominator theta_{q^4}(x^2) vanishes at x = 1), so r_plus(1) reports it
    with pytest.raises(NearSingularity):
        r_plus(1.0, NOME)
    r = r_plus(1.0 + 1e-4, NOME)
    a, b, c, d = r[0, 0], r[1, 1], r[1, 2], r[0, 3]
    assert abs(b / a) < 1e-3 and abs(d / a) < 1e-3
    assert abs(c / a - 1.0) < 1e-3


def test_r_plus_sparsity_exact():
    r = r_plus(1.23 + 0.1j, NOME)
    assert isinstance(r, np.ndarray) and r.shape == (4, 4) and r.dtype == complex
    forbidden = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
    assert all(r[i, j] == 0 for i, j in forbidden)
    assert np.count_nonzero(r) == 8


def test_r_plus_two_path_assembly():
    # entries from the u-space elliptic path, normalization from the q-series path
    ep = EllipticParams(0.6, 1.0, 0.35)
    nome, x = param_map(ep)
    a, b, c, d = baxter_entries(ep)
    scale = tau_fn(cmath.sqrt(nome.q) / x, nome.q) * mu_inv(x, nome.p, nome.q)
    independent = eight_vertex(a, b, c, d, scale)
    direct = r_plus(x, nome)
    assert np.max(np.abs(independent - direct)) < 1e-10


# --- transposes and inversion --------------------------------------------------


@given(
    st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=16,
        max_size=16,
    )
)
@settings(max_examples=25, deadline=None)
def test_partial_transpose_involutive_and_composes(vals):
    m = np.array(vals, dtype=complex).reshape(4, 4)
    for slot in (1, 2):
        twice = partial_transpose(partial_transpose(m, slot), slot)
        assert np.array_equal(twice, m)
    both = partial_transpose(partial_transpose(m, 1), 2)
    assert np.array_equal(both, m.T)


def test_partial_transpose_on_r_plus():
    r = r_plus(1.2 + 0.3j, NOME)
    both = partial_transpose(partial_transpose(r, 1), 2)
    assert np.max(np.abs(both - r.T)) == 0.0
    # symmetric layout: the two slot transposes coincide here
    assert np.max(np.abs(partial_transpose(r, 1) - partial_transpose(r, 2))) == 0.0


def test_inverse_reports_condition_and_rejects_singular():
    r = r_plus(1.2, NOME)
    inv, cond = rmatrix_inverse(r)
    assert np.max(np.abs(inv @ r - np.eye(4))) < 1e-12
    assert cond > 1.0
    singular = eight_vertex(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(SingularMatrix):
        rmatrix_inverse(singular)


@pytest.mark.parametrize("shape", [(3, 3), (2, 8), (16,), (4, 4, 1)])
def test_matrix_functions_reject_non_4x4(shape):
    bad = np.ones(shape, dtype=complex)
    with pytest.raises(DomainError):
        partial_transpose(bad, 1)
    with pytest.raises(DomainError):
        rmatrix_inverse(bad)


# --- identity checks -----------------------------------------------------------


def test_crossing_residual_small():
    err, scale, cond = check_crossing(1.17 + 0.21j, NOME)
    assert err < 1e-12
    assert 0.0 < scale < np.inf and 1.0 <= cond < 1e12


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
    assert err < 1e-12 and 0.0 < scale < np.inf
    # F(x) of the matrix relation equals the exchange module's four-tau product
    f_here = pshift_scalar(x, NOME)
    f_other = shift_factor_F(x, NOME)
    assert abs(f_here - f_other) <= 1e-12 * abs(f_here)
    assert f_here * (1.0 / f_here) == pytest.approx(1.0, abs=1e-12)


def test_ybe_residual_generic():
    err, scale = check_ybe(1.15, 0.9, NOME)
    assert err < 1e-11 and 0.0 < scale < np.inf


def test_ybe_degenerate_point_consistency():
    # at x = 1 the inner matrix is the slot permutation and the relation
    # P12 R13(y) R23(y) = R23(y) R13(y) P12 holds exactly; the normalized
    # matrix itself is on its x = 1 pole and reports NearSingularity
    with pytest.raises(NearSingularity):
        check_ybe(1.0, 0.85, NOME)
    perm = eight_vertex(1.0, 0.0, 1.0, 0.0)
    ry = r_plus(0.85, NOME)
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
