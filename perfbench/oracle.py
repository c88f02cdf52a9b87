"""50-digit reference values for the eval-grid workload, computed with mpmath.

Usage: python3 perfbench/oracle.py SPEC.json OUT.json

SPEC is the list of eval operations (function, flag values, points) that
``workloads.EvalGridWorkload`` builds; OUT receives, per operation, the list
of reference values as complex-number strings.  Each formula takes a path
independent of the program's where one exists: theta from the triple-product
series instead of the product, its log-derivative as the ratio of two series,
snh from mpmath's Jacobi elliptic functions.  The flag values are parsed
from the exact text the CLI receives, so both sides see the same doubles.
"""

from __future__ import annotations

import json
import sys

import mpmath

mpmath.mp.dps = 50
_CUT = mpmath.mpf(10) ** -(mpmath.mp.dps + 10)


def _mp(text: str) -> mpmath.mpc:
    z = complex(text.replace(" ", ""))
    return mpmath.mpc(z.real, z.imag)


def _theta_terms(a: mpmath.mpc, x: mpmath.mpc):
    """Terms (n, (-1)^n a^(n(n-1)/2) x^n) of the triple-product series, from
    its largest term outward until they fall below 1e-60 of that term."""
    la, lx = mpmath.log(abs(a)), mpmath.log(abs(x))
    peak = int(mpmath.nint(0.5 - lx / la))
    log_top = (peak * (peak - 1) / 2) * la + peak * lx
    stop = log_top + mpmath.log(_CUT)
    for step in (1, -1):
        n = peak if step == 1 else peak - 1
        while True:
            log_mag = (n * (n - 1) / 2) * la + n * lx
            if log_mag < stop and (n - peak) * step > 2:
                break
            yield n, (-1) ** n * a ** (n * (n - 1) // 2) * x**n
            n += step


def theta(a, x):
    return mpmath.fsum(t for _, t in _theta_terms(a, x))


def log_deriv_theta(a, x):
    """x d/dx log theta_a(x) = sum n c_n x^n / sum c_n x^n."""
    terms = list(_theta_terms(a, x))
    return mpmath.fsum(n * t for n, t in terms) / mpmath.fsum(t for _, t in terms)


def tau(q, x):
    q4 = q**4
    return theta(q4, x * x * q) / (x * theta(q4, q / (x * x)))


def exchange_F(m, p, q, x):
    th = lambda y: theta(q**4, y)  # noqa: E731
    x2, q2 = x * x, q * q
    out = mpmath.mpc(1)
    if m > 0:
        for s in range(1, 2 * m + 1):
            ps = p**s
            out *= th(x2 * q2 / ps) * th(q2 * ps / x2) / (q * th(ps / x2) * th(x2 / ps))
    else:
        for s in range(0, 2 * -m):
            ps = p**s
            out *= q * th(x2 * ps) * th(1 / (x2 * ps)) / (th(x2 * q2 * ps) * th(q2 / (x2 * ps)))
    return out


def exchange_Y(m, p, q, x):
    th = lambda y: theta(q**4, y)  # noqa: E731
    x2, q2 = x * x, q * q
    upper = 2 * m - 1 if m > 0 else -2 * m
    inner = mpmath.mpc(1)
    for s in range(1, upper + 1):
        ps = p**s
        inner *= x2 * th(ps / x2) * th(x2 * q2 * ps) / (th(x2 * ps) * th(q2 * ps / x2))
    return inner * inner


def series_g(q, x):
    a = x * x
    b = 1 / a
    q2, q4 = q * q, q**4
    total = a / (1 - a) - b / (1 - b)
    t = mpmath.mpc(1)
    while abs(t) * (abs(a) + abs(b)) > _CUT:
        total += (
            -2 * a * t / (1 - a * t) + 2 * a * t * q2 / (1 - a * t * q2)
            + 2 * b * t / (1 - b * t) - 2 * b * t * q2 / (1 - b * t * q2)
        )
        t *= q4
    return total


def center(q, x):
    q4, q2, x2 = q**4, q * q, x * x
    L = lambda y: log_deriv_theta(q4, y)  # noqa: E731
    return -2 * mpmath.log(q) * (L(q2 * x2) + L(1 / x2) - L(q2 / x2) - L(x2))


def snh(u, k):
    return -1j * mpmath.ellipfun("sn", 1j * mpmath.mpf(u), m=mpmath.mpf(k) ** 2)


def reference(op: dict) -> list[str]:
    fn, prm = op["fn"], op["params"]
    if fn == "snh":
        return [repr(complex(snh(float(prm["u"]), float(prm["modulus"]))))]
    if fn == "theta":
        f = lambda x: theta(_mp(prm["a"]), x)  # noqa: E731
    elif fn == "tau":
        f = lambda x: tau(_mp(prm["q"]), x)  # noqa: E731
    elif fn in ("F", "Y"):
        impl = exchange_F if fn == "F" else exchange_Y
        f = lambda x: impl(int(prm["m"]), _mp(prm["p"]), _mp(prm["q"]), x)  # noqa: E731
    elif fn == "g":
        f = lambda x: series_g(_mp(prm["q"]), x)  # noqa: E731
    elif fn == "center":
        f = lambda x: center(_mp(prm["q"]), x)  # noqa: E731
    else:
        raise ValueError(f"no oracle for {fn!r}")
    return [repr(complex(f(_mp(x)))) for x in op["x"]]


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path) as f:
        spec = json.load(f)
    values = [reference(op) for op in spec]
    with open(out_path, "w") as f:
        json.dump(values, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
