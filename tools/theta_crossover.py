"""Sweep theta's two paths against mpmath, band by band in |a|.

    python3 tools/theta_crossover.py [--points N] [--seed S] [--bands B] [--json FILE]

Draws N seeded points (default 2400, seed 1): |a| uniform in [0.05, 0.99],
a fifth of the phases within 0.05 of pi and the rest uniform, |x|
log-uniform in [0.1, 10], and a sixth of the points within relative
1e-7 .. 1e-4 of a zero a^n.  Each point is evaluated by the product
(``_product_theta``, under a cap that lets it reach its tail) and by the
dual nome (``_dual_theta``), whatever ``_CROSSOVER`` says, and both are
compared with ``tests/mp_oracle.py``'s theta: the Jacobi triple-product
series summed by mpmath at 30 digits plus the digits its terms cancel.  The
error of a point is its relative error over its condition, 1 / (relative
distance to the nearest zero), floored at 1.

The points are sorted by |a| and cut into B bands of equal count; each band
prints its |a| range, the median and worst error of each path, the median
time per call of each (a base of its own per call, and for the dual a base
at an a it has not met, as each verify point takes it), and the median over
its points of the dual's time over the product's.  The last line is the
least band edge from which on the dual's worst error is no worse than the
product's in every band, and the least from which on the dual is also no
slower (that median ratio at most 1).  ``_CROSSOVER`` in src/ellex/qseries.py,
0.76, is the larger of the two as the sweep at the default arguments
printed it when the dual nome came in; since the dual's exponent is formed
in fixed point the sweep prints a lower edge (0.672, BENCH_33.json), and the
constant is kept so that every input keeps its path.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
import mp_oracle  # noqa: E402
from ellex import qseries  # noqa: E402
from ellex.errors import EllexError  # noqa: E402

# the two paths, each with a base of its own per call: the product under a
# cap that lets it reach its tail at every |a| <= 0.99, the dual under the
# default policy
PATHS = (("product", qseries._product_theta, qseries.TruncationPolicy(max_terms=1 << 14)),
         ("dual", qseries._dual_theta, qseries.DEFAULT_POLICY))


def draw(rng: random.Random) -> tuple[complex, complex]:
    """One point as the module docstring describes it."""
    modulus = rng.uniform(0.05, 0.99)
    if rng.random() < 0.2:
        phase = math.pi + rng.uniform(-0.05, 0.05)
    else:
        phase = rng.uniform(-math.pi, math.pi)
    a = cmath.rect(modulus, phase)
    if rng.random() < 1 / 6:
        powers = [n for n in range(-3, 4) if 0.1 <= modulus**n <= 10.0]
        delta = math.exp(rng.uniform(math.log(1e-7), math.log(1e-4)))
        return a, a ** rng.choice(powers) * (1.0 + cmath.rect(delta, rng.uniform(0, 2 * math.pi)))
    return a, cmath.rect(math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
                         rng.uniform(0.0, 2.0 * math.pi))


def per_call(path, policy, a: complex, x: complex, repeat: int = 5) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        path(x, qseries._Base(a, a, policy))
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2400)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bands", type=int, default=24)
    parser.add_argument("--json", help="also write the bands and the crossover here")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    rows = []
    for _ in range(args.points):
        a, x = draw(rng)
        cond = max(1.0, 1.0 / mp_oracle.zero_distance(a, x))
        ref = complex(mp_oracle.theta(a, x))
        row = {"a": abs(a)}
        for name, path, policy in PATHS:
            try:
                row[name] = abs(path(x, qseries._Base(a, a, policy)) - ref) / abs(ref) / cond
                row[name + "_us"] = per_call(path, policy, a, x) * 1e6
            except EllexError as exc:
                row[name] = math.inf
                row[name + "_us"] = math.inf
                row[name + "_error"] = type(exc).__name__
        rows.append(row)
    rows.sort(key=lambda r: r["a"])
    size = len(rows) // args.bands
    bands = []
    print(f"{'|a| from':>9} {'to':>7}  {'product':>19}  {'dual':>19}  {'us/call':>13} "
          f"{'ratio':>6}")
    for i in range(args.bands):
        part = rows[i * size: (i + 1) * size if i < args.bands - 1 else len(rows)]
        band = {"from": part[0]["a"], "to": part[-1]["a"], "points": len(part)}
        for name in ("product", "dual"):
            errors = [r[name] for r in part]
            band[name + "_median"] = statistics.median(errors)
            band[name + "_worst"] = max(errors)
            band[name + "_us"] = statistics.median(r[name + "_us"] for r in part)
        # each point times both paths back to back, so their ratio is what a
        # load on the machine moves least
        band["time_ratio"] = statistics.median(r["dual_us"] / r["product_us"] for r in part)
        bands.append(band)
        print(f"{band['from']:9.4f} {band['to']:7.4f}  "
              f"{band['product_median']:.2e} {band['product_worst']:.2e}  "
              f"{band['dual_median']:.2e} {band['dual_worst']:.2e}  "
              f"{band['product_us']:6.1f} {band['dual_us']:6.1f} {band['time_ratio']:6.2f}")

    def least_edge(holds) -> float:
        edge = None
        for band in reversed(bands):
            if not holds(band):
                break
            edge = band["from"]
        return edge if edge is not None else math.inf

    accurate = least_edge(lambda b: b["dual_worst"] <= b["product_worst"])
    fast = least_edge(lambda b: b["time_ratio"] <= 1.0)
    print(f"dual no worse from |a| = {accurate:.4f}, no slower from |a| = {fast:.4f}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "points": args.points, "bands": bands,
             "no_worse_from": accurate, "no_slower_from": fast}, indent=1) + "\n")


if __name__ == "__main__":
    main()
