"""Numerical structure functions of the elliptic eight-vertex exchange
algebra: certified q-series and theta products, the normalized eight-vertex
matrix and its identities, the exchange functions F(m, x) and Y(x) on the
constraint surface p^m = q^(c+2), their classical Poisson limits, and a
verification CLI that machine-checks every identity as a quantitative
statement.

Names are imported from their modules (``from ellex.qseries import theta``);
each module's ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
