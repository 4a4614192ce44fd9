"""Exact zeta arithmetic.

A zeta function here is a finite product of factors

    1 / (1 - (q^-a t)^f)

with integer multiplicities, collected from the strata invariants
(aut_dim a, degree f).  Each t^k coefficient c_k and each point count
N_v is a polynomial in q^-1 with nonnegative integer coefficients, so one
integer engine serves both rings: c_k is carried as z^(top*k) * c_k(1/z),
top the largest aut_dim, at z = q or, for symbolic q, at a power of two
whose digits are the coefficients (Kronecker substitution).  Decoding
gives a Fraction for numeric q and a QLaurent of ints for symbolic q.

The series expansion is computed two independent ways and compared:
once by dividing by the factors in turn, and once through the point
counts N_v = sum of degree * q^(-a*v) over factors with f dividing v,
via exp(sum_v N_v t^v / v), with one running sum per factor, so each
order costs one product per factor.  The t^v / v weighting is the
normalization used throughout this package.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import PoleEvaluation, _is_int


class QLaurent:
    """Laurent polynomial in q with nonnegative integer coefficients, as
    decoded, stored sparsely as exponent -> coefficient with no zero
    entries."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other):
        if isinstance(other, int):
            return QLaurent({e: c * other for e, c in self.coeffs.items()
                             if c * other})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QLaurent({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    def to_str(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            if e == 0:
                parts.append(str(c))
            else:
                power = "q" if e == 1 else f"q^{e}"
                parts.append(power if c == 1 else f"{c} {power}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QLaurent({self.to_str()})"


def _decode(code, shift, q, z):
    """code / z^shift: a Fraction for numeric q; for symbolic q, the
    QLaurent whose q^(i - shift) coefficient is base-z digit i of code,
    zero digits dropped, sliced from one binary string so decoding is
    linear in its size."""
    if q is not None:
        return Fraction(code, q ** shift)
    bits = z.bit_length() - 1
    n = code.bit_length() // bits + 1
    text = format(code, f"0{n * bits}b")
    digits = (int(text[(n - 1 - i) * bits:(n - i) * bits], 2)
              for i in range(n))
    return QLaurent({i - shift: d for i, d in enumerate(digits) if d})


class ZetaProduct:
    """Finite product of factors 1/(1 - (q^-a t)^f) with multiplicities,
    keyed by (a, f).  Point counts and series take q = None (symbolic)
    or an int of at least 2, a field size; any other q raises
    ValueError."""

    def __init__(self, factors):
        clean = {}
        for (a, f), mult in factors.items():
            if not (_is_int(a) and _is_int(f) and _is_int(mult)
                    and f >= 1 and mult >= 0 and a >= 0):
                raise ValueError(f"bad factor ({a!r},{f!r}) x {mult!r}")
            if mult:
                clean[(a, f)] = clean.get((a, f), 0) + mult
        self.factors = clean

    def factor_items(self):
        return sorted(self.factors.items())

    def __eq__(self, other):
        return isinstance(other, ZetaProduct) and self.factors == other.factors

    def _encoding(self, order, q):
        """(top, z): the largest aut_dim and the radix for t^0..t^order.
        Symbolic z is a power of two above bound: at q = 1, c_k <=
        comb(k + M - 1, k) and N_v <= v M (M = sum of multiplicities)."""
        top = max((a for a, _ in self.factors), default=0)
        if q is None:
            bound = order * math.comb(order + sum(self.factors.values()), order)
            return top, 1 << bound.bit_length() + 1
        if not (_is_int(q) and q >= 2):
            raise ValueError(f"numeric q must be an int of at least 2, "
                             f"got {q!r}")
        return top, q

    def _n_code(self, v, top, z):
        return sum(mult * f * z ** ((top - a) * v)
                   for (a, f), mult in self.factor_items() if v % f == 0)

    def n_value(self, v, q=None):
        """Point count N_v: sum of f * q^(-a*v) over factors whose f
        divides v, with multiplicity; v must be at least 1."""
        if not (_is_int(v) and v >= 1):
            raise ValueError(f"point count degree must be an int of at "
                             f"least 1, got {v!r}")
        top, z = self._encoding(v, q)
        return _decode(self._n_code(v, top, z), top * v, q, z)

    def series_product(self, order, q=None):
        """Coefficients of t^0..t^order, dividing 1 by each factor
        1 - (q^-a t)^f in turn."""
        top, z = self._encoding(order, q)
        series = [1] + [0] * order
        for (a, f), mult in self.factor_items():
            step = z ** ((top - a) * f)
            for _ in range(mult):
                for n in range(f, order + 1):
                    series[n] += step * series[n - f]
        return [_decode(c, top * k, q, z) for k, c in enumerate(series)]

    def series_exp(self, order, q=None):
        """Coefficients of t^0..t^order via exp of the weighted point
        counts, by the log-derivative recurrence k c_k = sum_j N_j c_(k-j)
        grouped by factor: a factor (a, f) of multiplicity mult adds
        mult * f * run[k], where run[k] = sum_(m>=1) (q^-a)^(f m) c_(k-f m)
        is kept as the running sum run[k] = step * (c_(k-f) + run[k-f])."""
        top, z = self._encoding(order, q)
        runs = [(mult * f, f, z ** ((top - a) * f), [0] * (order + 1))
                for (a, f), mult in self.factor_items()]
        series = [1] + [0] * order
        for k in range(1, order + 1):
            acc = 0
            for weight, f, step, run in runs:
                if k >= f:
                    run[k] = step * (series[k - f] + run[k - f])
                    acc += weight * run[k]
            series[k], rem = divmod(acc, k)
            assert rem == 0, f"t^{k} coefficient is not integral"
        return [_decode(c, top * k, q, z) for k, c in enumerate(series)]

    def evaluate(self, q, t):
        """Exact value at numeric q and t.  Raises PoleEvaluation when a
        factor vanishes."""
        q = Fraction(q)
        t = Fraction(t)
        value = Fraction(1)
        for (a, f), mult in self.factor_items():
            base = 1 - (t / q ** a) ** f
            if base == 0:
                raise PoleEvaluation(
                    f"factor with invariants ({a},{f}) vanishes at "
                    f"q={q}, t={t}")
            value *= base ** mult
        return 1 / value

    def to_str(self, q=None):
        pieces = []
        for (a, f), mult in self.factor_items():
            if a == 0:
                inner = "t"
            elif q is None:
                inner = f"q^-{a} t"
            else:
                inner = f"t/{q ** a}"
            base = f"({inner})^{f}" if f > 1 else inner
            piece = f"(1 - {base})"
            if mult > 1:
                piece += f"^{mult}"
            pieces.append(piece)
        if not pieces:
            return "1"
        if len(pieces) == 1:
            return "1/" + pieces[0]
        return "1/(" + " ".join(pieces) + ")"

    def __repr__(self):
        return f"ZetaProduct({self.to_str()})"


def zeta_from_strata(strata):
    """The zeta function of a stratification, as a factored product:
    one factor per stratum, keyed by (aut_dim, degree)."""
    return ZetaProduct(Counter((s.aut_dim, s.degree) for s in strata))


SeriesExpansion = namedtuple("SeriesExpansion", "coefficients order q")
SeriesExpansion.__doc__ = """Truncated power series in t; coefficient i
multiplies t^i."""


def expand_series(zeta, order, q=None):
    """Expand to the given order, computing the product form and the
    exponential point-count form independently and insisting they
    agree.  Raises ValueError unless order is a nonnegative int."""
    if not (_is_int(order) and order >= 0):
        raise ValueError(f"series order must be a nonnegative int, "
                         f"got {order!r}")
    by_product = zeta.series_product(order, q)
    by_exp = zeta.series_exp(order, q)
    assert by_product == by_exp, "series routes disagree"
    assert by_product[0] == (1 if q is not None else QLaurent({0: 1}))
    return SeriesExpansion(tuple(by_product), order, q)
