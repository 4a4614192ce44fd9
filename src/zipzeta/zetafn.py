"""Exact zeta arithmetic.

A zeta function here is a finite product of factors

    1 / (1 - (q^-a t)^f)

with integer multiplicities, collected from the strata invariants
(aut_dim a, degree f).  Everything is exact: coefficients are rational
numbers, and the symbolic-q form is a Laurent polynomial in q with
rational coefficients.

The series expansion is computed two independent ways and compared:
once by multiplying the factor series, and once through the point
counts N_v = sum of degree * q^(-a*v) over factors with f dividing v,
via exp(sum_v N_v t^v / v).  The t^v / v weighting is the normalization
used throughout this package.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleEvaluation


class QLaurent:
    """Laurent polynomial in one symbol with Fraction coefficients,
    stored sparsely as exponent -> coefficient with no zero entries."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[int(exp)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def term(cls, exp, coeff=1):
        return cls({exp: Fraction(coeff)})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QLaurent.term(0, other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.term(0, other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return QLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.term(0, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QLaurent({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QLaurent(out)

    __rmul__ = __mul__

    def evaluate(self, q):
        q = Fraction(q)
        return sum((c * q ** e for e, c in self.coeffs.items()), Fraction(0))

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    def to_str(self, symbol="q"):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            if e == 0:
                parts.append(str(c))
            else:
                power = symbol if e == 1 else f"{symbol}^{e}"
                parts.append(power if c == 1 else f"{c} {power}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QLaurent({self.to_str()})"


def _ring_constants(q):
    if q is None:
        return QLaurent.zero(), QLaurent.one()
    return Fraction(0), Fraction(1)


def _q_power(q, exp):
    """q**exp in the active ring, exp any integer."""
    if q is None:
        return QLaurent.term(exp)
    return Fraction(q) ** exp


class ZetaProduct:
    """Finite product of factors 1/(1 - (q^-a t)^f) with
    multiplicities, keyed by (a, f)."""

    def __init__(self, factors):
        clean = {}
        for (a, f), mult in factors.items():
            a, f, mult = int(a), int(f), int(mult)
            if f < 1 or mult < 0 or a < 0:
                raise ValueError(f"bad factor ({a},{f}) x {mult}")
            if mult:
                clean[(a, f)] = clean.get((a, f), 0) + mult
        self.factors = clean

    def factor_items(self):
        return sorted(self.factors.items())

    def __eq__(self, other):
        return isinstance(other, ZetaProduct) and self.factors == other.factors

    def n_value(self, v, q=None):
        """Point count N_v: sum of f * q^(-a*v) over factors whose f
        divides v, with multiplicity."""
        zero, _ = _ring_constants(q)
        total = zero
        for (a, f), mult in self.factor_items():
            if v % f == 0:
                total = total + mult * f * _q_power(q, -a * v)
        return total

    def series_product(self, order, q=None):
        """Coefficients of t^0..t^order by expanding each factor."""
        zero, one = _ring_constants(q)
        series = [one] + [zero] * order
        for (a, f), mult in self.factor_items():
            factor = [zero] * (order + 1)
            k = 0
            while f * k <= order:
                coeff = math.comb(k + mult - 1, mult - 1)
                factor[f * k] = coeff * _q_power(q, -a * f * k)
                k += 1
            out = [zero] * (order + 1)
            for i, ci in enumerate(series):
                if not ci:
                    continue
                for j in range(0, order + 1 - i):
                    cj = factor[j]
                    out[i + j] = out[i + j] + ci * cj
            series = out
        return series

    def series_exp(self, order, q=None):
        """Coefficients of t^0..t^order via exp of the weighted point
        counts: the coefficient recurrence of exp(sum_v N_v t^v / v)."""
        zero, one = _ring_constants(q)
        nv = [zero] + [self.n_value(v, q) for v in range(1, order + 1)]
        series = [one] + [zero] * order
        for k in range(1, order + 1):
            acc = zero
            for j in range(1, k + 1):
                acc = acc + nv[j] * series[k - j]
            series[k] = acc * Fraction(1, k)
        return series

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


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated power series in t; coefficient i multiplies t^i."""

    coefficients: tuple
    order: int
    q: object


def expand_series(zeta, order, q=None):
    """Expand to the given order, computing the product form and the
    exponential point-count form independently and insisting they
    agree.  Raises ValueError on a negative order."""
    if order < 0:
        raise ValueError(f"series order {order} is negative")
    by_product = zeta.series_product(order, q)
    by_exp = zeta.series_exp(order, q)
    assert by_product == by_exp, "series routes disagree"
    assert by_product[0] == (1 if q is not None else QLaurent.one())
    return SeriesExpansion(tuple(by_product), order, q)
