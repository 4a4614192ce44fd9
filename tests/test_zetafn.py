import math
import re
import time
from collections import namedtuple
from fractions import Fraction

import pytest

from zipzeta import (BTParams, PoleEvaluation, QLaurent, ZetaProduct,
                     ZipDatum, bt_zeta, classify, expand_series,
                     zeta_from_strata)
from zipzeta.cli import MAX_SERIES_ORDER

FakeStratum = namedtuple("FakeStratum", "aut_dim degree")

O4_FACTORS = {(0, 1): 2, (1, 1): 2}


def o4_zeta():
    return ZetaProduct(dict(O4_FACTORS))


def test_qlaurent_arithmetic():
    a = QLaurent({0: 1, -1: 1})
    b = QLaurent({0: 1, -1: 2})
    assert a * b == QLaurent({0: 1, -1: 3, -2: 2})
    assert 3 * a == a * 3 == QLaurent({0: 3, -1: 3})
    assert (0 * a).coeffs == {}
    assert a * QLaurent({}) == QLaurent({})
    assert a != 1 and a != {0: 1, -1: 1}


def test_qlaurent_rendering():
    v = QLaurent({0: 2, -1: 3})
    assert v.to_json() == {"-1": "3", "0": "2"}
    assert v.to_str() == "2 + 3 q^-1"
    assert QLaurent({1: 1}).to_str() == "q"
    assert QLaurent({2: 5}).to_str() == "5 q^2"
    assert QLaurent({}).to_str() == "0"
    assert repr(v) == "QLaurent(2 + 3 q^-1)"


def test_decoded_coefficients_are_sparse_ints():
    """Decoding yields dicts of plain ints with no zero entries, however
    many digits of a code are zero."""
    z = ZetaProduct({(0, 2): 3, (4, 3): 2, (1, 1): 1})
    values = list(expand_series(z, 9).coefficients)
    values += [z.n_value(v) for v in range(1, 10)]
    for value in values:
        assert type(value.coeffs) is dict
        assert all(type(e) is int and type(c) is int and c > 0
                   for e, c in value.coeffs.items())
    assert z.n_value(5).coeffs == {-5: 1}
    assert ZetaProduct({(1, 2): 1}).n_value(3).coeffs == {}


def test_zeta_rejects_bad_factors():
    for bad in ({(0, 0): 1}, {(1, -1): 1}, {(-1, 1): 1}, {(0, 1): -2}):
        with pytest.raises(ValueError):
            ZetaProduct(bad)


@pytest.mark.parametrize("factors", [
    {(1.9, 1): 1}, {(1, 2.0): 1}, {(0, 1): 2.5}, {(True, 1): 2},
    {(0, True): 1}, {(0, 1): True}, {(Fraction(1), 1): 1},
], ids=["float a", "float f", "float mult", "bool a", "bool f", "bool mult",
        "Fraction a"])
def test_zeta_refuses_non_integer_factors(factors):
    """Refused by name, not truncated by int()."""
    ((a, f), mult), = factors.items()
    with pytest.raises(ValueError, match=re.escape(
            f"bad factor ({a!r},{f!r}) x {mult!r}")):
        ZetaProduct(factors)


@pytest.mark.parametrize("v", [True, False, 1.5, 2.0, Fraction(2), "2"],
                         ids=repr)
def test_point_count_degree_must_be_an_int(v):
    for q in (None, 2):
        with pytest.raises(ValueError, match=re.escape(f"got {v!r}")):
            ZetaProduct({(1, 2): 1}).n_value(v, q)


@pytest.mark.parametrize("order", [True, False, 2.0, 1.5, Fraction(2), "2"],
                         ids=repr)
def test_series_order_must_be_an_int(order):
    for q in (None, 2):
        with pytest.raises(ValueError, match=re.escape(f"got {order!r}")):
            expand_series(o4_zeta(), order, q)


def test_zeta_drops_zero_multiplicity():
    z = ZetaProduct({(0, 1): 0, (1, 1): 1})
    assert z.factors == {(1, 1): 1}
    assert ZetaProduct({}).to_str() == "1"


def test_from_strata_merges_repeated_invariants():
    strata = [FakeStratum(0, 1), FakeStratum(0, 1), FakeStratum(1, 2)]
    z = zeta_from_strata(strata)
    assert z == ZetaProduct({(0, 1): 2, (1, 2): 1})
    assert z.factor_items() == [((0, 1), 2), ((1, 2), 1)]


def test_rendering_frozen():
    assert o4_zeta().to_str() == "1/((1 - t)^2 (1 - q^-1 t)^2)"
    assert o4_zeta().to_str(q=2) == "1/((1 - t)^2 (1 - t/2)^2)"
    assert ZetaProduct({(0, 1): 1}).to_str() == "1/(1 - t)"
    assert ZetaProduct({(2, 2): 1}).to_str() == "1/(1 - (q^-2 t)^2)"
    assert ZetaProduct({(2, 2): 1}).to_str(q=3) == "1/(1 - (t/9)^2)"


def test_geometric_series():
    exp = expand_series(ZetaProduct({(0, 1): 1}), 3, q=2)
    assert exp.coefficients == (1, 1, 1, 1)
    assert exp.order == 3 and exp.q == 2


def test_rank_one_series():
    strata = classify(ZipDatum([[2]], []))
    z = zeta_from_strata(strata)
    exp = expand_series(z, 2, q=2)
    assert exp.coefficients == (1, Fraction(3, 2), Fraction(7, 4))


def test_symbolic_series_frozen():
    exp = expand_series(o4_zeta(), 2)
    assert exp.coefficients == (QLaurent({0: 1}), QLaurent({0: 2, -1: 2}),
                                QLaurent({0: 3, -1: 4, -2: 3}))


def test_series_routes_agree_on_mixed_product():
    z = ZetaProduct({(0, 1): 2, (1, 2): 3, (2, 3): 1})
    assert z.series_product(8, q=5) == z.series_exp(8, q=5)
    assert z.series_product(6) == z.series_exp(6)
    expand_series(z, 8, q=5)


def test_series_multiplicity_expansion():
    z = ZetaProduct({(0, 1): 3})
    assert z.series_product(4, q=2) == [1, 3, 6, 10, 15]


def test_expand_series_rejects_negative_order():
    with pytest.raises(ValueError):
        expand_series(o4_zeta(), -1)
    with pytest.raises(ValueError):
        expand_series(o4_zeta(), -2, q=2)
    assert expand_series(o4_zeta(), 0).coefficients == (QLaurent({0: 1}),)


@pytest.mark.parametrize("v,mult", [(1, 1), (2, 2), (4, 4), (8, 8), (3, 5),
                                    (7, 9), (20, 5040)])
def test_point_count_at_its_coefficient_bound(v, mult):
    # Every factor of degree f = v, with one aut_dim: the one coefficient
    # of N_v is v M, the bound the symbolic radix is sized from, and at
    # a power of two (16, 64) a radix one bit short would carry.
    z = ZetaProduct({(2, v): mult})
    assert z.n_value(v) == QLaurent({-2 * v: v * mult})
    assert z.n_value(v, q=3) == Fraction(v * mult, 3 ** (2 * v))


def test_point_counts():
    z = ZetaProduct({(1, 2): 1})
    assert z.n_value(1, q=2) == 0
    assert z.n_value(2, q=2) == Fraction(1, 2)
    assert z.n_value(3) == QLaurent({})
    assert z.n_value(2) == QLaurent({-2: 2})
    assert o4_zeta().n_value(1) == QLaurent({0: 2, -1: 2})
    for bad_degree in (0, -1):
        with pytest.raises(ValueError):
            z.n_value(bad_degree)
    with pytest.raises(ValueError):
        z.n_value(2, q=Fraction(2))


@pytest.mark.parametrize("q", [1, 0, -3, True, False, Fraction(2), 2.0])
def test_numeric_q_must_be_a_field_size(q):
    z = ZetaProduct({(1, 1): 1})
    for call in (lambda: z.n_value(1, q), lambda: z.series_product(2, q),
                 lambda: z.series_exp(2, q)):
        with pytest.raises(ValueError, match="at least 2"):
            call()
    assert z.n_value(1, 2) == Fraction(1, 2)


def test_evaluate_and_poles():
    plain = ZetaProduct({(0, 1): 1})
    assert plain.evaluate(2, Fraction(1, 2)) == 2
    with pytest.raises(PoleEvaluation):
        plain.evaluate(2, 1)
    assert o4_zeta().evaluate(3, 2) == 9
    with pytest.raises(PoleEvaluation):
        o4_zeta().evaluate(3, 3)
    with pytest.raises(PoleEvaluation):
        o4_zeta().evaluate(3, 1)


def test_log_derivative_recurrence():
    z = ZetaProduct({(0, 1): 1, (1, 1): 2, (2, 2): 1})
    order = 7
    series = z.series_product(order, q=3)
    nv = [None] + [z.n_value(v, q=3) for v in range(1, order + 1)]
    for k in range(1, order + 1):
        lhs = k * series[k]
        rhs = sum(nv[j] * series[k - j] for j in range(1, k + 1))
        assert lhs == rhs


def test_symbolic_series_reaches_the_cap_quickly():
    """BT(6,3) has 20 strata of degree one, so at q = 1 its zeta is
    1/(1 - t)^20; its one stratum with aut_dim 9 makes q^(-9k) the
    lowest term of c_k, with coefficient 1."""
    zeta = bt_zeta(BTParams(6, 3, 2))
    start = time.monotonic()
    top = expand_series(zeta, MAX_SERIES_ORDER).coefficients[-1]
    assert time.monotonic() - start < 10.0
    assert sum(top.coeffs.values()) == math.comb(MAX_SERIES_ORDER + 19, 19)
    assert min(top.coeffs) == -9 * MAX_SERIES_ORDER
    assert top.coeffs[-9 * MAX_SERIES_ORDER] == 1
