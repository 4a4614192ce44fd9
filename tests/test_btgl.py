import math
from collections import Counter

import pytest

from zipzeta import BTParams, NotPrime, bt_datum, bt_strata, bt_zeta


def gaussian_binomial(h, d):
    """[h choose d]_t as integer coefficient list, by the Pascal rule
    G(h,d) = G(h-1,d-1) + t^d G(h-1,d)."""
    if d < 0 or d > h:
        return [0]
    if d == 0 or d == h:
        return [1]
    left = gaussian_binomial(h - 1, d - 1)
    right = gaussian_binomial(h - 1, d)
    out = [0] * (d * (h - d) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + d] += c
    return out


def test_params_validation():
    for h, d, p, n in [(0, 0, 2, 1), (2, -1, 2, 1), (2, 3, 2, 1),
                       (2, 1, 2, 0), (2, 1, 2, -1), (True, False, 2, 1),
                       (2, True, 2, 1), (2, 1, 2, True)]:
        with pytest.raises(ValueError):
            BTParams(h, d, p, n)
    for p in (1, 4, 6, 9):
        with pytest.raises(NotPrime):
            BTParams(2, 1, p)
    BTParams(2, 1, 2, 10)


@pytest.mark.parametrize("change, error, message", [
    ({"p": 4}, NotPrime, "4 = 2 * 2 is not a prime"),
    ({"d": 3}, ValueError, "dimension must lie between 0 and the height"),
    ({"h": 0, "d": 0}, ValueError, "height must be a positive integer"),
    ({"n": True}, ValueError, "truncation level must be a positive integer"),
])
def test_params_validated_however_built(change, error, message):
    # The same checks run positionally, by keyword and through _replace.
    base = BTParams(2, 1, 2)
    fields = dict(base._asdict(), **change)
    for build in (lambda: BTParams(*fields.values()),
                  lambda: BTParams(**fields),
                  lambda: base._replace(**change)):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message
    assert base._replace(n=3) == BTParams(2, 1, 2, 3)


def test_height_one():
    for d in (0, 1):
        strata = bt_strata(BTParams(1, d, 2))
        assert len(strata) == 1
        assert (strata[0].aut_dim, strata[0].degree) == (0, 1)
        assert bt_zeta(BTParams(1, d, 2)).to_str(q=2) == "1/(1 - t)"


def test_edge_dimensions():
    for d in (0, 3):
        z = bt_zeta(BTParams(3, d, 5))
        assert z.to_str(q=5) == "1/(1 - t)"


def test_frozen_displays():
    assert bt_zeta(BTParams(2, 1, 2)).to_str(q=2) == \
        "1/((1 - t) (1 - t/2))"
    assert bt_zeta(BTParams(3, 1, 2)).to_str(q=2) == \
        "1/((1 - t) (1 - t/2) (1 - t/4))"
    assert bt_zeta(BTParams(2, 1, 3)).to_str(q=3) == \
        "1/((1 - t) (1 - t/3))"
    assert bt_zeta(BTParams(2, 1, 2)).to_str() == \
        "1/((1 - t) (1 - q^-1 t))"


def test_symmetric_in_dimension():
    for h in range(1, 6):
        for d in range(h + 1):
            a = bt_zeta(BTParams(h, d, 2))
            b = bt_zeta(BTParams(h, h - d, 2))
            assert a == b


def _invariants(strata):
    """What a stratum is, independent of the datum object it came from."""
    return [(s.rep.w.perm, s.rep.omega, s.length, s.aut_dim, s.degree,
             s.size) for s in strata]


def test_level_independence():
    for n in (1, 2, 3, 10):
        assert bt_zeta(BTParams(3, 2, 2, n)) == bt_zeta(BTParams(3, 2, 2))
        assert _invariants(bt_strata(BTParams(4, 2, 3, n))) == \
            _invariants(bt_strata(BTParams(4, 2, 3)))


def test_datum_shape():
    d = bt_datum(BTParams(4, 2, 3))
    assert d.rs.rank == 3
    assert d.parabolic_type == frozenset({1, 3})
    assert d.q == 3
    assert d.flag_dim == 4
    full = bt_datum(BTParams(3, 0, 2))
    assert full.parabolic_type == frozenset({1, 2})
    assert full.flag_dim == 0


def test_kraft_count():
    for h, d in ((1, 0), (4, 2), (5, 2), (6, 3)):
        assert len(bt_strata(BTParams(h, d, 2))) == math.comb(h, d)


def test_lengths_follow_gaussian_binomial():
    for h in range(1, 7):
        for d in range(h + 1):
            strata = bt_strata(BTParams(h, d, 2))
            hist = Counter(s.length for s in strata)
            expected = gaussian_binomial(h, d)
            assert hist == {i: c for i, c in enumerate(expected) if c}
            assert all(s.aut_dim == d * (h - d) - s.length
                       for s in strata)


def test_strata_have_singleton_classes():
    strata = bt_strata(BTParams(4, 1, 2))
    assert all(s.size == 1 and s.degree == 1 for s in strata)
    assert len(strata) == math.comb(4, 1)


def test_closed_form_beyond_classify():
    # bt_zeta builds no representative, so it reaches heights where
    # classifying would mean listing thousands of them.
    for h in range(1, 13):
        for d in range(h + 1):
            zeta = bt_zeta(BTParams(h, d, 2))
            aut_dims = Counter()
            for (a, f), m in zeta.factor_items():
                assert f == 1
                aut_dims[a] += m
            expected = gaussian_binomial(h, d)
            assert aut_dims == {d * (h - d) - length: c
                                for length, c in enumerate(expected)}
