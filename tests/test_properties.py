from hypothesis import example, given, settings, strategies as st

from zipzeta import (QLaurent, WeylElement, ZetaProduct, ZipDatum, classify,
                     zeta_from_strata)
from zipzeta.extweyl import DiagramAutomorphism
from zipzeta.zipstrata import zeta_function
from zipzeta.fforacle import (FqField, _verify_admissible, enumerate_gl,
                              mat_mul, twisted_action)
from helpers import (candidates_by_scan, coded_pair, flip_ext,
                     group, minus_one_ext, reference_point_counts,
                     reference_series, signed_flip_ext, swap_ext, tables,
                     trivial_ext)

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
           ("D", 4), ("A1xA1", 2), ("G", 2)]


@st.composite
def system_with_subsets(draw):
    fam, rank = draw(st.sampled_from(SYSTEMS))
    t = tables(fam, rank)
    I = frozenset(draw(st.sets(st.integers(1, rank))))
    J = frozenset(draw(st.sets(st.integers(1, rank))))
    return t, I, J


@settings(deadline=None)
@given(system_with_subsets())
def test_coset_factorization(data):
    t, I, J = data
    for w in t.min_left(I):
        x, w_J = t.decompose_left(w, I, J)
        assert x * w_J == w
        assert x.length + w_J.length == w.length
        assert t.is_min_left(x, I) and t.is_min_right(x, J)
        assert t.in_parabolic(w_J, J)


@settings(deadline=None)
@given(system_with_subsets())
def test_coset_orders_multiply(data):
    t, I, _ = data
    inside = sum(1 for w in group(t) if t.in_parabolic(w, I))
    assert len(t.min_left(I)) * inside == len(t)


@settings(deadline=None)
@given(st.sampled_from(SYSTEMS), st.data())
def test_closed_form_zeta_matches_the_stratification(spec, data):
    """Split data take the Poincare-polynomial route; the enumeration is
    the reference."""
    rs = tables(*spec).rs
    I = data.draw(st.sets(st.integers(1, rs.rank)))
    datum = ZipDatum(rs.cartan, I)
    assert zeta_function(datum).factors == \
        zeta_from_strata(classify(datum)).factors


@settings(deadline=None)
@given(st.sampled_from(SYSTEMS), st.data())
def test_reflections_are_involutions(spec, data):
    t = tables(*spec)
    rs = t.rs
    i = data.draw(st.integers(1, rs.rank))
    k = data.draw(st.integers(0, 2 * rs.n_positive - 1))
    perm = rs.reflection_perm(i)
    assert perm[perm[k]] == k
    assert perm[rs.negate_ordinal(k)] == rs.negate_ordinal(perm[k])


@settings(deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(1, 4)),
                       st.integers(1, 60), min_size=1, max_size=4),
       st.sampled_from([None, 2, 3, 7]), st.integers(0, 8))
@example({(0, 1): 60}, None, 8)
@example({(0, 1): 60, (1, 1): 60, (3, 2): 60}, None, 8)
@example({(0, 2): 3, (2, 3): 2, (1, 1): 1}, None, 8)
@example({(0, 2): 3, (2, 3): 2, (1, 1): 1}, 3, 8)
@example({(1, 3): 2, (0, 4): 1, (2, 2): 5}, None, 7)
@example({(1, 3): 2, (0, 4): 1, (2, 2): 5}, 7, 7)
def test_series_routes_always_agree(factors, q, order):
    """Both routes and the point counts against the reference expansion:
    the decoder and the digit width are shared by the routes, so only
    the reference can catch a fault there.  The examples mix factors of
    degree f >= 2 at orders that no f divides, where each running sum of
    the exp route starts late and stops between its steps."""
    z = ZetaProduct(factors)
    expected = reference_series(z, order, q)
    assert plain(z.series_product(order, q)) == expected
    assert plain(z.series_exp(order, q)) == expected
    nv = reference_point_counts(expected)
    assert plain(z.n_value(v, q) for v in range(1, order + 1)) == nv[1:]


def plain(values):
    """Symbolic values as the {exponent: int} dicts reference_series
    uses, after checking that they hold only nonzero ints."""
    out = []
    for value in values:
        if isinstance(value, QLaurent):
            assert all(type(c) is int and c for c in value.coeffs.values())
            value = value.coeffs
        out.append(value)
    return out


EXT_POOL = [
    (swap_ext, 2), (minus_one_ext, 1), (flip_ext, 2),
    (lambda: trivial_ext("B", 2), 2), (signed_flip_ext, 3),
]


@settings(deadline=None)
@given(st.sampled_from(EXT_POOL), st.data())
def test_extended_length_additive_and_nonnegative(pool_entry, data):
    make, rank = pool_entry
    ext = make()
    I = frozenset(data.draw(st.sets(st.integers(1, rank))))
    J = frozenset(data.draw(st.sets(st.integers(1, rank))))
    reps = ext.min_reps(I)
    a = data.draw(st.sampled_from(reps))
    dec = ext.canonical_decomposition(a, I, J)
    x = ext.element(ext.twist_weyl(dec.omega_index, dec.y), dec.omega_index)
    total = ext.extended_length(a, I, J)
    assert total >= 0
    assert total == ext.extended_length(x, I, J) + dec.w_J.length
    back = x * ext.element(dec.w_J, ext.omega.identity_index)
    assert back == a


def test_identity_component_twist_equals_the_element():
    """Elements are values: conjugating a copy of w by the identity
    component, or by the identity diagram automorphism, gives an element
    equal to w that hashes alike."""
    for make, _ in EXT_POOL:
        ext = make()
        t = ext.tables
        k = ext.omega.identity_index
        same = DiagramAutomorphism.identity(ext)
        for w in group(t):
            fresh = WeylElement(t.rs, t.rs.perm_type(list(w.perm)))
            for got in (ext.twist_weyl(k, fresh), same.apply_weyl(fresh)):
                assert got == w and hash(got) == hash(w)


FIELDS = [(2, 1), (3, 1), (2, 2)]


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(FIELDS), st.integers(0, 2), st.data())
def test_census_action_properties(spec, d, data):
    F = FqField(*spec)
    h = 2
    pairs = candidates_by_scan(F, h, d)
    gl = enumerate_gl(F, h)
    X = data.draw(st.sampled_from(pairs))
    g = data.draw(st.sampled_from(gl))
    gp = data.draw(st.sampled_from(gl))
    image = twisted_action(F, g, X)
    coded = coded_pair(F, image)
    _verify_admissible(F.row_tables(h), d, coded[:h], [coded[h:]])
    assert twisted_action(F, g, twisted_action(F, gp, X)) == \
        twisted_action(F, mat_mul(F, g, gp), X)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_prime_field_matches_modular_arithmetic(p, data):
    F = FqField(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    assert F.add(a, b) == (a + b) % p
    assert F.mul(a, b) == (a * b) % p
    assert F.neg(a) == (-a) % p
    assert F.frob(a) == pow(a, p, p) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1


DATA_POOL = [
    lambda: ZipDatum([[2, 0], [0, 2]], [1],
                     omega={"elements": ["1", "sigma"],
                            "table": [[0, 1], [1, 0]],
                            "diagram_action": {"1": [1, 2],
                                               "sigma": [2, 1]}},
                     theta=["1"]),
    lambda: ZipDatum([[2, 0], [0, 2]], [],
                     omega={"elements": ["1", "sigma"],
                            "table": [[0, 1], [1, 0]],
                            "diagram_action": {"1": [1, 2],
                                               "sigma": [2, 1]}},
                     theta=["1", "sigma"]),
    lambda: ZipDatum([[2, -1], [-1, 2]], [],
                     phi0={"diagram_perm": [2, 1]}),
    lambda: ZipDatum([[2, -1], [-1, 2]], [2]),
    lambda: ZipDatum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 3],
                     q0=3),
]


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(DATA_POOL))
def test_classification_invariants(make):
    datum = make()
    strata = classify(datum)
    reps = datum.ext.min_reps(datum.parabolic_type)
    assert sum(s.size for s in strata) == len(reps)
    for s in strata:
        assert s.aut_dim >= 0
        assert s.aut_dim + s.length == datum.flag_dim
        assert s.degree >= 1 and s.size % s.degree == 0
        assert s.rep in s.elements
