import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from zipzeta import (CosetTables, GroupTooLarge, MixedGroups, NotMinimalRep,
                     ZipDatum, build_root_system, cartan_matrix,
                     compute_twist, direct_sum, enumerate_group)
from zipzeta.weyl import WeylElement, compose, conjugate, invert
from helpers import from_word, group, min_double, subsets, system, tables


@pytest.mark.parametrize("family,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("A1xA1", 2, 4),
    ("B", 2, 8), ("B", 3, 48), ("D", 4, 192), ("G", 2, 12),
])
def test_group_orders(family, rank, order):
    assert len(tables(family, rank)) == order


def test_cap_raises(monkeypatch):
    # One constant bounds the whole group here and the minimal set in
    # ZipDatum.
    monkeypatch.setattr("zipzeta.weyl.DEFAULT_GROUP_CAP", 5)
    with pytest.raises(GroupTooLarge, match="24 elements, over the cap of 5"):
        enumerate_group(CosetTables(system("A", 3)))
    with pytest.raises(GroupTooLarge, match="has 24 minimal coset "
                                            "representatives, over the cap "
                                            "of 5$"):
        ZipDatum(system("A", 3).cartan, [])


def test_identity_and_simple_words():
    t = tables("A", 2)
    assert t.word(t.identity) == ()
    assert t.identity.length == 0
    for i in (1, 2):
        assert t.word(t.simple_reflection(i)) == (i,)


def test_longest_element():
    t = tables("A", 2)
    w0 = t.longest_element()
    assert w0.length == t.rs.n_positive == 3
    assert t.word(w0) == (1, 2, 1)
    assert w0 * w0 == t.identity


def test_length_is_inversion_count_and_word_length():
    for key in [("A", 3), ("B", 3)]:
        t = tables(*key)
        m = t.rs.n_positive
        for w in group(t):
            inversions = sum(1 for k in range(m) if w.perm[k] >= m)
            assert w.length == inversions == len(t.word(w))


def test_words_are_reduced_and_shortlex_least():
    t = tables("B", 2)
    for w in group(t):
        word = t.word(w)
        assert from_word(t, word) == w
        candidates = [c for c in itertools.product((1, 2), repeat=len(word))
                      if from_word(t, c) == w]
        assert word == min(candidates)


def test_element_order_is_by_length_then_word():
    t = tables("A", 3)
    keys = [(len(t.word(w)), t.word(w)) for w in group(t)]
    assert keys == sorted(keys)


def test_inverse_and_products():
    t = tables("B", 2)
    for w in group(t):
        assert w * w.inverse() == t.identity
        assert w.inverse().length == w.length
    s1, s2 = t.simple_reflection(1), t.simple_reflection(2)
    assert (s1 * s2) * s1 == s1 * (s2 * s1)


def test_mixed_groups_rejected():
    a = tables("A", 2).identity
    b = tables("B", 2).identity
    with pytest.raises(MixedGroups):
        a * b


def test_action_on_roots_matches_word():
    t = tables("A", 2)
    rs = t.rs
    w = from_word(t, (1, 2))
    image = w.act(rs.simple_root(2))
    by_steps = rs.reflect(1, rs.reflect(2, rs.simple_root(2)))
    assert image == by_steps


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("A1xA1", 2)])
def test_min_left_coset_sizes(family, rank):
    t = tables(family, rank)
    all_indices = range(1, t.rs.rank + 1)
    for I in subsets(all_indices):
        reps = t.min_left(I)
        subgroup = [w for w in group(t) if t.in_parabolic(w, I)]
        assert len(reps) * len(subgroup) == len(t)
        cosets = {frozenset((u * w).perm for u in subgroup) for w in reps}
        assert len(cosets) == len(reps)


def left_descents(t, w):
    """The i with l(s_i * w) < l(w), each length an inversion count."""
    return {i for i in range(1, t.rs.rank + 1)
            if (t.simple_reflection(i) * w).length < w.length}


@pytest.mark.parametrize("t", [
    tables("A", 3), tables("B", 3), tables("G", 2), tables("D", 4),
    CosetTables(build_root_system(direct_sum([[2]], cartan_matrix("A", 2))))],
    ids=["A3", "B3", "G2", "D4", "A1xA2"])
def test_is_min_left_is_its_definition(t):
    """No left descent in I, by the definition l(s_i * w) > l(w) for all
    i in I, on every element and every I."""
    parabolics = list(subsets(range(1, t.rs.rank + 1)))
    for w in group(t):
        descents = left_descents(t, w)
        for I in parabolics:
            assert t.is_min_left(w, I) == descents.isdisjoint(I)


def test_words_do_not_depend_on_request_order():
    rs = system("B", 4)
    elements = list(group(tables("B", 4)))
    canonical = CosetTables(rs)
    want = [canonical.word(w) for w in elements]
    shuffled = CosetTables(rs)
    order = list(range(len(elements)))
    random.Random(20).shuffle(order)
    got = {k: shuffled.word(elements[k]) for k in order}
    assert [got[k] for k in range(len(elements))] == want


def test_a_word_request_records_one_word():
    """w0 of A3 lies outside W^I for I = {1, 2}.  Its word is stripped
    through two suffixes outside W^I down to s3 * s2 * s1, whose word the
    search recorded, and only w0's own is kept."""
    t = CosetTables(system("A", 3))
    t.min_left({1, 2})
    w0 = t.longest_element()
    before = len(t._words)
    assert t.word(w0) == (1, 2, 1, 3, 2, 1)
    assert len(t._words) == before + 1
    assert t.word(w0) == (1, 2, 1, 3, 2, 1)
    assert len(t._words) == before + 1


def test_min_left_rejects_descent_elements():
    t = tables("A", 2)
    s1 = t.simple_reflection(1)
    assert not t.is_min_left(s1, {1})
    assert t.is_min_left(s1, {2})


def test_decompose_left_requires_minimality():
    t = tables("A", 2)
    with pytest.raises(NotMinimalRep):
        t.decompose_left(t.simple_reflection(1), {1}, {2})


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_decompose_left_unique_and_additive(family, rank):
    t = tables(family, rank)
    all_indices = range(1, t.rs.rank + 1)
    for I in subsets(all_indices):
        for J in subsets(all_indices):
            doubles = min_double(t, I, J)
            w_js = [w for w in group(t) if t.in_parabolic(w, J)]
            for w in t.min_left(I):
                x, w_J = t.decompose_left(w, I, J)
                assert x * w_J == w
                assert x.length + w_J.length == w.length
                assert x in doubles
                solutions = [
                    (x2, wj) for x2 in doubles for wj in w_js
                    if x2 * wj == w
                    and t.is_min_left(wj, t.induced_subset(x2, I, J))
                ]
                assert solutions == [(x, w_J)]


def test_double_cosets_partition_group():
    t = tables("A", 3)
    I, J = {1, 2}, {2, 3}
    union = set()
    for x in min_double(t, I, J):
        coset = {(u * x * v).perm
                 for u in group(t) if t.in_parabolic(u, I)
                 for v in group(t) if t.in_parabolic(v, J)}
        assert not (coset & union)
        union |= coset
    assert len(union) == len(t)


@pytest.mark.parametrize("family,rank,I,J", [
    ("A", 7, {1, 2, 3, 5, 6, 7}, {1, 2, 3, 5, 6, 7}),
    ("A", 4, (), {1, 3, 4}),
    ("B", 3, {1}, {2, 3}),
    ("D", 4, {2}, {1, 2, 3}),
])
def test_decompose_left_strips_each_element_once(monkeypatch, family, rank,
                                                 I, J):
    """Decomposing min_left(I) in its own order, each element costs at
    most one product by a simple reflection: the rest of its strip is a
    prefix already decomposed."""
    t = CosetTables(system(family, rank))
    reps = t.min_left(I)
    rep_ids = {id(w) for w in reps}
    simple_ids = {id(t.simple_reflection(i)) for i in range(1, rank + 1)}
    products = []
    multiply = WeylElement.__mul__

    def counted(self, other):
        if id(self) in rep_ids and id(other) in simple_ids:
            products[-1] += 1
        return multiply(self, other)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    for w in reps:
        products.append(0)
        t.decompose_left(w, I, J)
    assert max(products) == 1
    assert sum(products) < len(reps)


def test_equal_elements_share_the_memos():
    """Elements are values, and the memos are keyed by permutation: a
    product equal to a search result finds the word the search recorded,
    and the search result finds the J-strips the products recorded."""
    t = CosetTables(system("A", 4))
    I, J = {4}, {1, 2}
    reps = t.min_left(I)[1:]
    words = len(t._words)
    built = [from_word(t, t.word(w)) for w in reps]
    for u, w in zip(built, reps):
        assert u == w and hash(u) == hash(w) and u is not w
        assert t.word(u) is t.word(w)
    assert len(t._words) == words
    by_product = [t.decompose_left(u, I, J) for u in built]
    strips = dict(t._strips[frozenset(J)])
    assert strips
    by_search = [t.decompose_left(w, I, J) for w in reps]
    assert t._strips[frozenset(J)] == strips
    assert by_search == by_product


def test_decompose_left_keeps_each_strip_to_its_own_J():
    """Two J interleaved on one table give what fresh tables give, each
    element decomposed with nothing memoized."""
    rs = system("A", 4)
    t = CosetTables(rs)
    Js = ({1, 2}, {2, 3, 4})
    for w in t.min_left({4}):
        for J in Js:
            fresh = CosetTables(rs)
            x, w_J = t.decompose_left(w, {4}, J)
            want = fresh.decompose_left(w, {4}, J)
            assert (x.perm, w_J.perm) == tuple(u.perm for u in want)


ORACLE_SYSTEMS = ([("A", r) for r in range(1, 6)] +
                  [("B", r) for r in range(2, 5)] +
                  [("C", r) for r in range(2, 5)] +
                  [("D", 4), ("D", 5), ("F", 4), ("G", 2), ("A1xA1", 2)])


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS + [
    ("A", 6), ("B", 5), ("C", 5)])
def test_closed_form_order_matches_enumeration(family, rank):
    full = tables(family, rank)
    assert len(CosetTables(full.rs)) == len(group(full)) == len(full)
    assert full.min_left_poincare(()) == length_counts(group(full))


def length_counts(elements):
    """How many of the elements have each length 0, 1, ..., the
    longest."""
    counts = Counter(w.length for w in elements)
    return tuple(counts[k] for k in range(max(counts) + 1))


@pytest.mark.parametrize("family,rank,order", [
    ("F", 4, 1152), ("E", 6, 51840), ("E", 7, 2903040),
    ("E", 8, 696729600)])
def test_closed_form_order_of_exceptional_groups(family, rank, order):
    t = CosetTables(system(family, rank))
    assert len(t) == order
    poincare = t.min_left_poincare(())
    assert len(poincare) - 1 == t.rs.n_positive
    # Poincare polynomials of finite Weyl groups are palindromic.
    assert poincare == poincare[::-1]


def test_quotients_of_groups_too_large_to_enumerate():
    for rank, size in ((7, 56), (8, 240)):
        t = CosetTables(system("E", rank))
        I = range(1, rank)
        assert t.min_left_count(I) == size
        reps = t.min_left(I)
        assert len(reps) == size
        assert t.min_left_poincare(I) == length_counts(reps)
        assert all(t.is_min_left(w, I) for w in reps)
        assert len(set(w.perm for w in reps)) == size
        keys = [(len(t.word(w)), t.word(w)) for w in reps]
        assert keys == sorted(keys)
        assert t.longest_element().length == t.rs.n_positive
    with pytest.raises(GroupTooLarge):
        enumerate_group(CosetTables(system("E", 7)))


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_on_demand_tables_match_enumeration(family, rank):
    full = tables(family, rank)
    lazy = CosetTables(full.rs)
    m = full.rs.n_positive
    top = [w for w in group(full) if w.length == m]
    w0 = lazy.longest_element()
    assert [w0.perm] == [w.perm for w in top]
    for I in subsets(range(1, rank + 1)):
        want = [w for w in group(full)
                if left_descents(full, w).isdisjoint(I)]
        got = lazy.min_left(I)
        assert [w.perm for w in got] == [w.perm for w in want]
        assert [lazy.word(w) for w in got] == [full.word(w) for w in want]
        assert lazy.min_left_count(I) == len(want)
        assert lazy.min_left_poincare(I) == length_counts(want)
        inside = [w for w in group(full) if full.in_parabolic(w, I)]
        longest = max(w.length for w in inside)
        assert [lazy.longest_element(I).perm] == \
            [w.perm for w in inside if w.length == longest]


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4),
                                         ("F", 4), ("G", 2), ("A1xA1", 2)])
def test_min_left_records_each_length(family, rank):
    """min_left sets every length to the search level; recount the
    inversions of each representative from its permutation."""
    t = CosetTables(system(family, rank))
    m = t.rs.n_positive
    for I in subsets(range(1, rank + 1)):
        for w in t.min_left(I):
            assert w.length == sum(1 for k in range(m) if w.perm[k] >= m)


def test_min_left_checks_each_level_against_the_poincare_polynomial(
        monkeypatch):
    t = CosetTables(system("A", 2))
    # The true W(q) of A2 is 1 + 2q + 2q^2 + q^3.
    for wrong in ((1, 2, 1, 1), (1, 2, 2), (1, 2, 2, 1, 0)):
        monkeypatch.setattr(t, "min_left_poincare", lambda I: wrong)
        with pytest.raises(AssertionError):
            t.min_left(())
    monkeypatch.undo()
    assert [w.length for w in t.min_left(())] == [0, 1, 1, 2, 2, 3]


TWIST_SYSTEMS = ([("A", r) for r in range(1, 6)] +
                 [("B", r) for r in range(2, 5)] +
                 [("C", 3), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
                  ("A1xA1", 2)])


def _search_and_stripped_words(rs, I):
    """The words min_left records on fresh tables, and the words found
    by stripping on other fresh tables that never run min_left."""
    search = CosetTables(rs)
    reps = search.min_left(I)
    strip = CosetTables(rs)
    return ([search.word(w) for w in reps],
            [strip.word(w) for w in reps])


def _parabolics(family, rank):
    if family == "E":
        return [[i for i in range(1, rank + 1) if i != k]
                for k in range(1, rank + 1)]
    return list(subsets(range(1, rank + 1)))


@pytest.mark.parametrize("family,rank", TWIST_SYSTEMS + [("E", 6)])
def test_search_words_are_the_stripped_words_in_order(family, rank):
    """Every parabolic of the small systems, and the maximal parabolics
    of E6: the search's word of each representative is its stripped
    word, and the stripped words strictly increase along each level."""
    rs = system(family, rank)
    for I in _parabolics(family, rank):
        found, stripped = _search_and_stripped_words(rs, I)
        assert found == stripped, I
        keys = [(len(word), word) for word in stripped]
        assert all(a < b for a, b in zip(keys, keys[1:])), I


def test_min_left_checks_words_it_finds_against_stripped_ones():
    t = CosetTables(system("A", 3))
    for w in group(tables("A", 3)):
        t.word(w)
    assert [len(t.word(w)) for w in t.min_left(())] == \
        [w.length for w in group(tables("A", 3))]
    t = CosetTables(system("A", 2))
    s1, s2 = t.simple_reflection(1), t.simple_reflection(2)
    t._words[(s1 * s2).perm] = (2, 1)
    with pytest.raises(AssertionError, match="search and stripping"):
        t.min_left(())


@pytest.mark.parametrize("family,rank", TWIST_SYSTEMS)
def test_twist_w1_is_shortest_in_its_double_coset(family, rank):
    """w1 against the double coset W_J * w0 * W_I built by closure under
    left multiplication by s_j (j in J) and right by s_i (i in I), its
    shortest element read off the enumerated group."""
    t = tables(family, rank)
    simples = {i: t.simple_reflection(i) for i in range(1, rank + 1)}
    w0 = max(group(t), key=lambda w: w.length)
    for I in subsets(range(1, rank + 1)):
        tw = compute_twist(ZipDatum(t.rs.cartan, I))
        J = tw.J
        coset = {w0.perm}
        frontier = [w0]
        while frontier:
            step = []
            for w in frontier:
                for u in ([simples[j] * w for j in J] +
                          [w * simples[i] for i in I]):
                    if u.perm not in coset:
                        coset.add(u.perm)
                        step.append(u)
            frontier = step
        inside = [w for w in group(t) if w.perm in coset]
        assert len(inside) == len(coset)
        shortest = [w for w in inside if w.length == inside[0].length]
        assert [tw.w1.perm] == [w.perm for w in shortest]


def test_on_demand_tables_do_not_list_the_group():
    lazy = CosetTables(system("A", 2))
    with pytest.raises(TypeError):
        iter(lazy)
    for name in ("elements", "min_double", "from_word", "decompose_double"):
        assert not hasattr(lazy, name)
    with pytest.raises(MixedGroups):
        lazy.word(tables("B", 2).identity)
    twin = CosetTables(build_root_system([[2, -1], [-1, 2]]))
    with pytest.raises(MixedGroups):
        lazy.word(twin.identity)


# Three permutations of one size, on both sides of 256 points: up to 256
# the helpers are given bytes and tuples, beyond it tuples alone, as
# RootSystem.perm_type stores them.
PERMUTATION_TRIPLES = st.integers(1, 300).flatmap(lambda n: st.tuples(
    *[st.permutations(range(n)).map(tuple)] * 3))


def _reversed(n):
    return tuple(range(n - 1, -1, -1))


@settings(deadline=None, max_examples=60)
@given(PERMUTATION_TRIPLES)
@example((_reversed(256), tuple(range(256)), _reversed(256)))
@example(((1, 0) + tuple(range(2, 257)),) * 3)
@example(((0,),) * 3)
def test_permutation_helpers_match_the_tuple_reference(perms):
    p, q, r = perms
    n = len(p)
    inverse = [0] * n
    for k, i in enumerate(r):
        inverse[i] = k
    inverse = tuple(inverse)
    want = {
        "compose": tuple(map(p.__getitem__, q)),
        "invert": inverse,
        "conjugate": tuple(map(r.__getitem__, map(p.__getitem__, inverse))),
    }
    for form in (bytes, tuple) if n <= 256 else (tuple,):
        P, Q, R = form(p), form(q), form(r)
        got = {"compose": compose(P, Q), "invert": invert(R),
               "conjugate": conjugate(R, P, invert(R))}
        assert {k: type(v) for k, v in got.items()} == dict.fromkeys(
            want, form)
        assert {k: tuple(v) for k, v in got.items()} == want


@pytest.mark.parametrize("family,rank,form", [
    ("A", 15, bytes), ("A", 16, tuple), ("B", 11, bytes), ("B", 12, tuple),
    ("D", 11, bytes), ("D", 12, tuple), ("E", 8, bytes)])
def test_elements_are_bytes_up_to_256_roots(family, rank, form):
    rs = system(family, rank)
    assert rs.perm_type is form
    s = CosetTables(rs).simple_reflection(1)
    assert type(s.perm) is form and type((s * s).perm) is form
