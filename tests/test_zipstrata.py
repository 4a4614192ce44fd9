import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from zipzeta import (BadPrimePower, CosetTables, DiagramAutomorphism,
                     ExtWeylGroup, FrobeniusDoesNotFixI,
                     FrobeniusDoesNotFixTheta, GroupTooLarge,
                     InvalidFrobenius, InvalidOmegaTable,
                     NotFiniteType, ThetaActionLeaks,
                     ThetaDoesNotPreserveI, ThetaNotSubgroup, ZipDatum,
                     cartan_matrix, classify, compute_twist, point_count,
                     zeta_from_strata)
from zipzeta import btgl, zipstrata
from zipzeta.cli import main, parse_config
from zipzeta.zipstrata import FACTOR_LIMIT, zeta_function
from helpers import e_cartan, reference_strata, subsets
from test_properties import DATA_POOL

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

A1xA1 = [[2, 0], [0, 2]]
A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

SWAP_OMEGA = {
    "elements": ["1", "sigma"],
    "table": [[0, 1], [1, 0]],
    "diagram_action": {"1": [1, 2], "sigma": [2, 1]},
}

FLIP_A2_OMEGA = {
    "elements": ["1", "f"],
    "table": [[0, 1], [1, 0]],
    "diagram_action": {"1": [1, 2], "f": [2, 1]},
}

KLEIN_OMEGA = {
    "elements": ["1", "a", "b", "c"],
    "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    "diagram_action": {lab: [1] for lab in "1abc"},
}

Z4_OMEGA = {
    "elements": ["1", "i", "m", "j"],
    "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
    "diagram_action": {lab: [1] for lab in "1imj"},
}


def quad_datum(**kw):
    kw.setdefault("omega", SWAP_OMEGA)
    return ZipDatum(A1xA1, kw.pop("parabolic", [1]), q0=2, **kw)


def shape(strata):
    return Counter((s.aut_dim, s.degree) for s in strata)


def words(datum, stratum):
    t = datum.tables
    return tuple((t.word(a.w), datum.omega.label(a.omega))
                 for a in stratum.elements)


def test_rejects_bad_prime_power():
    for q0 in (0, 1, 6, -2, 12):
        with pytest.raises(BadPrimePower):
            ZipDatum([[2]], [], q0=q0)


def test_prime_power_split():
    d = ZipDatum([[2]], [], q0=4, e=3)
    assert (d.p, d.m, d.q0, d.q) == (2, 2, 4, 64)
    d = ZipDatum([[2]], [], q0=101 ** 2)
    assert (d.p, d.m) == (101, 2)


def test_large_prime_is_checked_quickly():
    start = time.monotonic()
    d = ZipDatum([[2]], [], q0=10 ** 7 + 19)
    assert time.monotonic() - start < 0.5
    assert (d.p, d.m) == (10 ** 7 + 19, 1)
    with pytest.raises(BadPrimePower):
        ZipDatum([[2]], [], q0=3 * (10 ** 7 + 19))


def test_trial_division_is_bounded():
    start = time.monotonic()
    with pytest.raises(BadPrimePower, match=str(FACTOR_LIMIT)):
        ZipDatum([[2]], [], q0=10 ** 18 + 3)
    assert time.monotonic() - start < 2.0
    d = ZipDatum([[2]], [], q0=2 ** 64)
    assert (d.p, d.m) == (2, 64)


def test_large_field_degree_is_reduced_quickly():
    start = time.monotonic()
    even = ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]}, e=10 ** 7)
    odd = ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]}, e=10 ** 7 + 1)
    assert time.monotonic() - start < 1.0
    assert even.tau.is_identity()
    assert odd.tau.diagram_perm == (2, 1)


def test_huge_field_degree_never_builds_q():
    start = time.monotonic()
    d = ZipDatum([[2]], [], q0=2, e=10 ** 9)
    strata = classify(d)
    assert time.monotonic() - start < 0.5
    assert "q" not in vars(d)
    assert sorted(s.length for s in strata) == [0, 1]
    small = ZipDatum([[2]], [], q0=3, e=4)
    assert small.q == 81 and isinstance(small.q, int)


def test_rejects_bad_field_degree():
    for e in (0, -1, True, "2"):
        with pytest.raises(ValueError):
            ZipDatum([[2]], [], q0=2, e=e)


def test_rejects_parabolic_index_out_of_range():
    for I in ([3], [0], ["1"]):
        with pytest.raises(ValueError):
            ZipDatum(A2, I)


def test_theta_must_contain_identity():
    with pytest.raises(ThetaNotSubgroup):
        quad_datum(theta=["sigma"])


def test_theta_must_be_closed():
    with pytest.raises(ThetaNotSubgroup):
        ZipDatum([[2]], [], omega=Z4_OMEGA, theta=["1", "i"])
    d = ZipDatum([[2]], [], omega=Z4_OMEGA, theta=["1", "m"])
    assert d.theta_labels == ("1", "m")


def test_theta_must_preserve_parabolic_type():
    with pytest.raises(ThetaDoesNotPreserveI):
        ZipDatum(A2, [1], omega=FLIP_A2_OMEGA, theta=["1", "f"])
    ZipDatum(A2, [1], omega=FLIP_A2_OMEGA, theta=["1"])


def test_frobenius_must_fix_parabolic_type():
    with pytest.raises(FrobeniusDoesNotFixI):
        ZipDatum(A2, [1], phi0={"diagram_perm": [2, 1]}, e=1)
    d = ZipDatum(A2, [1], phi0={"diagram_perm": [2, 1]}, e=2)
    assert d.tau.is_identity()


def test_frobenius_must_fix_theta():
    phi0 = {"diagram_perm": [1], "omega_perm": ["1", "b", "a", "c"]}
    with pytest.raises(FrobeniusDoesNotFixTheta):
        ZipDatum([[2]], [], omega=KLEIN_OMEGA, phi0=phi0,
                 theta=["1", "a"])
    d = ZipDatum([[2]], [], omega=KLEIN_OMEGA, phi0=phi0,
                 theta=["1", "c"])
    assert d.theta_labels == ("1", "c")


def test_construction_errors_propagate(monkeypatch):
    with pytest.raises(NotFiniteType):
        ZipDatum([[2, -2], [-2, 2]], [])
    with monkeypatch.context() as m, pytest.raises(GroupTooLarge):
        m.setattr("zipzeta.weyl.DEFAULT_GROUP_CAP", 3)
        ZipDatum(A2, [])
    with pytest.raises(InvalidOmegaTable):
        ZipDatum([[2]], [], omega={"elements": ["1", "u"],
                                   "table": [[0, 0], [1, 1]],
                                   "diagram_action": {"1": [1], "u": [1]}})
    with pytest.raises(InvalidFrobenius):
        ZipDatum(A2, [], phi0={"diagram_perm": [1, 1]})


@pytest.mark.parametrize("error,message,kwargs", [
    (ValueError, "parabolic index True out of range",
     {"parabolic_type": [True]}),
    (InvalidOmegaTable, "table entry False is not an element index",
     {"omega": {"elements": ["1", "u"], "table": [[False, True],
                                                  [True, False]],
                "diagram_action": {"1": [1, 2], "u": [1, 2]}}}),
    (InvalidOmegaTable, "element 'u' is not a signed permutation",
     {"omega": {"elements": ["1", "u"], "table": [[0, 1], [1, 0]],
                "diagram_action": {"1": [1, 2], "u": [True, 2]}}}),
    (InvalidFrobenius, "diagram map is not a permutation",
     {"phi0": {"diagram_perm": [True, 2]}}),
])
def test_bools_are_not_integers(error, message, kwargs):
    with pytest.raises(error, match=message):
        ZipDatum(**{"cartan": A2, "parabolic_type": [], **kwargs})


@pytest.mark.parametrize("kwargs", [
    {"theta": ["1", "x"]},
    {"phi0": {"diagram_perm": [1, 2], "omega_perm": ["x", "1"]}},
])
def test_unknown_labels_are_refused(kwargs):
    with pytest.raises(InvalidOmegaTable,
                       match="^unknown component label 'x'$"):
        ZipDatum(A1xA1, [], omega=SWAP_OMEGA, **kwargs)


def test_cap_bounds_the_minimal_set_not_the_group(monkeypatch):
    monkeypatch.setattr("zipzeta.weyl.DEFAULT_GROUP_CAP", 3)
    with pytest.raises(GroupTooLarge, match=r"has 6 .* cap of 3"):
        ZipDatum(A2, [])
    assert len(classify(ZipDatum(A2, [1]))) == 3


def test_maximal_parabolic_of_a_group_too_large_to_enumerate():
    I = range(1, 8)
    d = ZipDatum(e_cartan(8), I)
    strata = classify(d)
    assert len(strata) == 240
    assert d.flag_dim == max(s.length for s in strata) == 57
    lengths = Counter(s.length for s in strata)
    assert lengths == Counter(w.length for w in d.tables.min_left(I))
    assert lengths == Counter({57 - k: n for k, n in lengths.items()})


def test_identity_galois_step_applies_nothing(monkeypatch):
    """The Galois walk moves elements by apply_key, which apply_ext (the
    one call psi makes) goes through too.  Split data build no psi and
    walk no orbit, so they move nothing."""
    calls = []
    apply_key = DiagramAutomorphism.apply_key

    def counted(self, perm, k):
        calls.append((perm, k))
        return apply_key(self, perm, k)

    monkeypatch.setattr(DiagramAutomorphism, "apply_key", counted)
    classify(ZipDatum(A2, []))
    assert calls == []
    classify(ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]}))
    assert len(calls) == 1 + 6
    calls.clear()
    # The flip squared is the identity, so these data are split too.
    classify(ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]}, e=2))
    assert calls == []


def test_sl2_omega_lengths_take_the_signed_branch(monkeypatch):
    """The component w of sl2-omega acts as -1, so its elements' lengths
    are counted on root sets; the identity component's are read off the
    search."""
    d = parse_config(str(CONFIGS / "sl2-omega.json"))
    assert d.omega.unsigned == (True, False)
    counted = []
    root_set_length = ExtWeylGroup._root_set_length

    def recorded(self, a, I, J):
        counted.append(a)
        return root_set_length(self, a, I, J)

    monkeypatch.setattr(ExtWeylGroup, "_root_set_length", recorded)
    found = zipstrata._stratify(d)
    assert counted == [a for a in found.reps if a.omega == 1]
    assert len(counted) == 2


def test_worked_twist():
    d = quad_datum(theta=["1"])
    tw = compute_twist(d)
    t = d.tables
    assert tw.J == frozenset({1})
    assert t.word(tw.w1) == (2,)
    assert t.word(tw.w2) == (2,)


def test_twist_with_empty_parabolic_type():
    d = ZipDatum(A2, [])
    tw = compute_twist(d)
    assert tw.J == frozenset()
    assert d.tables.word(tw.w1) == (1, 2, 1)
    assert tw.w2 == tw.w1


def test_twist_moves_parabolic_type():
    d = ZipDatum(A2, [2])
    tw = compute_twist(d)
    assert tw.J == frozenset({1})
    assert d.tables.word(tw.w1) == (2, 1)
    assert tw.w2 == tw.w1
    assert d.flag_dim == 2


def test_twisted_frobenius_on_identity():
    d = quad_datum(theta=["1"])
    tw = compute_twist(d)
    assert tw.psi(d.ext.identity) == d.ext.identity


def test_worked_classification():
    d = quad_datum(theta=["1"])
    assert d.flag_dim == 1
    strata = classify(d)
    assert shape(strata) == Counter({(0, 1): 2, (1, 1): 2})
    assert all(s.size == 1 for s in strata)
    assert [s.aut_dim for s in strata] == [0, 0, 1, 1]
    assert {words(d, s) for s in strata} == {
        (((2,), "1"),),
        (((2,), "sigma"),),
        (((), "1"),),
        (((), "sigma"),),
    }


def test_component_subgroup_merges_strata():
    d = ZipDatum(A1xA1, [], omega=SWAP_OMEGA, theta=["1", "sigma"])
    strata = classify(d)
    assert shape(strata) == Counter({(2, 1): 2, (1, 1): 2, (0, 1): 2})
    assert sum(s.size for s in strata) == 8


def test_galois_action_merges_strata():
    phi0 = {"diagram_perm": [2, 1], "omega_perm": ["1", "sigma"]}
    d = ZipDatum(A1xA1, [], omega=SWAP_OMEGA, phi0=phi0)
    strata = classify(d)
    assert shape(strata) == Counter({(2, 1): 2, (1, 2): 2, (0, 1): 2})
    assert sum(s.size for s in strata) == 8


def test_rank_one_classification():
    d = ZipDatum([[2]], [])
    strata = classify(d)
    assert [(s.aut_dim, s.degree) for s in strata] == [(0, 1), (1, 1)]
    assert words(d, strata[0]) == (((1,), "1"),)
    assert words(d, strata[1]) == (((), "1"),)


def test_twisted_rank_two_classification():
    d = ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]})
    strata = classify(d)
    rows = [(s.aut_dim, s.degree, words(d, s)) for s in strata]
    assert rows == [
        (0, 1, (((1, 2, 1), "1"),)),
        (1, 2, (((1, 2), "1"), ((2, 1), "1"))),
        (2, 2, (((1,), "1"), ((2,), "1"))),
        (3, 1, (((), "1"),)),
    ]


def test_classification_is_deterministic():
    def run():
        d = ZipDatum(A1xA1, [], omega=SWAP_OMEGA, theta=["1", "sigma"])
        return [(s.aut_dim, s.degree, words(d, s)) for s in classify(d)]

    assert run() == run()


def test_strata_partition_minimal_set():
    data = [
        quad_datum(theta=["1"]),
        ZipDatum(A2, [2]),
        ZipDatum(A1xA1, [], omega=SWAP_OMEGA, theta=["1", "sigma"]),
    ]
    for d in data:
        strata = classify(d)
        reps = d.ext.min_reps(d.parabolic_type)
        seen = [a for s in strata for a in s.elements]
        assert len(seen) == len(set(seen)) == len(reps)
        assert set(seen) == set(reps)


def _diagram_automorphisms(cartan):
    """Every permutation of the simple indices that fixes the Cartan
    matrix, 1-based."""
    n = len(cartan)
    return [[i + 1 for i in perm]
            for perm in itertools.permutations(range(n))
            if all(cartan[perm[i]][perm[j]] == cartan[i][j]
                   for i in range(n) for j in range(n))]


def _swap_data(h, parabolic_types, degrees):
    """The valid data on A_h x A_h with the factor swap as component
    group, among the given parabolic types and field degrees: phi0 any
    diagram automorphism commuting with the swap, tau = phi0^e fixing
    I, and Theta = {1, sigma} too when the swap fixes I."""
    block = [list(row) for row in cartan_matrix("A", h).entries]
    zero = [0] * h
    cartan = [row + zero for row in block] + [zero + row for row in block]
    ident = list(range(1, 2 * h + 1))
    swap = ident[h:] + ident[:h]
    omega = {"elements": ["1", "sigma"], "table": [[0, 1], [1, 0]],
             "diagram_action": {"1": ident, "sigma": swap}}

    def after(f, g):
        return [f[i - 1] for i in g]

    for perm in _diagram_automorphisms(cartan):
        if after(perm, swap) != after(swap, perm):
            continue
        for e in degrees:
            tau = ident
            for _ in range(e):
                tau = after(perm, tau)
            for I in parabolic_types:
                if set(after(tau, I)) != I:
                    continue
                thetas = [["1"]]
                if set(after(swap, I)) == I:
                    thetas.append(["1", "sigma"])
                for theta in thetas:
                    yield cartan, I, {"omega": omega, "theta": theta, "e": e,
                                      "phi0": {"diagram_perm": perm}}


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _oracle_data():
    yield from _swap_data(1, subsets(range(1, 3)), (1, 2, 3))
    yield from _swap_data(2, subsets(range(1, 5)), (1, 2, 3))
    yield from _swap_data(3, [{2, 5}], (1,))
    flip, triality = [1, 2, 4, 3], [3, 2, 4, 1]
    for perm in (flip, triality):
        for I in ({2}, {1, 3, 4}):
            for e in (1, 2, 3):
                yield D4, I, {"phi0": {"diagram_perm": perm}, "e": e}


def test_strata_match_the_brute_force_closure():
    data = list(_oracle_data())
    assert len(data) == 212
    for cartan, I, kw in data:
        d = ZipDatum(cartan, I, **kw)
        got = {(frozenset(s.elements), s.length, s.degree)
               for s in classify(d)}
        assert got == reference_strata(d), (cartan, I, kw)


def test_classify_orders_strata_by_dimension_degree_and_word():
    """Strata by (aut_dim, degree, len(word), word, component) of their
    representative, the first of its members in the same order; words
    are stripped on fresh tables, apart from the search's."""
    for cartan, I, kw in _oracle_data():
        d = ZipDatum(cartan, I, **kw)
        fresh = CosetTables(d.rs)

        def key(a):
            word = fresh.word(a.w)
            return (len(word), word, a.omega)

        strata = classify(d)
        for s in strata:
            keys = [key(a) for a in s.elements]
            assert s.rep == s.elements[0], (cartan, I, kw)
            assert all(a < b for a, b in zip(keys, keys[1:])), (cartan, I, kw)
        order = [(s.aut_dim, s.degree) + key(s.rep) for s in strata]
        assert all(a < b for a, b in zip(order, order[1:])), (cartan, I, kw)


def test_point_count_numeric():
    strata = classify(ZipDatum([[2]], []))
    assert point_count(strata, 1, q=2) == Fraction(3, 2)
    assert point_count(strata, 2, q=2) == Fraction(5, 4)
    assert point_count(strata, 1, q=3) == Fraction(4, 3)


def test_point_count_skips_non_dividing_degrees():
    d = ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]})
    strata = classify(d)
    assert point_count(strata, 1, q=2) == Fraction(1) + Fraction(1, 8)
    assert point_count(strata, 2, q=2) == \
        Fraction(1) + Fraction(2, 4) + Fraction(2, 16) + Fraction(1, 64)


def test_point_count_symbolic():
    d = quad_datum(theta=["1"])
    strata = classify(d)
    assert point_count(strata, 1).coeffs == {0: 2, -1: 2}
    assert point_count(strata, 2).coeffs == {0: 2, -2: 2}
    n1 = point_count(strata, 1).coeffs
    assert sum(c * Fraction(2) ** e for e, c in n1.items()) == \
        point_count(strata, 1, q=2)


def test_theta_action_leak_guard(monkeypatch):
    d = quad_datum(theta=["1"])
    d.theta_indices = tuple(range(len(d.omega)))
    monkeypatch.setattr(zipstrata.Twist, "psi",
                        lambda self, a: d.ext.identity)
    with pytest.raises(ThetaActionLeaks,
                       match="subgroup action left the minimal set"):
        classify(d)


def a3_flip_datum():
    return ZipDatum(A3, [2], phi0={"diagram_perm": [3, 2, 1]})


def test_collapsing_galois_action_is_refused():
    d = a3_flip_datum()
    assert {s.degree for s in classify(d)} == {1, 2}
    identity = d.ext.identity
    d.tau.apply_key = lambda perm, k: (identity.w.perm, identity.omega)
    with pytest.raises(ThetaActionLeaks, match="does not permute the "
                       "subgroup orbits"):
        classify(d)


def test_galois_action_leak_guard():
    d = a3_flip_datum()
    outside = d.ext.element(d.tables.longest_element(),
                            d.omega.identity_index)
    d.tau.apply_key = lambda perm, k: (outside.w.perm, outside.omega)
    with pytest.raises(ThetaActionLeaks,
                       match="Galois action left the minimal set"):
        classify(d)


def test_galois_action_that_splits_a_subgroup_orbit_is_refused():
    # tau followed by the swap of two representatives of one length in
    # different Theta-orbits, one of them an orbit of two: the planted
    # tau is one-to-one and keeps every length, but it sends the two
    # members of a Theta-orbit into different Theta-orbits.
    d = config_datum("a3a3-swap-flip.json")
    strata = classify(d)
    pair = next(s for s in strata if s.size == 2 and s.degree == 1)
    other = next(s for s in strata
                 if s.length == pair.length and s is not pair)
    i, j = ((s.rep.w.perm, s.rep.omega) for s in (pair, other))
    swap = {i: j, j: i}
    real = d.tau.apply_key

    def swapped(perm, k):
        image = real(perm, k)
        return swap.get(image, image)

    d.tau.apply_key = swapped
    with pytest.raises(ThetaActionLeaks, match="does not permute the "
                       "subgroup orbits"):
        classify(d)


def _plant_length(monkeypatch, stratum):
    """Make the extended length classify reads (the unchecked one, as
    min_reps made every element) one too large on the representative of
    stratum, and on nothing else."""
    original = ExtWeylGroup._extended_length

    def planted(self, a, I, J):
        return original(self, a, I, J) + (a == stratum.rep)

    monkeypatch.setattr(ExtWeylGroup, "_extended_length", planted)


def test_length_must_be_constant_on_subgroup_orbits(monkeypatch):
    d = quad_datum(parabolic=[], theta=["1", "sigma"])
    stratum = next(s for s in classify(d) if s.size == 2)
    _plant_length(monkeypatch, stratum)
    with pytest.raises(ThetaActionLeaks, match="not constant on a "
                       "subgroup orbit"):
        classify(d)


def test_length_must_be_constant_on_galois_orbits(monkeypatch):
    d = ZipDatum(A2, [], phi0={"diagram_perm": [2, 1]})
    stratum = next(s for s in classify(d) if s.degree == 2)
    _plant_length(monkeypatch, stratum)
    with pytest.raises(ThetaActionLeaks, match="not constant on a "
                       "Galois orbit"):
        classify(d)


def config_datum(name):
    return parse_config(str(CONFIGS / name))


def test_galois_generator_cycles_subgroup_orbits_of_size_two():
    strata = classify(config_datum("a3a3-swap-flip.json"))
    assert sum(s.size for s in strata) == 288
    assert Counter((s.degree, s.size) for s in strata) == Counter(
        {(2, 4): 56, (1, 2): 20, (2, 2): 8, (1, 1): 8})


# Split data: the Galois generator is the identity and Theta is {1}.
# Every maximal parabolic of E6; the shipped configs with a nontrivial
# component group; larger component groups acting trivially on the
# diagram; and a nontrivial phi0 whose e-th power is the identity.
SPLIT_DATA = {
    **{f"E6 without node {k}": (lambda k=k: ZipDatum(
        e_cartan(6), set(range(1, 7)) - {k})) for k in range(1, 7)},
    "o4": lambda: config_datum("o4.json"),
    "sl2-omega": lambda: config_datum("sl2-omega.json"),
    "A1, Klein four": lambda: ZipDatum([[2]], [], omega=KLEIN_OMEGA),
    "A1, cyclic four": lambda: ZipDatum([[2]], [], omega=Z4_OMEGA),
    "A2 flip, e = 2": lambda: ZipDatum(A2, [], e=2,
                                       phi0={"diagram_perm": [2, 1]}),
    "A1xA1 swap, e = 2": lambda: quad_datum(
        parabolic=[], e=2, phi0={"diagram_perm": [2, 1]}),
}


def _no_representatives(self, I):
    raise AssertionError("the split route built minimal representatives")


@pytest.mark.parametrize("make", SPLIT_DATA.values(), ids=SPLIT_DATA)
def test_split_zeta_is_read_off_the_poincare_polynomial(make, monkeypatch):
    datum = make()
    assert datum.tau.is_identity() and len(datum.theta_indices) == 1
    with monkeypatch.context() as patch:
        patch.setattr(CosetTables, "min_left", _no_representatives)
        closed = zeta_function(datum)
    assert closed.factors == zeta_from_strata(classify(datum)).factors
    assert all(f == 1 for _, f in closed.factors)


@pytest.mark.parametrize("make", [
    lambda: config_datum("a2-flip.json"),
    lambda: quad_datum(parabolic=[], theta=["1", "sigma"]),
], ids=["a2-flip", "theta = {1, sigma}"])
def test_twisted_and_theta_data_are_classified(make, monkeypatch):
    datum = make()
    calls = []
    original = zipstrata.classify

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(zipstrata, "classify", counted)
    zeta = zeta_function(datum)
    assert calls == [datum]
    assert zeta == zeta_from_strata(original(datum))


def _no_classify(*args, **kwargs):
    raise AssertionError("a bt command classified")


@pytest.mark.parametrize("argv", [
    ["bt", "--h", "6", "--d", "3", "--p", "7", "--series", "10"],
    ["oracle", "--h", "2", "--d", "1", "--p", "3"],
])
def test_bt_and_oracle_never_classify(argv, monkeypatch, capsys):
    for module in (zipstrata, btgl):
        monkeypatch.setattr(module, "classify", _no_classify)
    monkeypatch.setattr(zipstrata, "_stratify", _no_classify)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


ZIP_CONFIGS = sorted(p.name for p in CONFIGS.glob("*.json")
                     if "cartan" in json.loads(p.read_text()))
A3xA3 = [list(row) + [0] * 3 for row in A3] + [[0] * 3 + list(row)
                                                for row in A3]
A3xA3_SWAP_OMEGA = {
    "elements": ["1", "sigma"],
    "table": [[0, 1], [1, 0]],
    "diagram_action": {"1": [1, 2, 3, 4, 5, 6], "sigma": [4, 5, 6, 1, 2, 3]},
}
DUALITY_DATA = {
    **{name: (lambda name=name: config_datum(name)) for name in ZIP_CONFIGS},
    **{f"DATA_POOL[{i}]": make for i, make in enumerate(DATA_POOL)},
    # Sizes no shipped config reaches: 5040 elements, 2496 strata of
    # degree 2, and 1152 elements, 552 Theta-orbits of two.
    "A6, flip": lambda: ZipDatum(cartan_matrix("A", 6).entries, [],
                                 phi0={"diagram_perm": [6, 5, 4, 3, 2, 1]}),
    "A3xA3, Theta = {1, sigma}": lambda: ZipDatum(
        A3xA3, [], omega=A3xA3_SWAP_OMEGA, theta=["1", "sigma"]),
}


@pytest.mark.parametrize("make", DUALITY_DATA.values(), ids=DUALITY_DATA)
def test_strata_are_dual_under_the_longest_elements(make):
    # x -> w0,I * x * w0, with the component kept, sends the minimal set
    # onto itself and each stratum onto a stratum with aut_dim D - a,
    # the same degree and the same size, D the flag dimension.  Only
    # Weyl multiplication is shared with the stratification, so this
    # checks its Theta-orbits, Galois cycles and lengths against any
    # error the duality does not commute with.
    datum = make()
    ext, t, I = datum.ext, datum.tables, datum.parabolic_type
    w0_I, w0 = t.longest_element(I), t.longest_element()

    def dual(a):
        return ext.element(w0_I * a.w * w0, a.omega)

    reps = ext.min_reps(I)
    assert set(map(dual, reps)) == set(reps)
    strata = classify(datum)
    by_elements = {frozenset(s.elements): s for s in strata}
    for s in strata:
        image = by_elements[frozenset(map(dual, s.elements))]
        assert (image.aut_dim, image.degree, image.size) == \
            (datum.flag_dim - s.aut_dim, s.degree, s.size)
