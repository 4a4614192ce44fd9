import time

import pytest

from zipzeta import (CartanMatrix, GroupTooLarge, InvalidCartan,
                     NotFiniteType, Root, RootNotInSystem, build_root_system,
                     cartan_matrix, direct_sum)
from zipzeta import rootsystem
from helpers import F4_CARTAN, G2_CARTAN, e_cartan, subsystem, system


def test_rejects_non_square():
    with pytest.raises(InvalidCartan):
        CartanMatrix([[2, 0]])


def test_rejects_bad_diagonal():
    with pytest.raises(InvalidCartan):
        CartanMatrix([[1]])


def test_rejects_positive_off_diagonal():
    with pytest.raises(InvalidCartan):
        CartanMatrix([[2, 1], [-1, 2]])


def test_rejects_asymmetric_zero_pattern():
    with pytest.raises(InvalidCartan):
        CartanMatrix([[2, 0], [-1, 2]])


def test_rejects_non_integer_entries():
    with pytest.raises(InvalidCartan):
        CartanMatrix([[2, -1.0], [-1, 2]])


def test_affine_matrix_is_not_finite():
    with pytest.raises(NotFiniteType):
        build_root_system([[2, -2], [-2, 2]])


def test_rank_one_affine_like_with_deep_edge():
    with pytest.raises(NotFiniteType):
        build_root_system([[2, -4], [-1, 2]])


@pytest.mark.parametrize("matrix,reason", [
    ([[2, -2], [-2, 2]], "positive definite"),
    ([[2, -4], [-1, 2]], "positive definite"),
    ([[2, -3], [-3, 2]], "positive definite"),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "positive definite"),
    ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
])
def test_non_finite_matrix_fails_before_the_closure(monkeypatch, matrix,
                                                    reason):
    def closure_must_not_run(*args):
        raise AssertionError("the reflection closure ran")

    monkeypatch.setattr(rootsystem, "_reflect_coords", closure_must_not_run)
    with pytest.raises(NotFiniteType, match=reason):
        build_root_system(matrix)


def test_every_finite_matrix_still_builds():
    matrices = [cartan_matrix(f, r) for f, lo in
                (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for r in range(lo, 8)]
    matrices += [G2_CARTAN, F4_CARTAN, direct_sum([[2]], [[2]]),
                 direct_sum(cartan_matrix("B", 3), G2_CARTAN), []]
    matrices += [e_cartan(r) for r in (6, 7, 8)]
    for m in matrices:
        build_root_system(m)
    assert build_root_system(e_cartan(8)).n_positive == 120


def test_oversized_system_is_refused_before_the_closure():
    # A_150 has 150 * 151 / 2 = 11325 positive roots, over the cap of
    # 10000. The prediction refuses it at once; the closure would take
    # about a minute.
    start = time.monotonic()
    with pytest.raises(GroupTooLarge, match="^the root system has at least "
                                            "11325 positive roots, over the "
                                            "cap of 10000$"):
        build_root_system(cartan_matrix("A", 150))
    assert time.monotonic() - start < 1.0
    # A sum of components is bounded by the sum of their bounds.
    with pytest.raises(GroupTooLarge, match="at least 10100 "):
        build_root_system(direct_sum(cartan_matrix("A", 100),
                                     cartan_matrix("A", 100)))


def test_root_cap_is_checked_during_the_closure(monkeypatch):
    # B_3 has 9 positive roots but the lower bound of a rank-3 component
    # is 6: only the closure finds the overflow, at the level that
    # reaches 8 roots.
    monkeypatch.setattr("zipzeta.rootsystem.DEFAULT_ROOT_CAP", 7)
    with pytest.raises(GroupTooLarge, match="^the root system has at least "
                                            "8 positive roots, over the "
                                            "cap of 7$"):
        build_root_system(cartan_matrix("B", 3))
    monkeypatch.setattr("zipzeta.rootsystem.DEFAULT_ROOT_CAP", 9)
    assert build_root_system(cartan_matrix("B", 3)).n_positive == 9


def test_simple_root_ordinals_and_negation():
    rs = system("A", 3)
    for i in range(1, 4):
        assert rs.ordinal(rs.simple_root(i)) == i - 1
    for k in range(len(rs.roots)):
        assert rs.root(rs.negate_ordinal(k)) == -rs.root(k)
        assert rs.negate_ordinal(rs.negate_ordinal(k)) == k
    assert all(rs.is_positive_ordinal(k) == rs.root(k).is_positive()
               for k in range(len(rs.roots)))


def test_positive_roots_sorted_by_height():
    rs = system("B", 3)
    heights = [r.height for r in rs.positive_roots]
    assert heights == sorted(heights)


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10), ("A", 5, 15),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 3, 6), ("D", 4, 12), ("D", 5, 20),
])
def test_positive_root_counts(family, rank, count):
    assert system(family, rank).n_positive == count


def test_exceptional_rank_two_matrix():
    rs = build_root_system(G2_CARTAN)
    assert rs.n_positive == 6


def test_direct_sum_counts():
    rs = build_root_system(direct_sum(cartan_matrix("A", 2), [[2]]))
    assert rs.n_positive == 4
    assert rs.rank == 3


def test_rank_zero_system():
    rs = build_root_system([])
    assert rs.rank == 0 and rs.n_positive == 0


def test_reflection_is_involution():
    rs = system("B", 2)
    for i in (1, 2):
        for r in rs.roots:
            assert rs.reflect(i, rs.reflect(i, r)) == r


def test_reflection_permutes_other_positives():
    rs = system("A", 3)
    for i in (1, 2, 3):
        alpha = rs.simple_root(i)
        others = {r for r in rs.positive_roots if r != alpha}
        assert {rs.reflect(i, r) for r in others} == others
        assert rs.reflect(i, alpha) == -alpha


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("G", 2), ("F", 4),
                                         ("E", 6), ("A1xA1", 2)])
def test_reflection_perm_matches_reflecting_every_root(family, rank):
    rs = system(family, rank)
    for i in range(1, rank + 1):
        assert rs.reflection_perm(i) == tuple(
            rs.ordinal(rs.reflect(i, r)) for r in rs.roots)


def test_reflect_rejects_non_roots():
    rs = system("A", 2)
    with pytest.raises(RootNotInSystem):
        rs.reflect(1, Root((2, 0)))


def test_subsystem_and_outside():
    rs = system("A", 2)
    sub = subsystem(rs, {1})
    assert sub == {rs.simple_root(1), -rs.simple_root(1)}
    assert len(rs.positive_outside({1})) == 2
    assert len(rs.positive_outside(set())) == 3
    assert len(rs.positive_outside({1, 2})) == 0


def test_cartan_entry_orientation():
    c = cartan_matrix("B", 2)
    assert c.entry(2, 1) == -2
    assert c.entry(1, 2) == -1
    rs = build_root_system(c)
    assert Root((1, 2)) in set(rs.positive_roots)


def test_family_rank_bounds():
    with pytest.raises(InvalidCartan):
        cartan_matrix("D", 2)
    with pytest.raises(InvalidCartan):
        cartan_matrix("E", 6)
