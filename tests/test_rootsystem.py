import itertools
import math
import random
import re
import time

import pytest

from zipzeta import (CartanMatrix, CosetTables, GroupTooLarge, InvalidCartan,
                     NotFiniteType, Root, RootNotInSystem, build_root_system,
                     cartan_matrix, direct_sum, enumerate_group)
from zipzeta import rootsystem
from zipzeta.rootsystem import degrees
from helpers import (F4_CARTAN, G2_CARTAN, e_cartan, kostant_degrees,
                     reference_finite_type, reference_poincare, subsystem,
                     system)


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


def _chain(rank, double_at):
    """A path of single bonds but one double bond, between nodes
    double_at and double_at + 1."""
    m = [list(row) for row in cartan_matrix("A", rank).entries]
    m[double_at][double_at - 1] = -2
    return m


# E6~: node 1 branches into three arms of two nodes.  F4~ and G2~: F4
# and G2 with a node added at the long end.
E6_AFFINE = [[2 if i == j else -({i, j} in ({0, 1}, {1, 2}, {0, 3}, {3, 4},
                                             {0, 5}, {5, 6}))
              for j in range(7)] for i in range(7)]
F4_AFFINE = [[2, -1, 0, 0, 0]] + [[-(j == 0)] + row for j, row in
                                   enumerate(F4_CARTAN)]
G2_AFFINE = [[2, -3, 0], [-1, 2, -1], [0, -1, 2]]


@pytest.mark.parametrize("matrix,reason", [
    ([[2, -2], [-2, 2]], "positive definite"),
    ([[2, -4], [-1, 2]], "positive definite"),
    ([[2, -3], [-3, 2]], "positive definite"),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "positive definite"),
    ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
    (E6_AFFINE, "positive definite"),
    (F4_AFFINE, "positive definite"),
    (G2_AFFINE, "positive definite"),
    (_chain(6, 3), "positive definite"),
])
def test_non_finite_matrix_fails_before_the_closure(monkeypatch, matrix,
                                                    reason):
    def closure_must_not_run(*args):
        raise AssertionError("the reflection closure ran")

    monkeypatch.setattr(rootsystem, "_reflect_coords", closure_must_not_run)
    nodes = list(range(1, len(matrix) + 1))
    with pytest.raises(NotFiniteType, match=re.escape(
            f"the diagram on nodes {nodes} is not of finite type")):
        build_root_system(matrix)
    # reason is why the definiteness check it replaced refuses it.
    with pytest.raises(NotFiniteType, match=reason):
        reference_finite_type(CartanMatrix(matrix))


def _agrees_with_the_definiteness_check(matrix):
    """Whether degrees and the reference check agree; a finite matrix
    must also give one degree per node."""
    m = CartanMatrix(matrix)
    try:
        reference_finite_type(m)
    except NotFiniteType:
        with pytest.raises(NotFiniteType):
            degrees(m)
        return False
    assert len(degrees(m)) == m.rank
    return True


def _every_matrix(rank, entries):
    """Every generalized Cartan matrix of the rank with off-diagonal
    entries in entries."""
    pairs = [(0, 0)] + [(a, b) for a in entries for b in entries if a and b]
    for choice in itertools.product(pairs, repeat=rank * (rank - 1) // 2):
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for (i, j), (a, b) in zip(itertools.combinations(range(rank), 2),
                                  choice):
            m[i][j], m[j][i] = a, b
        yield m


def test_recognizer_agrees_with_the_definiteness_check_on_small_ranks():
    # Every matrix of rank <= 3 with entries 0 to -4 and of rank 4 with
    # entries 0, -1, -2.  The finite ones also close to the predicted
    # number of roots.
    matrices = [m for rank in (1, 2, 3)
                for m in _every_matrix(rank, (0, -1, -2, -3, -4))]
    matrices += _every_matrix(4, (0, -1, -2))
    verdicts = []
    for m in matrices:
        verdicts.append(_agrees_with_the_definiteness_check(m))
        if verdicts[-1]:
            rs = build_root_system(m)
            assert len(rs.positive_roots) == rs.n_positive
    assert len(verdicts) == 4931 + 15625
    assert 0 < sum(verdicts) < len(verdicts)


def _random_finite(rng, rank):
    """A direct sum of random finite-type components of total rank."""
    parts = []
    while rank:
        size = rng.randint(1, rank)
        families = ["A"] + ["B", "C"] * (size >= 2) + ["D"] * (size >= 4)
        families += ["E"] * (size in (6, 7, 8)) + ["F"] * (size == 4)
        families += ["G"] * (size == 2)
        family = rng.choice(families)
        parts.append(e_cartan(size) if family == "E" else
                     F4_CARTAN if family == "F" else
                     G2_CARTAN if family == "G" else
                     cartan_matrix(family, size))
        rank -= size
    return [list(row) for row in direct_sum(*parts).entries]


@pytest.mark.parametrize("rank", range(5, 10))
def test_recognizer_agrees_with_the_definiteness_check_at_random(rank):
    # Random finite sums with the nodes shuffled, each with one bond
    # changed, added or removed half of the time, which lands on either
    # side of the boundary of finite type; and random trees.
    rng = random.Random(rank)
    labels = [(0, 0)] + [(-1, -1)] * 3 + [(-1, -2), (-2, -1), (-1, -3),
                                          (-3, -1), (-2, -2), (-1, -4)]
    verdicts = []
    for _ in range(2000):
        if rng.random() < 0.75:
            order = list(range(rank))
            rng.shuffle(order)
            base = _random_finite(rng, rank)
            m = [[base[i][j] for j in order] for i in order]
            if rng.random() < 0.5:
                i, j = rng.sample(range(rank), 2)
                m[i][j], m[j][i] = rng.choice(labels)
        else:
            m = [[2 if i == j else 0 for j in range(rank)]
                 for i in range(rank)]
            for k in range(1, rank):
                j = rng.randrange(k)
                m[k][j], m[j][k] = rng.choice(labels[1:])
        verdicts.append(_agrees_with_the_definiteness_check(m))
    assert 200 < sum(verdicts) < len(verdicts) - 200


KOSTANT_CASES = {f"{f}{r}": cartan_matrix(f, r) for f, lo in
                 (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for r in range(lo, 9)}
KOSTANT_CASES.update({f"E{r}": CartanMatrix(e_cartan(r)) for r in (6, 7, 8)})
KOSTANT_CASES.update({
    "F4": CartanMatrix(F4_CARTAN), "G2": CartanMatrix(G2_CARTAN),
    "A1+A1": direct_sum([[2]], [[2]]),
    "B3+G2": direct_sum(cartan_matrix("B", 3), G2_CARTAN),
    "A2+D4+C3": direct_sum(cartan_matrix("A", 2), cartan_matrix("D", 4),
                           cartan_matrix("C", 3))})


@pytest.mark.parametrize("name", KOSTANT_CASES)
def test_degree_table_matches_kostant(name):
    cartan = KOSTANT_CASES[name]
    rs = build_root_system(cartan)
    ds = degrees(cartan)
    assert sorted(ds) == kostant_degrees(r.height for r in rs.positive_roots)
    assert sum(d - 1 for d in ds) == rs.n_positive == len(rs.positive_roots)
    t = CosetTables(rs)
    # Enumerating the larger groups takes seconds each.
    if math.prod(ds) <= 10000:
        assert len(enumerate_group(t)) == math.prod(ds)
    rng = random.Random(name)
    for _ in range(6):
        I = {i for i in range(1, rs.rank + 1) if rng.random() < 0.5}
        assert t.min_left_poincare(I) == reference_poincare(t, I)


@pytest.mark.parametrize("nodes,bad", [([0], 0), ([5], 5), ([1, 3], 3),
                                       ([True], True), ([2, -1], -1)])
def test_nodes_outside_the_diagram_are_refused(nodes, bad):
    # On A2, index 0 would read node -1, the last one, and 5 nothing.
    t = CosetTables(build_root_system(cartan_matrix("A", 2)))
    message = f"^parabolic index {bad!r} out of range$"
    with pytest.raises(ValueError, match=message):
        degrees(t.rs.cartan, nodes)
    with pytest.raises(ValueError, match=message):
        t.min_left_poincare(nodes)
    with pytest.raises(ValueError, match=message):
        t.min_left(nodes)
    assert t.min_left_poincare([1]) == (1, 1, 1)


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


def test_root_count_is_exact_before_the_closure(monkeypatch):
    # B_3 has exactly 9 positive roots, and the degrees 2, 4, 6 say so
    # before any root is built.
    def closure_must_not_run(*args):
        raise AssertionError("the reflection closure ran")

    with monkeypatch.context() as m:
        m.setattr(rootsystem, "_reflect_coords", closure_must_not_run)
        m.setattr("zipzeta.rootsystem.DEFAULT_ROOT_CAP", 8)
        with pytest.raises(GroupTooLarge, match="^the root system has at "
                                                "least 9 positive roots, "
                                                "over the cap of 8$"):
            build_root_system(cartan_matrix("B", 3))
    monkeypatch.setattr("zipzeta.rootsystem.DEFAULT_ROOT_CAP", 9)
    rs = build_root_system(cartan_matrix("B", 3))
    assert rs.n_positive == len(rs.positive_roots) == 9


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
        assert tuple(rs.reflection_perm(i)) == tuple(
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
