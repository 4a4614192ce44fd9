import random

import pytest

from zipzeta import (CosetTables, DiagramAutomorphism, ExtWeylGroup,
                     InvalidFrobenius, InvalidOmegaTable, MixedGroups,
                     NotInExtMinSet, OmegaGroup)
from helpers import (act_root, ext_elements, flip_ext, from_word, group,
                     is_based, min_double, minus_one_ext,
                     reference_extended_length, signed_flip_ext, subsets,
                     swap_ext, system, tables, trivial_ext)


def test_swap_group_acts_on_roots():
    ext = swap_ext()
    rs = ext.rs
    k = ext.omega.index("sigma")
    assert act_root(ext.omega, k, rs.simple_root(1)) == rs.simple_root(2)
    assert ext.omega.conjugate_subset(k, {1}) == {2}
    assert is_based(ext.omega, k)


def test_minus_one_action_is_signed():
    ext = minus_one_ext()
    rs = ext.rs
    k = ext.omega.index("w")
    assert act_root(ext.omega, k, rs.simple_root(1)) == -rs.simple_root(1)
    assert not is_based(ext.omega, k)


def test_semidirect_relation():
    ext = swap_ext()
    t = ext.tables
    s1 = ext.element(t.simple_reflection(1), "1")
    s2 = ext.element(t.simple_reflection(2), "1")
    sig = ext.element(t.identity, "sigma")
    assert s1 * sig == sig * s2
    assert sig * sig == ext.identity
    assert (s1 * sig).inverse() * (s1 * sig) == ext.identity


def test_ext_group_size_and_iteration():
    ext = swap_ext()
    elements = ext_elements(ext)
    assert len(elements) == len(ext) == 8
    assert len(set(elements)) == 8


def test_mixed_ext_groups_rejected():
    a = swap_ext().identity
    b = flip_ext().identity
    with pytest.raises(MixedGroups):
        a * b


def test_rejects_table_without_identity():
    t = tables("A", 1)
    table = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, ["a", "b", "c"], table, [(1,)] * 3)


def test_identity_may_sit_at_any_index():
    t = tables("A", 1)
    omega = OmegaGroup(t.rs, ["a", "b"], [[1, 0], [0, 1]], [(1,), (1,)])
    assert omega.identity_index == 1


def test_rejects_non_latin_table():
    t = tables("A", 1)
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, ["a", "b"], [[0, 0], [1, 1]], [(1,), (1,)])


def test_rejects_non_associative_loop():
    t = tables("A", 1)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    actions = [(1,)] * 5
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, list("eabcd"), table, actions)


def test_rejects_non_homomorphic_actions():
    t = tables("A", 2)
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    actions = [(1, 2), (2, 1), (1, 2)]
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, ["1", "a", "b"], table, actions)


def test_rejects_pairing_breaking_action():
    t = tables("A", 2)
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]], [(1, 2), (-1, 2)])


def test_rejects_non_permutation_action():
    t = tables("A", 2)
    with pytest.raises(InvalidOmegaTable):
        OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]], [(1, 2), (1, 1)])


def test_signed_swap_action_is_valid():
    t = tables("A1xA1", 2)
    omega = OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]],
                       [(1, 2), (-2, -1)])
    k = omega.index("u")
    assert act_root(omega, k, t.rs.simple_root(1)) == -t.rs.simple_root(2)


def test_min_reps_component_major_order():
    ext = swap_ext()
    reps = ext.min_reps({1})
    t = ext.tables
    rows = [(t.word(a.w), ext.omega.label(a.omega)) for a in reps]
    assert rows == [((), "1"), ((2,), "1"), ((), "sigma"), ((2,), "sigma")]


def test_min_reps_trivial_component_match_cosets():
    ext = trivial_ext("A", 3)
    for I in subsets(range(1, 4)):
        assert len(ext.min_reps(I)) == len(ext.tables.min_left(I))


def test_not_in_min_set_raises():
    ext = swap_ext()
    for label in ("1", "sigma"):
        bad = ext.element(ext.tables.simple_reflection(1), label)
        with pytest.raises(NotInExtMinSet):
            ext.canonical_decomposition(bad, {1}, {1})
        with pytest.raises(NotInExtMinSet):
            ext.extended_length(bad, {1}, {1})


def test_worked_decomposition_rows():
    ext = swap_ext()
    t = ext.tables
    I = {1}
    J = {1}
    rows = []
    for a in ext.min_reps(I):
        dec = ext.canonical_decomposition(a, I, J)
        rows.append((
            ext.omega.label(dec.omega_index),
            t.word(dec.wpp),
            t.word(dec.y),
            t.word(dec.w_J),
            dec.w_J.is_identity(),
            ext.extended_length(a, I, J),
        ))
    assert rows == [
        ("1", (), (), (), True, 0),
        ("1", (2,), (2,), (), True, 1),
        ("sigma", (), (), (), True, 0),
        ("sigma", (1,), (), (1,), False, 1),
    ]


def test_minus_one_lengths_for_all_type_pairs():
    ext = minus_one_ext()
    what = ext.element(ext.tables.identity, "w")
    S = (1,)
    values = {
        ((), ()): 1,
        ((), S): 0,
        (S, S): 0,
        (S, ()): 0,
    }
    for (I, J), expected in values.items():
        assert ext.extended_length(what, I, J) == expected


def test_extended_length_restricts_to_plain_length():
    ext = trivial_ext("A", 2)
    t = ext.tables
    rs = t.rs
    m = rs.n_positive
    inside = {I: rs.subsystem_ordinals(I) for I in subsets(range(1, 3))}
    for I in subsets(range(1, 3)):
        for J in subsets(range(1, 3)):
            for w in t.min_left(I):
                a = ext.element(w, 0)
                assert ext.extended_length(a, I, J) == w.length
            for w in min_double(t, I, J):
                direct = sum(
                    1 for k in rs.positive_outside(J)
                    if w.perm[k] >= m and w.perm[k] not in inside[I])
                assert ext.extended_length(ext.element(w, 0), I, J) == direct


@pytest.mark.parametrize("make_ext,I_pool", [
    (swap_ext, ({1}, {1, 2}, set())),
    (flip_ext, (set(), {1, 2})),
    (minus_one_ext, (set(), {1})),
])
def test_extended_length_additivity(make_ext, I_pool):
    ext = make_ext()
    t = ext.tables
    rank = ext.rs.rank
    for I in I_pool:
        for J in subsets(range(1, rank + 1)):
            for a in ext.min_reps(I):
                dec = ext.canonical_decomposition(a, I, J)
                x = ext.element(
                    ext.twist_weyl(dec.omega_index, dec.y), dec.omega_index)
                assert ext.extended_length(a, I, J) == \
                    ext.extended_length(x, I, J) + dec.w_J.length
                xdec = ext.canonical_decomposition(x, I, J)
                assert xdec.w_J.is_identity()


@pytest.mark.parametrize("make_ext,I_pool,unsigned", [
    (swap_ext, ({1}, {1, 2}, set()), (True, True)),
    (flip_ext, (set(), {1, 2}), (True, True)),
    (minus_one_ext, (set(), {1}), (True, False)),
])
def test_unsigned_components_read_the_length_off_the_search(make_ext,
                                                            I_pool,
                                                            unsigned):
    """For a component acting without signs the extended length is the
    level min_left found the Weyl part on, and equals the root-set
    count; a signed component keeps the count."""
    ext = make_ext()
    assert ext.omega.unsigned == unsigned
    rank = ext.rs.rank
    for I in I_pool:
        for a in ext.min_reps(I):
            for J in subsets(range(1, rank + 1)):
                count = ext._root_set_length(a, I, J)
                assert ext._extended_length(a, I, J) == count
                if unsigned[a.omega]:
                    assert a.w.length == count


@pytest.mark.parametrize("make_ext", [minus_one_ext, signed_flip_ext])
def test_signed_components_take_the_root_set_count(make_ext, monkeypatch):
    ext = make_ext()
    rank = ext.rs.rank
    assert ext.omega.unsigned == (True, False)
    counted = []
    root_set_length = ExtWeylGroup._root_set_length

    def recorded(self, a, I, J):
        counted.append(a)
        return root_set_length(self, a, I, J)

    monkeypatch.setattr(ExtWeylGroup, "_root_set_length", recorded)
    for I in subsets(range(1, rank + 1)):
        for J in subsets(range(1, rank + 1)):
            for a in ext.min_reps(I):
                counted.clear()
                length = ext._extended_length(a, I, J)
                assert counted == ([a] if a.omega else [])
                assert length == reference_extended_length(ext, a, I, J)


def test_factorization_is_unique():
    ext = swap_ext()
    t = ext.tables
    rank = 2
    for I in subsets(range(1, rank + 1)):
        for J in subsets(range(1, rank + 1)):
            for a in ext.min_reps(I):
                dec = ext.canonical_decomposition(a, I, J)
                solutions = []
                for k in range(len(ext.omega)):
                    kinv = ext.omega.inverse(k)
                    Ipp = ext.omega.conjugate_subset(kinv, I)
                    for y in min_double(t, Ipp, J):
                        for wj in group(t):
                            if not t.in_parabolic(wj, J):
                                continue
                            if not t.is_min_left(
                                    wj, t.induced_subset(y, Ipp, J)):
                                continue
                            candidate = ext.element(
                                ext.twist_weyl(k, y * wj), k)
                            if candidate == a:
                                solutions.append((k, y, wj))
                assert solutions == [(dec.omega_index, dec.y, dec.w_J)]


def test_galois_equivariance_of_length():
    ext = trivial_ext("A", 2)
    gamma = DiagramAutomorphism(ext, (2, 1), (0,))
    for I in subsets(range(1, 3)):
        gI = gamma.apply_subset(I)
        for J in subsets(range(1, 3)):
            gJ = gamma.apply_subset(J)
            for a in ext.min_reps(I):
                b = gamma.apply_ext(a)
                assert ext.extended_length(b, gI, gJ) == \
                    ext.extended_length(a, I, J)


def test_diagram_automorphism_validation():
    ext = trivial_ext("A", 2)
    with pytest.raises(InvalidFrobenius):
        DiagramAutomorphism(ext, (1, 1), (0,))
    bext = trivial_ext("B", 2)
    with pytest.raises(InvalidFrobenius):
        DiagramAutomorphism(bext, (2, 1), (0,))
    sext = swap_ext()
    with pytest.raises(InvalidFrobenius):
        DiagramAutomorphism(sext, (1, 2), (1, 0))


def test_diagram_automorphism_action_compatibility():
    t = tables("A1xA1", 2)
    omega = OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]],
                       [(1, 2), (-1, 2)])
    ext = ExtWeylGroup(t, omega)
    with pytest.raises(InvalidFrobenius):
        DiagramAutomorphism(ext, (2, 1), (0, 1))


def test_diagram_automorphism_algebra():
    ext = flip_ext()
    flip = DiagramAutomorphism(ext, (2, 1), (0, 1))
    assert flip.power(2).is_identity()
    assert flip.inverse().diagram_perm == (2, 1)
    s1 = ext.tables.simple_reflection(1)
    assert flip.apply_weyl(s1) == ext.tables.simple_reflection(2)
    a = ext.element(s1, "f")
    image = flip.apply_ext(a)
    assert image.w == ext.tables.simple_reflection(2)
    assert image.omega == a.omega


def cyclic_ext(family, rank, powers):
    """Component group Z/n acting through the listed diagram actions,
    powers[j] being the action of the generator's j-th power.  Uses
    on-demand tables, so no group is enumerated."""
    t = CosetTables(system(family, rank))
    n = len(powers)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    omega = OmegaGroup(t.rs, [str(j) for j in range(n)], table, powers)
    return ExtWeylGroup(t, omega)


CONJUGATION_CASES = {
    "A2 flip": lambda: (flip_ext(), "f"),
    "D4 triality": lambda: (cyclic_ext("D", 4, [(1, 2, 3, 4), (3, 2, 4, 1),
                                               (4, 2, 1, 3)]), "1"),
    "E6 flip": lambda: (cyclic_ext("E", 6, [(1, 2, 3, 4, 5, 6),
                                           (6, 2, 5, 4, 3, 1)]), "1"),
    "A1xA1 swap": lambda: (swap_ext(), "sigma"),
    "A1 minus one": lambda: (minus_one_ext(), "w"),
}


@pytest.mark.parametrize("case", sorted(CONJUGATION_CASES))
def test_conjugation_permutes_reflections_and_is_multiplicative(case):
    ext, label = CONJUGATION_CASES[case]()
    t = ext.tables
    rank = ext.rs.rank
    k = ext.omega.index(label)
    action = ext.omega.action(k)
    diagram = tuple(abs(s) for s in action)
    gamma = DiagramAutomorphism(ext, diagram, tuple(range(len(ext.omega))))
    maps = (gamma.apply_weyl, lambda w: ext.twist_weyl(k, w))
    for f in maps:
        for i in range(1, rank + 1):
            assert f(t.simple_reflection(i)) == \
                t.simple_reflection(diagram[i - 1])
    rng = random.Random(sum(map(ord, case)))
    for _ in range(20):
        u, v = (from_word(t, [rng.randint(1, rank)
                              for _ in range(rng.randint(0, 12))])
                for _ in range(2))
        for f in maps:
            assert f(u * v) == f(u) * f(v)
        # Signs act by -1 on whole components, which is central, so the
        # signed and the unsigned action conjugate alike.
        assert gamma.apply_weyl(u) == ext.twist_weyl(k, u)


def z2_ext(family, rank, action):
    """Component group Z/2 whose generator acts by the signed action."""
    t = tables(family, rank)
    omega = OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]],
                       [tuple(range(1, rank + 1)), action])
    return ExtWeylGroup(t, omega)


SIGNED_CASES = {
    "A1xA1 (-1, 2)": lambda: z2_ext("A1xA1", 2, (-1, 2)),
    "A1xA1 (-2, -1)": lambda: z2_ext("A1xA1", 2, (-2, -1)),
    "A1 sign twist": minus_one_ext,
}


@pytest.mark.parametrize("case", sorted(SIGNED_CASES))
def test_signed_conjugation_carries_left_descents(case):
    """canonical_decomposition tests minimality on the conjugated Weyl
    part and the conjugated type alone.  A signed action that preserves
    the pairing is -1 on whole components times a diagram map, so the
    conjugation carries left descents along |sigma|, and that test
    agrees with the test on the Weyl part and I for every element,
    every component and every pair of types."""
    ext = SIGNED_CASES[case]()
    t = ext.tables
    rank = ext.rs.rank

    def left_descents(w):
        return frozenset(i for i in range(1, rank + 1)
                         if not t.is_min_left(w, {i}))

    for k in range(len(ext.omega)):
        for w in group(t):
            wpp = ext.twist_weyl(k, w)
            assert wpp.length == w.length
            assert left_descents(wpp) == ext.omega.conjugate_subset(
                k, left_descents(w))
    for I in subsets(range(1, rank + 1)):
        for J in subsets(range(1, rank + 1)):
            for a in ext.min_reps(I):
                dec = ext.canonical_decomposition(a, I, J)
                Ipp = ext.omega.conjugate_subset(
                    ext.omega.inverse(a.omega), I)
                assert t.is_min_left(dec.wpp, Ipp)
                assert ext.twist_weyl(a.omega, dec.wpp) == a.w


ORACLE_CASES = {
    "A1xA1 swap": swap_ext,
    "A1 minus one": minus_one_ext,
    "A2 flip": flip_ext,
    "A1xA1 (-1, 2)": lambda: z2_ext("A1xA1", 2, (-1, 2)),
    "A1xA1 (-2, -1)": lambda: z2_ext("A1xA1", 2, (-2, -1)),
    "A3 (-3, -2, -1)": signed_flip_ext,
    **{f"{family}{rank}": lambda family=family, rank=rank: trivial_ext(
        family, rank) for family, rank in [("A", 3), ("B", 3), ("C", 3),
                                           ("D", 4), ("G", 2), ("A", 4)]},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_extended_length_matches_the_decomposition(case):
    """The count on (w, omega) against the count through the canonical
    decomposition, on every element of every minimal set and every J.
    A component acting without signs gives the length of w."""
    ext = ORACLE_CASES[case]()
    rank = ext.rs.rank
    for I in subsets(range(1, rank + 1)):
        reps = ext.min_reps(I)
        for J in subsets(range(1, rank + 1)):
            for a in reps:
                length = ext.extended_length(a, I, J)
                assert length == reference_extended_length(ext, a, I, J)
                if is_based(ext.omega, a.omega):
                    assert length == a.w.length


def test_identity_action_permutes_no_root():
    for ext in (trivial_ext("A", 3), swap_ext(), minus_one_ext()):
        rs = ext.rs
        identity = ext.omega.identity_index
        assert tuple(ext.omega.root_perm(identity)) == tuple(
            range(len(rs.roots)))
    ext = z2_ext("A1xA1", 2, (-1, 2))
    rs = ext.rs
    k = ext.omega.index("u")
    assert act_root(ext.omega, k, rs.simple_root(1)) == -rs.simple_root(1)
    assert act_root(ext.omega, k, rs.simple_root(2)) == rs.simple_root(2)


TWO = ["1", "u"]
SWAP_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("labels,table,actions,message", [
    ([], [], [], "component group has no elements"),
    (["u", "u"], SWAP_TABLE, [(1,), (1,)], "labels are not distinct"),
    ([1, 2], SWAP_TABLE, [(1,), (1,)], "labels must be strings"),
    (TWO, [[0, 1]], [(1,), (1,)], "table is not n-by-n"),
    (TWO, [[0, 1], [1]], [(1,), (1,)], "table is not n-by-n"),
    (TWO, [[0, 2], [1, 0]], [(1,), (1,)], "entry 2 is not an element index"),
    (TWO, [[False, True], [True, False]], [(1,), (1,)],
     "entry False is not an element index"),
    (TWO, [[0, 1], [0, 1]], [(1,), (1,)], "table column 0 is not a perm"),
    (TWO, SWAP_TABLE, [(1,)], "need one diagram action per element"),
    (TWO, SWAP_TABLE, [(1,), (1, 1)], "element 'u' has wrong arity"),
    (TWO, SWAP_TABLE, [(1,), (True,)],
     "element 'u' is not a signed permutation"),
])
def test_omega_group_validation(labels, table, actions, message):
    rs = tables("A", 1).rs
    with pytest.raises(InvalidOmegaTable, match=message):
        OmegaGroup(rs, labels, table, actions)


@pytest.mark.parametrize("error,message,build", [
    (InvalidOmegaTable, "unknown component label 'x'",
     lambda sext, other: sext.omega.index("x")),
    (MixedGroups, "acts on a different root system",
     lambda sext, other: ExtWeylGroup(sext.tables, other.omega)),
    (MixedGroups, "element belongs to a different extended group",
     lambda sext, other: sext.canonical_decomposition(other.identity,
                                                      (), ())),
    pytest.param(
        MixedGroups, "element belongs to a different extended group",
        lambda sext, other: sext.extended_length(other.identity, (), ()),
        id="MixedGroups-extended_length"),
    (InvalidFrobenius, "diagram map is not a permutation",
     lambda sext, other: DiagramAutomorphism(other, (True, 2), (0,))),
    (InvalidFrobenius, "component map is not a permutation",
     lambda sext, other: DiagramAutomorphism(sext, (1, 2), (0, 0))),
    (InvalidFrobenius, "component map is not a permutation",
     lambda sext, other: DiagramAutomorphism(other, (1, 2), (False,))),
])
def test_group_validation_messages(error, message, build):
    with pytest.raises(error, match=message):
        build(swap_ext(), trivial_ext("A", 2))
