import functools
import itertools
import re
import time
from fractions import Fraction

import pytest

from zipzeta import (BTParams, FieldTooLarge, FqField, MismatchDetected,
                     NotPrime, SearchSpaceTooLarge, ZetaProduct,
                     crosscheck, enumerate_census)
from zipzeta import fforacle
from zipzeta.fforacle import (_Stabilizers, _candidates, _met, _orbit,
                              _rank_count, _verify_admissible, enumerate_gl,
                              gl_generators, gl_order, mat_inv, mat_mul,
                              primitive_element, twisted_action)
from helpers import (apply_move, candidate_pairs, candidates_by_scan,
                     census_by_pairs, census_by_sweep, coded_pair,
                     decoded_pair, generator_move, mat_identity, mat_kernel,
                     mat_rank, mat_transpose, pair_tables,
                     reference_admissible, reference_field)


def test_field_construction_errors():
    for p in (0, 1, 4, 6, -3, 2.0):
        with pytest.raises(NotPrime):
            FqField(p)
    for k in (0, True):
        with pytest.raises(ValueError):
            FqField(2, k)
    with pytest.raises(FieldTooLarge):
        FqField(2, 7)
    FqField(2, 6)


@pytest.mark.parametrize("error,message,call", [
    (ZeroDivisionError, "^zero has no inverse$", lambda: FqField(5).inv(0)),
    (ZeroDivisionError, "^zero has no inverse$",
     lambda: FqField(2, 2).pow(0, -1)),
    (FieldTooLarge, r"^2\^7 exceeds the bound 64$", lambda: FqField(2, 7)),
    (NotPrime, r"^4 = 2 \* 2 is not a prime$", lambda: FqField(4)),
    (ValueError, "^modulus must be monic of the right degree$",
     lambda: FqField(2, 2, modulus=(1, 1))),
    (ValueError, "^modulus is reducible$",
     lambda: FqField(2, 2, modulus=(1, 0, 1))),
])
def test_field_validation_messages(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_singular_matrix_has_no_inverse():
    F = FqField(3)
    assert mat_inv(F, ((1, 2), (2, 1))) is None
    assert mat_inv(F, ((0, 0), (0, 0))) is None
    assert mat_inv(F, ((1, 2), (0, 1))) == ((1, 1), (0, 1))


def test_default_moduli_are_least():
    assert FqField(5).modulus == (0, 1)
    assert FqField(2, 2).modulus == (1, 1, 1)
    assert FqField(2, 3).modulus == (1, 1, 0, 1)
    assert FqField(3, 2).modulus == (1, 0, 1)


def _field_cases():
    """The default field of every prime power up to 64, and every monic
    modulus of degree k, reducible ones too, for p^k up to 27."""
    powers = [(p, k) for p in range(2, 65) if all(p % r for r in range(2, p))
              for k in range(1, 7) if p ** k <= 64]
    return ([(p, k, None) for p, k in powers] +
            [(p, k, tail + (1,)) for p, k in powers if p ** k <= 27
             for tail in itertools.product(range(p), repeat=k)])


def test_field_tables_match_the_polynomial_reference():
    """The seven tables built on F_p's row tables equal those of plain
    polynomial arithmetic, and a reducible modulus is refused with the
    same message."""
    cases = _field_cases()
    assert len(cases) == 216
    refused = 0
    for p, k, modulus in cases:
        want = reference_field(p, k, modulus)
        try:
            F = FqField(p, k, modulus)
        except ValueError as e:
            got = str(e)
            refused += 1
        else:
            got = (F.modulus, F._add, F._mul, F._neg, F._inv, F._frob,
                   F._frob_inv)
        assert got == want, (p, k, modulus)
    assert refused == 62


def test_explicit_modulus_validation():
    FqField(2, 3, modulus=(1, 0, 1, 1))
    with pytest.raises(ValueError):
        FqField(2, 3, modulus=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        FqField(2, 3, modulus=(1, 1, 1))
    with pytest.raises(ValueError):
        FqField(2, 3, modulus=(1, 1, 0, 2))


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_field_axioms(p, k):
    F = FqField(p, k)
    els = F.elements()
    assert len(els) == F.q
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.q - 1) == 1
        assert F.pow(a, F.q) == a
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_frobenius(p, k):
    F = FqField(p, k)
    for a in F.elements():
        assert F.frob(a) == F.pow(a, p)
        assert F.frob_inv(F.frob(a)) == a
        x = a
        for _ in range(k):
            x = F.frob(x)
        assert x == a
        for b in F.elements():
            assert F.frob(F.add(a, b)) == F.add(F.frob(a), F.frob(b))
            assert F.frob(F.mul(a, b)) == F.mul(F.frob(a), F.frob(b))
    for c in range(p):
        assert F.frob(c) == c


@pytest.mark.parametrize("p,k,h", [(2, 2, 1), (3, 1, 2), (2, 1, 3),
                                   (2, 2, 2)])
def test_row_tables_match_field_arithmetic(p, k, h):
    F = FqField(p, k)
    T = F.row_tables(h)
    rows = T.digits
    # Big-endian codes: integer order is row-lexicographic order.
    assert rows == sorted(itertools.product(range(F.q), repeat=h))
    assert all(T.encode(row) == u for u, row in enumerate(rows))
    for u, x in enumerate(rows):
        assert rows[T.frob_inv[u]] == tuple(F.frob_inv(a) for a in x)
        for c in F.elements():
            assert rows[T.scale[c][u]] == tuple(F.mul(c, a) for a in x)
        for v, y in enumerate(rows):
            assert rows[T.add[u][v]] == tuple(map(F.add, x, y))
            dot = 0
            for a, b in zip(x, y):
                dot = F.add(dot, F.mul(a, b))
            assert T.dot[u][v] == dot
    assert F.row_tables(h) is T


def test_gl_enumeration():
    F2 = FqField(2)
    assert len(enumerate_gl(F2, 2)) == gl_order(2, 2) == 6
    assert len(enumerate_gl(F2, 3)) == gl_order(2, 3) == 168
    F4 = FqField(2, 2)
    assert len(enumerate_gl(F4, 1)) == gl_order(4, 1) == 3
    for A in enumerate_gl(F2, 2):
        assert mat_mul(F2, A, mat_inv(F2, A)) == mat_identity(2)
        assert mat_rank(F2, A) == 2


def test_census_frozen_values():
    cases = [
        (2, 1, 2, 1, Fraction(3, 2), 9, 6),
        (2, 1, 2, 2, Fraction(5, 4), 225, 180),
        (2, 1, 3, 1, Fraction(4, 3), 64, 48),
        (3, 1, 2, 1, Fraction(7, 4), 294, 168),
        (3, 2, 2, 1, Fraction(7, 4), 294, 168),
        (2, 2, 2, 1, Fraction(1), 6, 6),
        (2, 0, 3, 1, Fraction(1), 48, 48),
        (3, 1, 3, 1, Fraction(13, 9), 16224, 11232),
        (4, 2, 2, 1, Fraction(35, 16), 44100, 20160),
    ]
    for h, d, p, k, groupoid, cands, order in cases:
        rep = enumerate_census(FqField(p, k), h, d)
        assert rep.groupoid_cardinality == groupoid
        assert rep.candidate_count == cands
        assert rep.group_order == order
        assert rep.groupoid_cardinality == Fraction(cands, order)


@pytest.mark.parametrize("h,d,p,k,modulus", [
    (2, 1, 2, 1, None), (2, 1, 2, 2, None), (2, 1, 3, 1, None),
    (3, 1, 2, 1, None), (3, 2, 2, 1, None), (2, 2, 2, 1, None),
    (2, 0, 3, 1, None), (2, 1, 2, 3, None), (2, 1, 2, 3, (1, 0, 1, 1)),
    (2, 1, 3, 2, None), (1, 0, 3, 2, None), (1, 1, 3, 2, None),
])
def test_census_matches_full_group_sweep(h, d, p, k, modulus):
    F = FqField(p, k, modulus=modulus)
    assert enumerate_census(F, h, d).classes == census_by_sweep(F, h, d)


CANDIDATE_SHAPES = [
    (2, 1, 2, 1, None), (2, 1, 3, 2, None), (2, 1, 2, 3, (1, 0, 1, 1)),
    (3, 1, 2, 1, None), (3, 2, 2, 1, None), (3, 1, 3, 1, None),
    (2, 0, 2, 1, None), (2, 2, 2, 1, None),
]


@pytest.mark.parametrize("h,d,p,k,modulus", CANDIDATE_SHAPES)
def test_direct_candidates_match_the_scan(h, d, p, k, modulus):
    F = FqField(p, k, modulus=modulus)
    built = _candidates(F, h, d)
    pairs = candidate_pairs(built)
    assert all(len(pair) == 2 * h for pair in pairs)
    # Every A with its fibre, in order: the pairs come out in nested order.
    assert pairs == sorted(set(pairs))
    decoded = {decoded_pair(F, pair) for pair in pairs}
    assert len(decoded) == len(built)
    assert decoded == set(candidates_by_scan(F, h, d))


@pytest.mark.parametrize("h,d,p,k,modulus", CANDIDATE_SHAPES)
def test_candidates_are_blocks(h, d, p, k, modulus):
    # A block is every A with given kernel and left kernel, with every B
    # with given ones: its A share one block number, so one fibre, and
    # no B lies in the fibres of two blocks.  So (A, B) is a candidate
    # pair exactly when B is in the fibre of A's block.
    F = FqField(p, k, modulus=modulus)
    T = F.row_tables(h)
    cands = _candidates(F, h, d)
    block_of = cands.block_of

    def kernels(X):
        M = tuple(map(T.digits.__getitem__, X))
        return (tuple(mat_kernel(F, M, h)),
                tuple(mat_kernel(F, mat_transpose(M), h)))

    keys = list(map(kernels, cands.a_halves))
    # Kernels and block numbers correspond one to one.
    assert len(set(keys)) == len(set(block_of)) == \
        len(set(zip(keys, block_of)))
    fibres = {}
    for i, t in enumerate(block_of):
        assert fibres.setdefault(t, cands.fibre(i)) == cands.fibre(i)
    halves = [B for Bs in fibres.values() for B in Bs]
    assert len(halves) == len(set(halves))
    for Bs in fibres.values():
        assert Bs == sorted(set(Bs))
        assert len(Bs) == cands.n_b == gl_order(F.q, h - d)
        assert len(set(map(kernels, Bs))) == 1
    assert len(set(map(kernels, halves))) == len(fibres)
    assert len(cands) == sum(len(fibres[t]) for t in block_of) == \
        _rank_count(F.q, h, d) * gl_order(F.q, h - d)


@pytest.mark.parametrize("h,d,p,k", [(2, 1, 3, 2), (3, 1, 3, 1),
                                     (4, 2, 2, 1)])
def test_check_rejects_exactly_the_inadmissible_perturbations(h, d, p, k):
    # Every single-entry change of a sample of candidates.  A changed B
    # is checked together with the unchanged one, so that the two pairs
    # share the per-matrix checks of their A.  A few changes leave the
    # pair admissible; the check must accept exactly those.
    F = FqField(p, k)
    T = F.row_tables(h)
    built = candidate_pairs(_candidates(F, h, d))
    counts = {True: 0, False: 0}
    for pair in built[::len(built) // 12]:
        A, B = decoded_pair(F, pair)
        for half, M in ((0, A), (1, B)):
            for i, j in itertools.product(range(h), repeat=2):
                for x in range(F.q):
                    if x == M[i][j]:
                        continue
                    row = M[i][:j] + (x,) + M[i][j + 1:]
                    changed = M[:i] + (row,) + M[i + 1:]
                    X = (changed, B) if half == 0 else (A, changed)
                    coded = coded_pair(F, X)
                    Bs = [coded[h:]] if half == 0 else [pair[h:], coded[h:]]
                    try:
                        _verify_admissible(T, d, coded[:h], Bs)
                        accepted = True
                    except AssertionError:
                        accepted = False
                    assert accepted == reference_admissible(F, h, d, X)
                    counts[accepted] += 1
    assert counts[False] > 0


@pytest.mark.parametrize("h,p,k", [
    (1, 2, 1), (1, 2, 2), (1, 3, 2), (2, 2, 1), (2, 3, 1), (2, 2, 2),
    (2, 2, 3), (2, 3, 2), (3, 2, 1), (3, 3, 1), (4, 2, 1),
])
def test_generators_generate_gl(h, p, k):
    F = FqField(p, k)
    gens = gl_generators(F, h)
    assert len(gens) == (h > 1) * 2 + (F.q > 2)
    closure = {mat_identity(h)}
    frontier = list(closure)
    while frontier:
        reached = []
        for x in frontier:
            for g in gens:
                y = mat_mul(F, x, g)
                if y not in closure:
                    closure.add(y)
                    reached.append(y)
        frontier = reached
    assert closure == set(enumerate_gl(F, h))


def test_primitive_element():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1)]:
        F = FqField(p, k)
        z = primitive_element(F)
        assert len({F.pow(z, n) for n in range(F.q - 1)}) == F.q - 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_generator_moves_match_twisted_action(p, k):
    F = FqField(p, k)
    shapes = [(h, d) for h in (1, 2) for d in range(h + 1)]
    if F.q == 2:
        shapes += [(3, d) for d in range(4)]
    for h, d in shapes:
        gens = gl_generators(F, h)
        if h > 1:
            # The first generator is the cyclic shift P e_j = e_(j+1).
            assert gens[0] == tuple(tuple(int(i == (j + 1) % h)
                                          for j in range(h))
                                    for i in range(h))
        moves = [(g, generator_move(F, g)) for g in gens]
        for X in candidates_by_scan(F, h, d):
            for g, move in moves:
                assert apply_move(move, coded_pair(F, X)) == \
                    coded_pair(F, twisted_action(F, g, X))


@pytest.mark.parametrize("h,d,p,k", [(2, 1, 2, 1), (2, 1, 3, 2),
                                     (3, 1, 2, 1), (3, 2, 2, 1)])
def test_half_tables_match_apply_move(h, d, p, k):
    # Each generator's half tables send every candidate's code where
    # apply_move sends the whole pair.
    F = FqField(p, k)
    cands, b_halves, b_index, codes, tables = pair_tables(F, h, d)
    n_b = len(b_halves)
    pairs = candidate_pairs(cands)
    for g, (a_moved, b_moved) in zip(gl_generators(F, h), tables):
        move = generator_move(F, g)
        for code, pair in zip(codes, pairs):
            image = apply_move(move, pair)
            assert a_moved[code // n_b] + b_moved[code % n_b] == \
                cands.a_index[image[:h]] * n_b + b_index[image[h:]]


def _planted_units(monkeypatch, elements):
    """Make every stabilizer's units iterator yield elements, keeping
    the true unit counts."""
    units = _Stabilizers.units
    monkeypatch.setattr(_Stabilizers, "units", lambda self, basis: (
        units(self, basis)[0], iter(elements)))


def test_a_planted_pair_outside_the_candidates_is_refused(monkeypatch):
    # Every stabilizer unit is replaced by the cyclic shift, which moves
    # the least A.  It sends each B of that A's fibre to a B that pairs
    # with the shifted A: a candidate's half, but the pair it makes with
    # the least A is no candidate, so the fibre's move table refuses it.
    # (3,1,2,1) has fibres that split, so the census asks for elements.
    F = FqField(2)
    shift = tuple(map(F.row_tables(3).encode, gl_generators(F, 3)[0]))
    _planted_units(monkeypatch, [shift] * 3)
    with pytest.raises(AssertionError,
                       match="^a generator image left the candidates$"):
        enumerate_census(F, 3, 1)


def test_a_stabilizer_element_that_moves_the_a_is_refused(monkeypatch):
    # The scalar z, z in F_4 outside F_2, sends A to z A z^-2 = z^-1 A,
    # which has A's kernel and image, so A's fibre is moved onto itself
    # and every image stays a candidate: only the check X A = A X^[p]
    # sees that the unit moves the A it should fix.
    F = FqField(2, 2)
    T = F.row_tables(2)
    scalar = tuple(T.scale[primitive_element(F)][u] for u in T.identity)
    _planted_units(monkeypatch, [scalar])
    with pytest.raises(AssertionError,
                       match="^a stabilizer unit moves the A it should "
                             "fix$"):
        enumerate_census(F, 2, 1)


@pytest.mark.parametrize("h,d,p,k,classes", [
    (2, 1, 2, 2, 4), (2, 1, 3, 2, 12), (3, 1, 2, 2, 7)])
def test_generators_short_of_gl_are_a_mismatch(monkeypatch, h, d, p, k,
                                               classes):
    # Without the diagonal the generators give SL_h only, whose orbits
    # are smaller here; the pair-level search still adds up (its total
    # is the pair count whatever the orbits), but the per-class
    # identity |orbit| * #Aut = |GL_h| fails, and names the class.
    assert len(enumerate_census(FqField(p, k), h, d).classes) == classes
    real = fforacle.gl_generators
    monkeypatch.setattr(fforacle, "gl_generators",
                        lambda F, h: real(F, h)[:2])
    with pytest.raises(MismatchDetected,
                       match=rf"^census h={h} d={d} p={p} k={k}, \|GL_h\| "
                             rf"against \|orbit\| \* #Aut for the class of "
                             rf"\(\(\(") as info:
        crosscheck(BTParams(h, d, p), k)
    assert info.value.predicted == gl_order(p ** k, h)
    assert info.value.observed < info.value.predicted


def _swap(step):
    """The position map on 0..7 that swaps x and x ^ step."""
    return [x ^ step for x in range(8)]


def test_orbit_pulls_maps_only_while_short_of_its_target():
    pulled = []

    def counted(maps):
        for table in maps:
            pulled.append(table)
            yield table

    # Closed under the maps it has, whatever the target.
    owner = [-1] * 8
    assert sorted(_orbit(0, owner, [_swap(1), _swap(2)], iter(()), 1)) == \
        [0, 1, 2, 3]
    assert owner == [0] * 4 + [-1] * 4
    # {0, 1} is short of 4 points, so one map is pulled, and it is kept:
    # the next seed reaches its 4 points with no pull.
    owner = [-1] * 8
    tables = [_swap(1)]
    more = counted([_swap(2), _swap(4)])
    orbit = _orbit(0, owner, tables, more, 4)
    assert orbit[0] == 0 and sorted(orbit) == [0, 1, 2, 3]
    assert pulled == [_swap(2)] and tables == [_swap(1), _swap(2)]
    assert sorted(_orbit(4, owner, tables, more, 4)) == [4, 5, 6, 7]
    assert pulled == [_swap(2)]
    assert owner == [0] * 4 + [4] * 4
    # The last map is pulled for an orbit still short of 8, and every
    # point met before it moves by it.
    owner = [-1] * 8
    tables = [_swap(1)]
    assert sorted(_orbit(0, owner, tables, iter([_swap(2), _swap(4)]),
                         8)) == list(range(8))
    # When the maps run dry, the orbit comes back short.
    owner = [-1] * 8
    assert sorted(_orbit(0, owner, [_swap(1)], iter([_swap(2)]), 8)) == \
        [0, 1, 2, 3]


def test_an_orbit_that_meets_an_earlier_one_is_refused():
    # {0, 1} is taken as an orbit; the 3-cycle (1 2 3) then moves 2 onto
    # 3 and 3 onto 1, which the earlier orbit owns.
    owner = [-1] * 8
    assert _orbit(0, owner, [_swap(1)], iter(()), 2) == [0, 1]
    cycle = [0, 2, 3, 1, 4, 5, 6, 7]
    assert _orbit(2, owner, [cycle], iter(()), 3) is None
    # So is a map pulled after the start.
    owner = [-1] * 8
    assert _orbit(0, owner, [_swap(1)], iter(()), 2) == [0, 1]
    assert _orbit(2, owner, [], iter([cycle]), 3) is None


def test_a_refused_orbit_names_the_orbit_it_ran_into():
    # After the 3-cycle's orbit from 2 is refused, the points it marked
    # lead back to the orbit of 0.
    owner = [-1] * 8
    assert _orbit(0, owner, [_swap(1)], iter(()), 2) == [0, 1]
    cycle = [0, 2, 3, 1, 4, 5, 6, 7]
    assert _orbit(2, owner, [cycle], iter(()), 3) is None
    assert _met(2, owner, [cycle]) == 0


def test_an_orbit_that_runs_into_an_earlier_one_names_the_earlier_class(
        monkeypatch):
    # #Stab(A0, B) of the first class of (2,1,3,2) is planted at twice
    # its count, so its orbit is accepted at half its size, and a later
    # orbit runs into it.  The class named is that first one, whose
    # orbit, not closed after all, counts as none.
    first = enumerate_census(FqField(3, 2), 2, 1).classes[0].rep
    assert first == (((0, 0), (0, 1)), ((1, 0), (0, 0)))
    real = _Stabilizers.of_pair
    asked = []

    def planted(self, basis, count, B):
        asked.append(B)
        aut = real(self, basis, count, B)
        return 2 * aut if len(asked) == 1 else aut

    monkeypatch.setattr(_Stabilizers, "of_pair", planted)
    with pytest.raises(MismatchDetected,
                       match="^" + re.escape(
                           "census h=2 d=1 p=3 k=2, |GL_h| against "
                           f"|orbit| * #Aut for the class of {first}: "
                           "predicted 5760, observed 0") + "$"):
        enumerate_census(FqField(3, 2), 2, 1)


@pytest.mark.parametrize("factor", [2, "p"])
@pytest.mark.parametrize("h,d,p,k", [(2, 1, 3, 2), (3, 1, 2, 2),
                                     (4, 2, 2, 1)])
def test_a_wrong_pair_stabilizer_count_is_a_mismatch(monkeypatch, h, d, p, k,
                                                     factor):
    # #Stab(A0, B) of the first B asked, the least of the first class, is
    # planted too large: the orbit grown to the size it predicts is then
    # not the whole orbit, or not an orbit at all, and the census names
    # a class whose |orbit| * #Aut is not |GL_h|.
    real = _Stabilizers.of_pair
    asked = []

    def planted(self, basis, count, B):
        asked.append(B)
        aut = real(self, basis, count, B)
        return aut * (p if factor == "p" else factor) if len(asked) == 1 \
            else aut

    monkeypatch.setattr(_Stabilizers, "of_pair", planted)
    with pytest.raises(MismatchDetected,
                       match=rf"^census h={h} d={d} p={p} k={k}, \|GL_h\| "
                             rf"against \|orbit\| \* #Aut for the class of "
                             rf"\(\(\("):
        enumerate_census(FqField(p, k), h, d)


REFERENCE_SHAPES = sorted(set(CANDIDATE_SHAPES) | {
    (2, 1, 2, 2, None), (2, 1, 3, 1, None), (2, 0, 3, 1, None),
    (4, 2, 2, 1, None), (4, 1, 2, 1, None), (3, 0, 3, 1, None),
    (3, 3, 3, 1, None), (2, 1, 2, 3, None), (2, 0, 2, 3, None),
    (2, 2, 2, 3, None)}, key=repr)


@pytest.mark.parametrize("h,d,p,k,modulus", REFERENCE_SHAPES)
def test_census_matches_the_pair_route(h, d, p, k, modulus):
    F = FqField(p, k, modulus=modulus)
    assert enumerate_census(F, h, d).classes == census_by_pairs(F, h, d)


@pytest.mark.parametrize("h,d,p,k", [(2, 1, 2, 2), (2, 0, 2, 2),
                                     (2, 2, 2, 3), (2, 1, 3, 1),
                                     (3, 1, 2, 1)])
def test_stabilizers_by_linear_algebra_match_the_group(h, d, p, k):
    # #Stab(A) and #Stab(A, B) by linear algebra against a count of the
    # g in GL_h that fix A, or the pair, under the twisted action.  The
    # elements that come with #Stab(A) are those g, or, when Stab(A) is
    # all of GL_h (A = 0 here), the generators of GL_h.
    F = FqField(p, k)
    stabs = _Stabilizers(F.row_tables(h))
    digits = F.row_tables(h).digits
    gl = enumerate_gl(F, h)
    pairs = candidates_by_scan(F, h, d)
    for A, B in pairs[::max(1, len(pairs) // 6)]:
        basis, count, elements = stabs.of_half(coded_pair(F, (A, B))[:h])
        fixing = [g for g in gl if twisted_action(F, g, (A, B))[0] == A]
        assert count == len(fixing)
        elements = [tuple(map(digits.__getitem__, X)) for X in elements]
        if count == len(gl):
            assert elements == gl_generators(F, h)
        else:
            assert sorted(elements) == sorted(fixing)
        assert stabs.of_pair(basis, count, coded_pair(F, (A, B))[h:]) == \
            sum(twisted_action(F, g, (A, B)) == (A, B) for g in fixing)


def _span_units(F, basis):
    """Every invertible F_p-combination of basis, each a tuple of h row
    codes, as a matrix of field codes: the enumerated units of the
    stabilizer that basis spans."""
    h = len(basis[0])
    digits = F.row_tables(h).digits
    mats = [[digits[u] for u in X] for X in basis]
    for coeffs in itertools.product(range(F.p), repeat=len(mats)):
        X = tuple(tuple(functools.reduce(F.add, (
            F.mul(c, M[i][j]) for c, M in zip(coeffs, mats)), 0)
            for j in range(h)) for i in range(h))
        if mat_rank(F, X) == h:
            yield X


@pytest.mark.parametrize("h,d,p,k", [(2, 1, 2, 2), (2, 1, 3, 2),
                                     (2, 1, 2, 3)])
def test_stabilizer_units_fix_their_rep_under_the_half_moves(h, d, p, k,
                                                             monkeypatch):
    # For each class rep (A0, B): every unit of the subspace linear
    # algebra solves for Stab(A0) fixes A0, and every unit of the one
    # for Stab(A0, B) fixes the pair, under the half moves the orbit
    # search applies (generator_move).  Equal counts alone cannot see a
    # p-th power swapped for a p-th root where both subspaces have as
    # many units.  The units the census splits fibres with are those of
    # Stab(A0), in span order.
    F = FqField(p, k)
    stabs = _Stabilizers(F.row_tables(h))
    digits = F.row_tables(h).digits
    solved = []
    solve = _Stabilizers._solve

    def recorded(self, basis, M, twist):
        solved.append(solve(self, basis, M, twist))
        return solved[-1]

    classes = enumerate_census(F, h, d).classes
    monkeypatch.setattr(_Stabilizers, "_solve", recorded)
    for c in classes:
        pair = coded_pair(F, c.rep)
        solved.clear()
        basis, count, units = stabs.of_half(pair[:h])
        aut = stabs.of_pair(basis, count, pair[h:])
        assert aut == c.aut_count
        half, inner = solved
        units = [tuple(map(digits.__getitem__, X)) for X in units]
        # The same units in the same order, so as a set and a count.
        assert units == list(_span_units(F, half))
        for X in units:
            assert apply_move(generator_move(F, X), pair)[:h] == pair[:h]
        assert len(units) == count
        fixing_pair = 0
        for X in _span_units(F, inner):
            assert apply_move(generator_move(F, X), pair) == pair
            fixing_pair += 1
        assert fixing_pair == aut


def test_stabilizer_enumeration_is_charged_to_the_search_bound(monkeypatch):
    # The stabilizer of A = E_33 in M_3(F_2) spans 2^5 matrices, 6 of
    # them invertible; they are enumerated only while the charge fits
    # the bound.
    F = FqField(2)
    T = F.row_tables(3)
    A = (0, 0, 1)
    _, count, units = _Stabilizers(T).of_half(A)
    assert count == len(list(units)) == 6
    monkeypatch.setattr(fforacle, "DEFAULT_SEARCH_BOUND", 31)
    with pytest.raises(SearchSpaceTooLarge,
                       match="^about 32 stabilizer elements exceed the "
                             "bound 31$"):
        _Stabilizers(T).of_half(A)


def test_a_planted_half_outside_the_candidates_is_refused(monkeypatch):
    # Each generator's A-half move (the one compiled with the p-th
    # power) sends every row of A to 0, and the zero matrix is no
    # candidate's A at d = 1.
    real = fforacle._half_move

    def planted(T, g, twist):
        sources, steps = real(T, g, twist)
        if twist is not T.frob:
            return sources, steps
        zero = [0] * len(T.digits)
        return tuple((s, zero) for s, _ in sources), ()

    monkeypatch.setattr(fforacle, "_half_move", planted)
    with pytest.raises(AssertionError,
                       match="^a generator image left the candidates$"):
        enumerate_census(FqField(3), 2, 1)


def test_generator_tables_compiled_with_the_pth_root_are_refused(
        monkeypatch):
    # Over F_8 the p-th power and the p-th root differ.  A-level tables
    # compiled with the root still send every A to a candidate, so the
    # move tables accept them; g A0 = A' g^[p] at each A-orbit seed
    # refuses them.
    real = fforacle._half_move

    def planted(T, g, twist):
        return real(T, g, T.frob_inv if twist is T.frob else twist)

    monkeypatch.setattr(fforacle, "_half_move", planted)
    with pytest.raises(AssertionError,
                       match=r"^a generator's move table disagrees with "
                             r"g A0 = A' g\^\[p\]$"):
        enumerate_census(FqField(2, 3), 2, 1)


def test_gl_enumeration_orders():
    fields = [FqField(2), FqField(3), FqField(2, 2), FqField(5)]
    for F in fields:
        assert enumerate_gl(F, 0) == ((),)
        for h in (1, 2, 3) if F.q <= 3 else (1, 2):
            got = enumerate_gl(F, h)
            assert len(got) == gl_order(F.q, h)
            assert len(set(got)) == len(got)
    assert len(enumerate_gl(fields[0], 1)) == 1


def _no_tuple_matrices(*args):
    raise AssertionError("the census reached tuple-matrix arithmetic")


def test_the_census_reaches_no_tuple_matrix_arithmetic(monkeypatch):
    """The census builds GL_d and GL_(h-d) and its generator moves on
    row codes alone: with every tuple-matrix helper made to raise, it
    gives the same reports."""
    shapes = [(2, 0, 3, 1), (2, 2, 3, 1), (3, 1, 2, 1), (2, 1, 2, 2)]
    expected = [enumerate_census(FqField(p, k), h, d)
                for h, d, p, k in shapes]
    checked = crosscheck(BTParams(2, 1, 3))
    for name in ("mat_mul", "mat_inv", "mat_frob", "mat_frob_inv", "_rref",
                 "twisted_action", "enumerate_gl"):
        monkeypatch.setattr(fforacle, name, _no_tuple_matrices)
    assert [enumerate_census(FqField(p, k), h, d)
            for h, d, p, k in shapes] == expected
    assert crosscheck(BTParams(2, 1, 3)) == checked


def test_census_class_structure():
    rep = enumerate_census(FqField(2), 2, 1)
    rows = sorted((c.orbit_size, c.aut_count) for c in rep.classes)
    assert rows == [(3, 2), (6, 1)]
    for c in rep.classes:
        assert c.orbit_size * c.aut_count == rep.group_order
    assert sum(c.orbit_size for c in rep.classes) == rep.candidate_count


def test_unit_height_census():
    rep = enumerate_census(FqField(2), 1, 1)
    assert len(rep.classes) == 1
    assert rep.groupoid_cardinality == 1
    rep3 = enumerate_census(FqField(3), 1, 0)
    assert len(rep3.classes) == 2
    assert rep3.groupoid_cardinality == 1
    rep9 = enumerate_census(FqField(3, 2), 1, 1)
    assert sorted((c.orbit_size, c.aut_count) for c in rep9.classes) == \
        [(4, 2), (4, 2)]
    assert rep9.groupoid_cardinality == 1


def test_modulus_choice_does_not_matter():
    default = FqField(2, 3)
    other = FqField(2, 3, modulus=(1, 0, 1, 1))
    assert default.modulus != other.modulus
    a = enumerate_census(default, 2, 1)
    b = enumerate_census(other, 2, 1)
    assert a.groupoid_cardinality == b.groupoid_cardinality == Fraction(9, 8)
    assert a.candidate_count == b.candidate_count
    assert sorted((c.orbit_size, c.aut_count) for c in a.classes) == \
        sorted((c.orbit_size, c.aut_count) for c in b.classes)
    f9a = enumerate_census(FqField(3, 2), 1, 1)
    f9b = enumerate_census(FqField(3, 2, modulus=(2, 1, 1)), 1, 1)
    assert sorted((c.orbit_size, c.aut_count) for c in f9a.classes) == \
        sorted((c.orbit_size, c.aut_count) for c in f9b.classes)


def test_search_space_guard(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("zipzeta.fforacle.DEFAULT_SEARCH_BOUND", 10)
        with pytest.raises(SearchSpaceTooLarge, match="exceed the bound 10$"):
            enumerate_census(FqField(2), 2, 1)
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_census(FqField(2), 5, 2)
    with pytest.raises(ValueError):
        enumerate_census(FqField(2), 2, 3)
    for h, d in [(True, 0), (2, True)]:
        with pytest.raises(ValueError):
            enumerate_census(FqField(2), h, d)
    # 16769025 candidates alone would fit under 2^24; the guard also
    # counts the two row-code tables of Q^2 entries each, Q = 64^2.
    with pytest.raises(SearchSpaceTooLarge,
                       match=f"^about {16769025 + 2 * 4096 ** 2} candidates "
                             f"and row-table entries exceed the bound "
                             f"{2 ** 24}$"):
        enumerate_census(FqField(2, 6), 2, 1)


def test_search_space_guard_refuses_before_counting():
    # The exact count here has about 1.2 million digits; the row tables
    # alone are over the bound, so it is never formed.
    start = time.monotonic()
    with pytest.raises(SearchSpaceTooLarge,
                       match=r"^the row-code tables alone, 2 \* 2\^4000 "
                             r"entries, exceed the bound 16777216$"):
        enumerate_census(FqField(2), 2000, 1000)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("k,h,d,candidates", [
    (2, 2, 1, 5760000), (2, 2, 0, 5644800)])
def test_search_space_guard_counts_the_row_tables(k, h, d, candidates):
    # Over F_49 the two row tables of 2401^2 entries each tip the total
    # over 2^24, so nothing is built.
    with pytest.raises(SearchSpaceTooLarge,
                       match=f"^about {candidates + 2 * 2401 ** 2} "):
        enumerate_census(FqField(7, k), h, d)


def test_a_height_below_one_is_refused():
    with pytest.raises(ValueError,
                       match="^height must be a positive integer$"):
        enumerate_census(FqField(2), 0, 0)


@pytest.mark.parametrize("h", [13, 10 ** 6])
def test_the_early_guard_refuses_from_the_row_tables_alone(h):
    # Over F_2 the row tables hold 2 * 2^(2h) entries, past the bound's
    # bit length, 25, from h = 13 on; no count is formed, whatever h.
    start = time.monotonic()
    with pytest.raises(SearchSpaceTooLarge,
                       match=rf"^the row-code tables alone, 2 \* 2\^{2 * h} "
                             rf"entries, exceed the bound 16777216$"):
        enumerate_census(FqField(2), h, 1)
    assert time.monotonic() - start < 0.5


def test_the_early_guard_leaves_h_12_to_the_cost_guard():
    with pytest.raises(SearchSpaceTooLarge,
                       match="^about .* candidates and row-table entries "
                             "exceed the bound 16777216$"):
        enumerate_census(FqField(2), 12, 1)


def test_the_cost_guard_at_its_boundary(monkeypatch):
    # (2,1) over F_2: 9 A, each with |GL_1| = 1 B, and the two row
    # tables of 2^4 entries each.
    cost = _rank_count(2, 2, 1) * gl_order(2, 1) + 2 * 2 ** (2 * 2)
    assert cost == 41
    monkeypatch.setattr(fforacle, "DEFAULT_SEARCH_BOUND", cost)
    assert enumerate_census(FqField(2), 2, 1).candidate_count == 9
    monkeypatch.setattr(fforacle, "DEFAULT_SEARCH_BOUND", cost - 1)
    with pytest.raises(SearchSpaceTooLarge,
                       match="^about 41 candidates and row-table entries "
                             "exceed the bound 40$"):
        enumerate_census(FqField(2), 2, 1)


def test_action_is_compositional():
    F = FqField(2, 2)
    pairs = candidates_by_scan(F, 2, 1)[:4]
    gl = enumerate_gl(F, 2)
    sample = [gl[1], gl[5], gl[-1]]
    for g in sample:
        for gp in sample:
            gg = mat_mul(F, g, gp)
            for X in pairs:
                assert twisted_action(F, g, twisted_action(F, gp, X)) == \
                    twisted_action(F, gg, X)


def test_crosscheck_agrees():
    rep = crosscheck(BTParams(2, 1, 2))
    assert rep.ok and rep.predicted == rep.observed == Fraction(3, 2)
    rep2 = crosscheck(BTParams(2, 1, 2), k=2)
    assert rep2.ok and rep2.observed == Fraction(5, 4)


def test_crosscheck_mismatch(monkeypatch):
    monkeypatch.setattr("zipzeta.btgl.bt_zeta",
                        lambda params: ZetaProduct({(0, 1): 999}))
    with pytest.raises(MismatchDetected) as info:
        crosscheck(BTParams(2, 1, 2))
    assert info.value.predicted == Fraction(999)
    assert info.value.observed == Fraction(3, 2)
