"""Finite crystallographic root systems built from Cartan matrices.

Roots are stored as integer coordinate tuples in the basis of simple
roots.  The pairing convention is

    c[i][j] = <alpha_j, alpha_i_check>,

so the simple reflection s_i acts on a root with coordinates (a_1, ...)
by subtracting (sum_j a_j * c[i][j]) from the i-th coordinate.  Simple
roots are indexed 1..rank in the public interface.

`degrees` names each component of the Dynkin diagram by its shape and
reads the degrees of its Weyl group off the standard table.  That alone
decides finite type and gives the exact number of positive roots,
sum(d - 1).  A system closes its roots under the simple reflections
only when they are first read, and asserts that count.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (GroupTooLarge, InvalidCartan, NotFiniteType,
                     RootNotInSystem, _is_int)

DEFAULT_ROOT_CAP = 10000


class CartanMatrix:
    """Square integer matrix with the sign pattern of a Cartan matrix.

    Accepts any generalized Cartan matrix; finiteness is checked later by
    `build_root_system`.  The empty matrix is allowed and gives the
    rank-zero system.
    """

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidCartan("matrix is not square")
            for x in row:
                if not _is_int(x):
                    raise InvalidCartan(f"entry {x!r} is not an integer")
        for i in range(n):
            if rows[i][i] != 2:
                raise InvalidCartan(
                    f"diagonal entry ({i + 1},{i + 1}) is {rows[i][i]}, expected 2")
            for j in range(n):
                if i == j:
                    continue
                if rows[i][j] > 0:
                    raise InvalidCartan(
                        f"off-diagonal entry ({i + 1},{j + 1}) is positive")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise InvalidCartan(
                        f"zero pattern is asymmetric at ({i + 1},{j + 1})")
        self.entries = tuple(rows)
        self.rank = n
        # (column, entry) for the nonzero entries of each row: all that a
        # simple reflection reads.
        self._row_support = tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in rows)

    def entry(self, i, j):
        """Pairing <alpha_j, alpha_i_check>, with 1-based i and j."""
        return self.entries[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CartanMatrix({[list(r) for r in self.entries]})"


def cartan_matrix(family, rank):
    """Standard Cartan matrix of a classical family.

    family "A" needs rank >= 1, "B" and "C" need rank >= 2, "D" needs
    rank >= 3.  Nodes are numbered along the chain; for "B"/"C" the last
    node is the short/long end, for "D" the last node hangs off node
    rank-2.
    """
    family = family.upper()
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}
    if family not in minimum:
        raise InvalidCartan(f"unknown family {family!r}")
    if rank < minimum[family]:
        raise InvalidCartan(f"family {family} needs rank >= {minimum[family]}")
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i, j, cij=-1, cji=-1):
        m[i][j] = cij
        m[j][i] = cji

    if family == "D":
        for i in range(rank - 2):
            join(i, i + 1)
        join(rank - 3, rank - 1)
    else:
        for i in range(rank - 1):
            join(i, i + 1)
        if family == "B":
            join(rank - 1, rank - 2, -2, -1)
        elif family == "C":
            join(rank - 1, rank - 2, -1, -2)
    return CartanMatrix(m)


def direct_sum(*matrices):
    """Block-diagonal sum of Cartan matrices."""
    mats = [m if isinstance(m, CartanMatrix) else CartanMatrix(m) for m in matrices]
    total = sum(m.rank for m in mats)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for m in mats:
        for i in range(m.rank):
            for j in range(m.rank):
                out[offset + i][offset + j] = m.entries[i][j]
        offset += m.rank
    return CartanMatrix(out)


class Root(namedtuple("Root", "coords")):
    """A root as an integer coordinate tuple over the simple roots."""

    __slots__ = ()

    @property
    def height(self):
        return sum(self.coords)

    def is_positive(self):
        return any(self.coords) and all(c >= 0 for c in self.coords)

    def support(self):
        """1-based indices of the nonzero coordinates."""
        return frozenset(i + 1 for i, c in enumerate(self.coords) if c)

    def __neg__(self):
        return Root(tuple(-c for c in self.coords))

    def __repr__(self):
        return f"Root{self.coords}"


def _reflect_coords(cartan, i, root):
    coords = root.coords
    pairing = sum(x * coords[j] for j, x in cartan._row_support[i - 1])
    if not pairing:
        return root
    coords = list(coords)
    coords[i - 1] -= pairing
    return Root(tuple(coords))


class RootSystem:
    """A finite root system with a fixed total order on its roots.

    Ordinals 0..m-1 are the positive roots sorted by height (ties broken
    so that simple root i gets ordinal i-1); ordinals m..2m-1 are the
    negatives in the same order, so negation is a shift by m.  The count
    m is known from the degrees; the roots are closed on first read.
    """

    def __init__(self, cartan, n_positive):
        self.cartan = cartan
        self.rank = cartan.rank
        self.n_positive = n_positive
        self._subsystem_ordinals = {}
        self._positive_outside = {}

    @cached_property
    def positive_roots(self):
        """The closure of the simple roots under the simple reflections,
        which s_i takes through the positive roots but alpha_i (Humphreys,
        "Reflection groups and Coxeter groups", 1.4)."""
        simples = [self.simple_root(i) for i in range(1, self.rank + 1)]
        seen = frontier = set(simples)
        while frontier:
            # s_i sends alpha_i, and only alpha_i, below zero.
            frontier = {_reflect_coords(self.cartan, i, r) for r in frontier
                        for i in range(1, self.rank + 1)
                        if r != simples[i - 1]} - seen
            assert all(r.is_positive() for r in frontier)
            seen |= frontier
        assert len(seen) == self.n_positive, "the degrees miscount the roots"
        positives = sorted(
            seen, key=lambda r: (r.height, tuple(-c for c in r.coords)))
        assert positives[:self.rank] == simples
        return positives

    @cached_property
    def roots(self):
        return self.positive_roots + [-r for r in self.positive_roots]

    @cached_property
    def _ordinal(self):
        return {r: k for k, r in enumerate(self.roots)}

    def __len__(self):
        return 2 * self.n_positive

    def simple_root(self, i):
        coords = [0] * self.rank
        coords[i - 1] = 1
        return Root(tuple(coords))

    def ordinal(self, root):
        try:
            return self._ordinal[root]
        except KeyError:
            raise RootNotInSystem(f"{root} is not a root of this system") from None

    def root(self, k):
        return self.roots[k]

    def is_positive_ordinal(self, k):
        return k < self.n_positive

    def negate_ordinal(self, k):
        m = self.n_positive
        return k - m if k >= m else k + m

    def reflect(self, i, root):
        """Image of root under the simple reflection s_i."""
        self.ordinal(root)
        return _reflect_coords(self.cartan, i, root)

    def reflection_perm(self, i):
        """s_i as a permutation of root ordinals, built afresh: the
        Weyl tables keep the one copy the library reads."""
        # A root with pairing 0 is fixed and keeps its ordinal; the
        # negative half is the positive one shifted by m, since
        # s_i(-r) = -s_i(r).
        m = self.n_positive
        half = []
        for k, r in enumerate(self.positive_roots):
            image = _reflect_coords(self.cartan, i, r)
            half.append(k if image is r else self.ordinal(image))
        return tuple(half + [k + m if k < m else k - m for k in half])

    def subsystem_ordinals(self, subset):
        """Ordinals of the roots supported on the given simple indices."""
        key = frozenset(subset)
        got = self._subsystem_ordinals.get(key)
        if got is None:
            got = frozenset(k for k, r in enumerate(self.roots)
                            if r.support() <= key)
            self._subsystem_ordinals[key] = got
        return got

    def positive_outside(self, subset):
        """Ordinals of positive roots not supported on the subset, in
        increasing order.

        The count is the dimension of the corresponding partial flag
        variety.
        """
        key = frozenset(subset)
        got = self._positive_outside.get(key)
        if got is None:
            inside = self.subsystem_ordinals(key)
            got = tuple(k for k in range(self.n_positive) if k not in inside)
            self._positive_outside[key] = got
        return got

    def __repr__(self):
        return f"RootSystem(rank={self.rank}, positive={self.n_positive})"


def _component_degrees(c, adj, comp):
    """The degrees of a connected diagram, or None if it is not of
    finite type."""
    n = len(comp)
    bonds = [(c[i][j] * c[j][i], i, j) for i in comp for j in adj[i] if i < j]
    heavy = [bond for bond in bonds if bond[0] > 1]
    branch = [i for i in comp if len(adj[i]) > 2]
    if len(bonds) != n - 1 or len(heavy) + len(branch) > 1:
        return None  # a cycle, or more than one bond or branch to place
    if heavy:
        bond, i, j = heavy[0]
        if bond == 2 and 1 in (len(adj[i]), len(adj[j])):
            return list(range(2, 2 * n + 1, 2))  # B_n, C_n
        return {(2, 4): [2, 6, 8, 12], (3, 2): [2, 6]}.get((bond, n))
    if not branch:
        return list(range(2, n + 2))  # A_n
    arms = []
    for prev, i in [(branch[0], j) for j in adj[branch[0]]]:
        arms.append(1)
        while len(adj[i]) == 2:
            prev, i = i, sum(adj[i]) - prev  # the next node along the arm
            arms[-1] += 1
    arms.sort()
    if len(arms) != 3 or arms[0] != 1 or arms[1] > 2:
        return None
    if arms[1] == 1:
        return list(range(2, 2 * n - 1, 2)) + [n]  # D_n
    return {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
            8: [2, 8, 12, 14, 18, 20, 24, 30]}.get(n)  # E6, E7, E8


def degrees(cartan, nodes=None):
    """The degrees of the Weyl group of the diagram on the given 1-based
    nodes (all of them when nodes is None), as one flat list.

    Each connected component is named by its shape (Humphreys,
    "Reflection groups and Coxeter groups", 2.4; degrees from 3.7).  With
    every bond product c_ij * c_ji equal to 1, a path is A_n, and a tree
    with one branch node is D_n or E6-E8 when two of its arms have one
    node, or one and two.  A path with one double bond is B_n or C_n with
    the bond at an end, F4 with it in the middle of four nodes; a triple
    bond alone is G2.  Any other diagram raises NotFiniteType.
    """
    rank = cartan.rank
    nodes = range(1, rank + 1) if nodes is None else nodes
    for i in nodes:
        if not _is_int(i) or not 1 <= i <= rank:
            raise ValueError(f"parabolic index {i!r} out of range")
    c = cartan.entries
    left = {i - 1 for i in nodes}
    adj = {i: [j for j in left if j != i and c[i][j]] for i in left}
    out = []
    while left:
        comp = [min(left)]
        for i in comp:
            comp += [j for j in adj[i] if j not in comp]
        left -= set(comp)
        got = _component_degrees(c, adj, comp)
        if got is None:
            raise NotFiniteType(f"the diagram on nodes "
                                f"{sorted(k + 1 for k in comp)} is not of "
                                "finite type")
        out += got
    return out


def build_root_system(cartan):
    """The root system of a Cartan matrix, its roots not yet closed.

    Raises NotFiniteType if the matrix is not of finite type, and
    GroupTooLarge if the system has more than DEFAULT_ROOT_CAP positive
    roots; the count sum(d - 1) over the degrees is exact.
    """
    if not isinstance(cartan, CartanMatrix):
        cartan = CartanMatrix(cartan)
    count = sum(d - 1 for d in degrees(cartan))
    if count > DEFAULT_ROOT_CAP:
        raise GroupTooLarge(f"the root system has at least {count} positive "
                            f"roots, over the cap of {DEFAULT_ROOT_CAP}")
    return RootSystem(cartan, count)
