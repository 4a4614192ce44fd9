"""Finite crystallographic root systems built from Cartan matrices.

Roots are stored as integer coordinate tuples in the basis of simple
roots.  The pairing convention is

    c[i][j] = <alpha_j, alpha_i_check>,

so the simple reflection s_i acts on a root with coordinates (a_1, ...)
by subtracting (sum_j a_j * c[i][j]) from the i-th coordinate.  Simple
roots are indexed 1..rank in the public interface.

A system is built by closing the simple roots under the simple
reflections, within the positive roots.  Non-finite input is rejected
before the closure starts, by the definiteness of the symmetrized
matrix, and so is a system whose diagram components must have more
positive roots than the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Root:
    """A root as an integer coordinate tuple over the simple roots."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

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
    negatives in the same order, so negation is a shift by m.
    """

    def __init__(self, cartan, positive_roots):
        self.cartan = cartan
        self.rank = cartan.rank
        self.positive_roots = list(positive_roots)
        self.n_positive = len(self.positive_roots)
        self.roots = self.positive_roots + [-r for r in self.positive_roots]
        self._ordinal = {r: k for k, r in enumerate(self.roots)}
        self._reflection_perms = {}
        self._subsystem_ordinals = {}
        self._positive_outside = {}
        for i in range(1, self.rank + 1):
            assert self.roots[i - 1] == self.simple_root(i)

    def __len__(self):
        return len(self.roots)

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
        """s_i as a permutation of root ordinals."""
        perm = self._reflection_perms.get(i)
        if perm is None:
            # A root with pairing 0 is fixed and keeps its ordinal; the
            # negative half is the positive one shifted by m, since
            # s_i(-r) = -s_i(r).
            m = self.n_positive
            half = []
            for k, r in enumerate(self.positive_roots):
                image = _reflect_coords(self.cartan, i, r)
                half.append(k if image is r else self.ordinal(image))
            perm = tuple(half + [k + m if k < m else k - m for k in half])
            self._reflection_perms[i] = perm
        return perm

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


def _check_finite_type(cartan):
    """Raise NotFiniteType unless the matrix is of finite type; return
    the ranks of the components of its diagram.

    Finite type means symmetrizable, diag(eps) * C symmetric for some
    positive eps, with a positive definite symmetrization (Kac,
    Infinite-dimensional Lie algebras, ch. 4).  eps is propagated along
    the edges of each component; definiteness is read off the pivots of
    exact elimination, whose products are the leading minors.
    """
    c = cartan.entries
    n = cartan.rank
    eps = [None] * n
    ranks = []
    for start in range(n):
        if eps[start] is not None:
            continue
        eps[start] = Fraction(1)
        stack = [start]
        ranks.append(0)
        while stack:
            i = stack.pop()
            ranks[-1] += 1
            for j in range(n):
                if j == i or c[i][j] == 0:
                    continue
                want = eps[i] * c[i][j] / c[j][i]
                if eps[j] is None:
                    eps[j] = want
                    stack.append(j)
                elif eps[j] != want:
                    raise NotFiniteType("the Cartan matrix is not "
                                        "symmetrizable")
    m = [[eps[i] * c[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            raise NotFiniteType(
                f"the symmetrized Cartan matrix is not positive definite "
                f"(leading minor {k + 1})")
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return ranks


def _too_many(count):
    return GroupTooLarge(f"the root system has at least {count} positive "
                         f"roots, over the cap of {DEFAULT_ROOT_CAP}")


def build_root_system(cartan):
    """Close the simple roots under simple reflections.

    Raises NotFiniteType if the matrix is not of finite type, and
    GroupTooLarge if the system has more than DEFAULT_ROOT_CAP positive
    roots.  Both are found before the closure starts, the second as far
    as the lower bound allows: a component of rank r has at least
    r(r + 1)/2 positive roots, as many as A_r.  The closure walks the
    positive roots alone, since s_i sends every positive root but
    alpha_i to a positive root (Humphreys, "Reflection groups and
    Coxeter groups", 1.4), and checks the cap after each level.
    """
    if not isinstance(cartan, CartanMatrix):
        cartan = CartanMatrix(cartan)
    least = sum(r * (r + 1) // 2 for r in _check_finite_type(cartan))
    if least > DEFAULT_ROOT_CAP:
        raise _too_many(least)
    simples = [
        Root(tuple(1 if j == i else 0 for j in range(cartan.rank)))
        for i in range(cartan.rank)
    ]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        next_frontier = []
        for root in frontier:
            # s_i sends alpha_i, and only alpha_i, below zero.
            own = root.coords.index(1) + 1 if root.height == 1 else None
            for i in range(1, cartan.rank + 1):
                if i == own:
                    continue
                image = _reflect_coords(cartan, i, root)
                if image not in seen:
                    assert image.is_positive()
                    seen.add(image)
                    next_frontier.append(image)
        if len(seen) > DEFAULT_ROOT_CAP:
            raise _too_many(len(seen))
        frontier = next_frontier
    positives = sorted(
        seen, key=lambda r: (r.height, tuple(-c for c in r.coords)))
    return RootSystem(cartan, positives)
