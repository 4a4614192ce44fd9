"""Extension of the Weyl group by a finite component group.

The component group Omega is given by an explicit multiplication table
together with, for each element, a signed permutation of the simple
roots (entry -j at position i means alpha_i maps to -alpha_j).  Signs
are allowed because some presentations act by -1 on the root lattice;
unsigned actions permute the positive roots.  Actions may be
non-faithful.  Any pairing-preserving signed permutation extends to a
permutation of the whole root system, built per element on first use.

The extended group is the semidirect product: elements are pairs
(w, omega) standing for the product w * omega, so

    (w, a) * (w', b)  =  (w * (a w' a^{-1}), a b).

For a subset I of simple indices, the minimal set consists of the pairs
whose Weyl part is a minimal left-coset representative.  Every element
of it factors as omega * y * w_J with y minimal in a double coset, and
the extended length counts the positive roots outside J that the map
omega * y sends to negative roots outside I, plus the length of w_J.
It is counted on (w, omega) without factoring: omega * y * w_J is
w * omega, W_J permutes the positive roots outside J and y keeps those
of J positive.  So it counts the positive roots outside J that w * omega
sends to negative roots outside I, plus the positive roots of J that
omega^{-1} * w * omega makes negative, that is, that w * omega sends
into omega(Phi^-).  When omega acts without signs this is the length of w.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (InvalidFrobenius, InvalidOmegaTable, MixedGroups,
                     NotInExtMinSet, _is_int)


def _compose_signed(outer, inner):
    """Composition of signed permutations of 1..r, outer after inner."""
    out = []
    for s in inner:
        t = outer[abs(s) - 1]
        out.append(-t if s < 0 else t)
    return tuple(out)


def _invert_signed(action):
    out = [0] * len(action)
    for i, s in enumerate(action, start=1):
        out[abs(s) - 1] = -i if s < 0 else i
    return tuple(out)


def _identity_signed(rank):
    return tuple(range(1, rank + 1))


def _preserves_pairing(cartan, action):
    """True when the signed permutation of the simple indices preserves
    the Cartan pairing; an unsigned one is the case with no signs."""
    c = cartan.entries
    return all(
        (-1 if (si < 0) != (sj < 0) else 1) * c[abs(si) - 1][abs(sj) - 1]
        == c[i][j]
        for i, si in enumerate(action) for j, sj in enumerate(action))


def _root_perm(rs, action):
    """The permutation of root ordinals induced by a pairing-preserving
    signed permutation of the simple roots."""
    if action == _identity_signed(rs.rank):
        return tuple(range(2 * rs.n_positive))
    perm = []
    for r in rs.roots:
        coords = [0] * rs.rank
        for c, s in zip(r.coords, action):
            coords[abs(s) - 1] = -c if s < 0 else c
        perm.append(rs.ordinal(type(r)(tuple(coords))))
    return tuple(perm)


def _conjugate(tables, rp, rpinv, w):
    """rp * w * rp^{-1} for root permutations rp and rpinv = rp^{-1},
    as the table's copy."""
    wp = w.perm
    return tables._intern(tuple([rp[wp[b]] for b in rpinv]))


class OmegaGroup:
    """Finite labelled group with a signed diagram action."""

    def __init__(self, rs, labels, table, actions):
        self.rs = rs
        labels = list(labels)
        n = len(labels)
        if n == 0:
            raise InvalidOmegaTable("component group has no elements")
        if len(set(labels)) != n:
            raise InvalidOmegaTable("component labels are not distinct")
        if any(not isinstance(x, str) for x in labels):
            raise InvalidOmegaTable("component labels must be strings")
        rows = [tuple(row) for row in table]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidOmegaTable("multiplication table is not n-by-n")
        for row in rows:
            for x in row:
                if not _is_int(x) or not 0 <= x < n:
                    raise InvalidOmegaTable(
                        f"table entry {x!r} is not an element index")
        for k in range(n):
            if sorted(rows[k]) != list(range(n)):
                raise InvalidOmegaTable(f"table row {k} is not a permutation")
            if sorted(r[k] for r in rows) != list(range(n)):
                raise InvalidOmegaTable(f"table column {k} is not a permutation")
        identity = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidOmegaTable("table has no identity element")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        raise InvalidOmegaTable(
                            f"table is not associative at ({a},{b},{c})")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if rows[a][b] == identity:
                    inverse[a] = b
        assert all(v is not None for v in inverse)

        rank = rs.rank
        acts = [tuple(a) for a in actions]
        if len(acts) != n:
            raise InvalidOmegaTable("need one diagram action per element")
        for k, act in enumerate(acts):
            if len(act) != rank:
                raise InvalidOmegaTable(
                    f"action of element {labels[k]!r} has wrong arity")
            if not all(map(_is_int, act)) or sorted(
                    abs(s) for s in act) != list(range(1, rank + 1)):
                raise InvalidOmegaTable(
                    f"action of element {labels[k]!r} is not a signed "
                    "permutation of the simple indices")
            if not _preserves_pairing(rs.cartan, act):
                raise InvalidOmegaTable(
                    f"action of element {labels[k]!r} does not "
                    "preserve the Cartan pairing")
        for a in range(n):
            for b in range(n):
                if _compose_signed(acts[a], acts[b]) != acts[rows[a][b]]:
                    raise InvalidOmegaTable(
                        "diagram actions are not a homomorphism at "
                        f"({labels[a]!r},{labels[b]!r})")
        assert acts[identity] == _identity_signed(rank)

        self.labels = labels
        self.table = rows
        self.actions = acts
        self.identity_index = identity
        self._inverse = tuple(inverse)
        self._index = {lab: k for k, lab in enumerate(labels)}

    @cached_property
    def _root_perms(self):
        return [_root_perm(self.rs, a) for a in self.actions]

    def __len__(self):
        return len(self.labels)

    def label(self, k):
        return self.labels[k]

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InvalidOmegaTable(f"unknown component label {label!r}") from None

    def mult(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self._inverse[a]

    def action(self, k):
        return self.actions[k]

    def root_perm(self, k):
        return self._root_perms[k]

    def conjugate_subset(self, k, I):
        """Image of a set of simple indices, signs dropped."""
        act = self.actions[k]
        return frozenset(abs(act[i - 1]) for i in I)

    @classmethod
    def trivial(cls, rs):
        return cls(rs, ["1"], [[0]], [_identity_signed(rs.rank)])


class ExtWeylElement:
    """Pair (w, omega) standing for the product w * omega."""

    __slots__ = ("group", "w", "omega")

    def __init__(self, group, w, omega):
        self.group = group
        self.w = w
        self.omega = omega

    def __mul__(self, other):
        if not isinstance(other, ExtWeylElement):
            return NotImplemented
        return self.group.multiply(self, other)

    def inverse(self):
        return self.group.inverse(self)

    def is_identity(self):
        return (self.omega == self.group.omega.identity_index
                and self.w.is_identity())

    def __eq__(self, other):
        return (isinstance(other, ExtWeylElement)
                and self.group is other.group
                and self.omega == other.omega and self.w == other.w)

    def __hash__(self):
        return hash((self.w.perm, self.omega))

    def __repr__(self):
        word = self.group.tables.word(self.w)
        return f"ExtWeylElement({word}, {self.group.omega.label(self.omega)!r})"


ExtDecomposition = namedtuple("ExtDecomposition", "omega_index wpp y w_J")


class ExtWeylGroup:
    """Semidirect product of a Weyl group and a component group acting
    on its diagram."""

    def __init__(self, tables, omega):
        if tables.rs is not omega.rs:
            raise MixedGroups("component group acts on a different root system")
        self.tables = tables
        self.omega = omega
        self.rs = tables.rs
        # Root sets of the length per (I, J, component), built on first use.
        self._length_sets = {}

    def element(self, w, omega):
        """Build an element from a Weyl part and a component label or
        index."""
        if isinstance(omega, str):
            omega = self.omega.index(omega)
        return ExtWeylElement(self, self.tables.canonical(w), omega)

    @property
    def identity(self):
        return self.element(self.tables.identity, self.omega.identity_index)

    def __len__(self):
        return len(self.tables) * len(self.omega)

    def twist_weyl(self, k, w):
        """Conjugate omega_k * w * omega_k^{-1} of a Weyl element.  The
        identity component permutes no root, so it returns w itself."""
        if k == self.omega.identity_index:
            return self.tables.canonical(w)
        return _conjugate(self.tables, self.omega.root_perm(k),
                          self.omega.root_perm(self.omega.inverse(k)), w)

    def multiply(self, a, b):
        if a.group is not self or b.group is not self:
            raise MixedGroups("elements belong to different extended groups")
        w = a.w * self.twist_weyl(a.omega, b.w)
        return self.element(w, self.omega.mult(a.omega, b.omega))

    def inverse(self, a):
        k = self.omega.inverse(a.omega)
        return self.element(self.twist_weyl(k, a.w.inverse()), k)

    def min_reps(self, I):
        """The minimal set, component-major: for each component in label
        order, the minimal coset representatives in (length, word)
        order."""
        return [ExtWeylElement(self, w, k)
                for k in range(len(self.omega))
                for w in self.tables.min_left(I)]

    def _check_min(self, a, I):
        """MixedGroups unless a belongs to this group, NotInExtMinSet
        unless it lies in the minimal set for I."""
        if a.group is not self:
            raise MixedGroups("element belongs to a different extended group")
        if not self.tables.is_min_left(a.w, I):
            raise NotInExtMinSet(
                "Weyl part has a left descent in the parabolic type")

    def canonical_decomposition(self, a, I, J):
        """Factor a = omega * w'' = omega * y * w_J.

        Here w'' is the conjugate of the Weyl part by omega^{-1}; it is
        minimal for the conjugated type, and splits through the double
        coset as y * w_J.  Raises NotInExtMinSet when a is not in the
        minimal set for I.
        """
        self._check_min(a, I)
        kinv = self.omega.inverse(a.omega)
        wpp = self.twist_weyl(kinv, a.w)
        Ipp = self.omega.conjugate_subset(kinv, I)
        # A signed map that preserves the pairing keeps one sign on each
        # component of the diagram, so on the roots it is a diagram
        # automorphism times -1 on some components.  The sign commutes
        # with W, so the conjugation sends s_i to s_|sigma(i)| and keeps
        # lengths: it carries the left descents of a.w, none in I, onto
        # those of wpp.
        assert self.tables.is_min_left(wpp, Ipp), (
            "conjugated Weyl part is not minimal for the conjugated type")
        y, w_J = self.tables.decompose_left(wpp, Ipp, J)
        return ExtDecomposition(a.omega, wpp, y, w_J)

    def extended_length(self, a, I, J):
        """The extended length of a, counted on (w, omega) as the module
        docstring describes, over root lists moved by omega once per key."""
        self._check_min(a, I)
        key = (frozenset(I), frozenset(J), a.omega)
        sets = self._length_sets.get(key)
        if sets is None:
            rs = self.rs
            m = rs.n_positive
            rp = self.omega.root_perm(a.omega)
            inside_I = rs.subsystem_ordinals(I)
            sets = self._length_sets[key] = (
                [rp[k] for k in rs.positive_outside(J)],
                frozenset(k for k in range(m, 2 * m) if k not in inside_I),
                [rp[k] for k in rs.subsystem_ordinals(J) if k < m],
                frozenset(rp[k] for k in range(m, 2 * m)))
        outside_J, negative_outside_I, positive_J, omega_negative = sets
        wp = a.w.perm
        return (len([k for k in outside_J if wp[k] in negative_outside_I])
                + len([k for k in positive_J if wp[k] in omega_negative]))


class DiagramAutomorphism:
    """A pairing-preserving permutation of the simple roots together
    with a compatible automorphism of the component group.

    Used for the relative Frobenius and for naturality checks.  The
    diagram part is unsigned (it must fix the base), and compatibility
    means conjugating a component's action by the diagram part gives the
    image component's action.
    """

    def __init__(self, ext, diagram_perm, omega_perm):
        rs = ext.rs
        rank = rs.rank
        dp = tuple(diagram_perm)
        if not all(map(_is_int, dp)) or sorted(dp) != list(
                range(1, rank + 1)):
            raise InvalidFrobenius(
                "diagram map is not a permutation of the simple indices")
        if not _preserves_pairing(rs.cartan, dp):
            raise InvalidFrobenius(
                "diagram map does not preserve the Cartan pairing")
        omega = ext.omega
        n = len(omega)
        op = tuple(omega_perm)
        if not all(map(_is_int, op)) or sorted(op) != list(range(n)):
            raise InvalidFrobenius(
                "component map is not a permutation of the component group")
        for a in range(n):
            for b in range(n):
                if op[omega.mult(a, b)] != omega.mult(op[a], op[b]):
                    raise InvalidFrobenius(
                        "component map is not a group automorphism")
        for k in range(n):
            conjugated = _compose_signed(
                dp, _compose_signed(omega.action(k), _invert_signed(dp)))
            if conjugated != omega.action(op[k]):
                raise InvalidFrobenius(
                    "component map is incompatible with the diagram actions: "
                    f"element {omega.label(k)!r}")
        self.ext = ext
        self.diagram_perm = dp
        self.omega_perm = op

    @classmethod
    def identity(cls, ext):
        return cls(ext, _identity_signed(ext.rs.rank),
                   tuple(range(len(ext.omega))))

    def is_identity(self):
        return (self.diagram_perm == _identity_signed(self.ext.rs.rank)
                and self.omega_perm == tuple(range(len(self.ext.omega))))

    @cached_property
    def root_perm(self):
        return _root_perm(self.ext.rs, self.diagram_perm)

    @cached_property
    def _root_perm_inv(self):
        return _root_perm(self.ext.rs, _invert_signed(self.diagram_perm))

    def compose(self, other):
        """self after other."""
        assert self.ext is other.ext
        dp = _compose_signed(self.diagram_perm, other.diagram_perm)
        op = tuple(self.omega_perm[k] for k in other.omega_perm)
        return DiagramAutomorphism(self.ext, dp, op)

    def power(self, e):
        """self composed with itself e times, by repeated squaring, so a
        large field degree costs O(log e) compositions."""
        out = DiagramAutomorphism.identity(self.ext)
        base = self
        while e > 0:
            if e & 1:
                out = base.compose(out)
            base = base.compose(base)
            e >>= 1
        return out

    def inverse(self):
        op = self.omega_perm
        return DiagramAutomorphism(self.ext, _invert_signed(self.diagram_perm),
                                   tuple(map(op.index, range(len(op)))))

    def apply_subset(self, I):
        return frozenset(self.diagram_perm[i - 1] for i in I)

    def apply_weyl(self, w):
        return _conjugate(self.ext.tables, self.root_perm,
                          self._root_perm_inv, w)

    def apply_omega(self, k):
        return self.omega_perm[k]

    def apply_ext(self, a):
        return self.ext.element(self.apply_weyl(a.w), self.omega_perm[a.omega])

