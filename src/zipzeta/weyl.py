"""The Weyl group of a root system and its coset combinatorics.

Elements are permutations of root ordinals, stored as bytes whenever
the system has at most 256 roots (E8, E7, A15, B11, C11 and D11 are the
largest of their families), and as tuples above that, the only form
that holds larger ordinals; RootSystem.perm_type makes that choice.
bytes make cheap the three things the walks do most.  compose()
multiplies two elements with one bytes.translate call in C.  A bytes
object caches its hash, where a tuple hashes all its items on every
dict lookup.  And an element takes 273 bytes instead of 1960.  At 240
roots, on a 2-vCPU VM with Python 3.11, a product takes 0.3 us against
2.8 us for a tuple built by itemgetter (16 us by map, so tuples
compose by itemgetter too), and a hash 0.05 us against 1.0 us.
Everything else only indexes, slices, hashes and compares, where the
two forms behave alike; invert() and conjugate() complete the helpers.
An element is a plain value: elements are equal, and hash alike, when
their permutations are, so any copy finds the memos below.

The length of an element is
its inversion count, the number of positive roots sent negative, which
equals the length of any reduced word for it.  The canonical word of an
element is its ShortLex-least reduced word, obtained by repeatedly
stripping the left descent with the least simple index.  Left descents
are read off the permutation alone: s_i is one exactly when a negative
root is sent to alpha_i, so no test of minimality builds an inverse.

CosetTables keeps only what it is asked for, keyed by permutation.  The
group order, and the number of minimal left coset representatives of
each length, come from the degrees, with no root built; the
representatives themselves, with their words and in word order, come
from a search over that set alone.  Any other element has its word
recorded when it is asked for, and only its own: the suffixes stripped
on the way are not kept, so a request costs at most the element's
length.  Longest elements of parabolic subgroups are not memoized, as
a twist asks for each one once.  The tables memoize minimal coset
representatives, their Poincare polynomials and one descent-stripping
decomposition: for w minimal in W_I w, the split w = x * w_J with x
minimal in its double coset and w_J inside W_J.  It is unique and
length-additive; the code asserts this against the definitions on every
call.  x, the end of the strip of right descents in J, is memoized per J
for every element the strip passes through.  Unlike the suffixes of a
word, those are kept: they are prefixes of w, so W^I representatives
that a walk over W^I decomposes too, and in word order each
decomposition costs one strip step.

enumerate_group additionally returns the whole group as a tuple.  The
library never needs that; tests use it as the reference the on-demand
search is compared against.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .errors import GroupTooLarge, MixedGroups, NotMinimalRep
from .rootsystem import degrees

DEFAULT_GROUP_CAP = 100000


def compose(p, q):
    """p after q, the permutation k -> p[q[k]], in the form of q."""
    if type(q) is bytes:
        # translate maps each byte b of q to entry b of a 256-byte table.
        return q.translate(p.ljust(256, b"\0"))
    # itemgetter of one index returns the item itself, not a 1-tuple.
    return itemgetter(*q)(p) if len(q) > 1 else tuple(map(p.__getitem__, q))


_BYTE_IDENTITY = bytes(range(256))


def invert(p):
    """The inverse permutation, in the form of p."""
    if type(p) is bytes:
        # maketrans(p, identity) sends byte p[k] to k.
        return bytes.maketrans(p, _BYTE_IDENTITY[:len(p)])[:len(p)]
    inverse = [0] * len(p)
    for k, image in enumerate(p):
        inverse[image] = k
    return tuple(inverse)


def conjugate(r, p, rinv):
    """r * p * r^-1, for rinv the inverse of r."""
    return compose(r, compose(p, rinv))


class WeylElement:
    """Group element stored as a permutation of root ordinals."""

    __slots__ = ("rs", "perm", "_length", "_inv")

    def __init__(self, rs, perm):
        self.rs = rs
        self.perm = perm
        self._length = None
        self._inv = None

    @property
    def length(self):
        if self._length is None:
            m = self.rs.n_positive
            self._length = sum(map(m.__le__, self.perm[:m]))
        return self._length

    def is_identity(self):
        """True for the identity, the one element of length 0 (the
        length is cached)."""
        return self.length == 0

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.rs is not other.rs:
            raise MixedGroups("elements live over different root systems")
        return WeylElement(self.rs, compose(self.perm, other.perm))

    def inverse(self):
        # Memoized: decompose_left inverts each memoized x once.
        if self._inv is None:
            self._inv = invert(self.perm)
        w = WeylElement(self.rs, self._inv)
        w._inv = self.perm
        w._length = self._length
        return w

    def act(self, root):
        return self.rs.root(self.perm[self.rs.ordinal(root)])

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.rs is other.rs and self.perm == other.perm)

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElement(length={self.length})"


def _identity_perm(rs):
    return rs.perm_type(range(2 * rs.n_positive))


def _degree_product(ds):
    """The product of the q-integers [d]_q = 1 + q + ... + q^(d-1) over
    the degrees, as integer coefficients.

    Over the degrees of a Weyl group this is its Poincare polynomial:
    entry l counts the elements of length l, and its value at q = 1 is
    the order of the group.  Each factor is multiplied in as
    (1 - q^d) / (1 - q): subtract a copy shifted by d, then take running
    sums, whose last is 0.
    """
    poly = [1]
    for d in ds:
        out = poly + [0] * d
        for i, c in enumerate(poly, start=d):
            out[i] -= c
        *poly, rest = accumulate(out)
        assert rest == 0
    return poly


def enumerate_group(tables):
    """Every element of the group of tables, found by breadth-first
    closure under the simple reflections and ordered by
    (length, canonical word).

    A test oracle: the library never needs all of W.  Raises
    GroupTooLarge, before any work, when |W| exceeds DEFAULT_GROUP_CAP.
    """
    order = len(tables)
    if order > DEFAULT_GROUP_CAP:
        raise GroupTooLarge(
            f"group has {order} elements, over the cap of {DEFAULT_GROUP_CAP}")
    identity = tables.identity
    seen = {identity.perm: identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for w in frontier:
            wp = w.perm
            for s in tables._simples.values():
                prod = compose(wp, s.perm)
                if prod not in seen:
                    u = seen[prod] = WeylElement(tables.rs, prod)
                    next_frontier.append(u)
        frontier = next_frontier
    assert len(seen) == order
    return tuple(sorted(
        seen.values(), key=lambda w: (len(tables.word(w)), tables.word(w))))


class CosetTables:
    """Memoized words, coset representatives and decompositions of the
    Weyl group of rs, keyed by permutation, so an element built by any
    route finds them."""

    def __init__(self, rs):
        self.rs = rs
        self.identity = WeylElement(rs, _identity_perm(rs))
        self._words = {self.identity.perm: ()}
        self._min_left = {}
        self._poincare = {}
        self._strips = {}
        self._descents = {}

    @cached_property
    def _simples(self):
        return {i: WeylElement(self.rs, self.rs.reflection_perm(i))
                for i in range(1, self.rs.rank + 1)}

    def __len__(self):
        """|W|, the Poincare polynomial at q = 1; nothing is
        enumerated."""
        return sum(self.min_left_poincare(()))

    def min_left_count(self, I):
        """|W| / |W_I|, the number of minimal left coset
        representatives, predicted without building them."""
        return sum(self.min_left_poincare(I))

    def min_left_poincare(self, I):
        """Coefficients of W^I(q) = W(q) / W_I(q): entry l counts the
        minimal left coset representatives of W_I of length l.

        Both are products of q-integers over the degrees, so nothing is
        enumerated: the degrees W and W_I share cancel, the rest of W's
        are multiplied and the rest of W_I's divided out, exactly.  The
        degree is the length of the longest representative.
        """
        key = frozenset(I)
        got = self._poincare.get(key)
        if got is None:
            whole = Counter(degrees(self.rs.cartan))
            inside = Counter(degrees(self.rs.cartan, key))
            got = _degree_product((whole - inside).elements())
            for d in (inside - whole).elements():
                # Divide by [d]_q: times 1 - q, then over 1 - q^d.
                got = [a - b for a, b in zip(got + [0], [0] + got)]
                for i in range(d, len(got)):
                    got[i] += got[i - d]
                assert not any(got[-d:]), "W_I(q) does not divide W(q)"
                del got[-d:]
            got = self._poincare[key] = tuple(got)
        return got

    def simple_reflection(self, i):
        return self._simples[i]

    def _check(self, w):
        if w.rs is not self.rs:
            raise MixedGroups("element does not belong to this group")

    def word(self, w):
        """ShortLex-least reduced word, as a tuple of simple indices.

        min_left records the words of the representatives it builds; any
        other element, such as w_J, is stripped: the least left descent at
        every step yields exactly the lexicographically least reduced
        word.  Stripping stops at the first element whose word is known,
        and only the word of w itself is recorded, so a request costs at
        most the length of w and adds at most one entry.
        """
        got = self._words.get(w.perm)
        if got is not None and w.rs is self.rs:
            return got
        self._check(w)
        m = self.rs.n_positive
        rank = self.rs.rank
        letters = []
        cur = w.perm
        while cur not in self._words:
            # i is a left descent when a negative root is sent to alpha_i.
            # The simple roots have the least ordinals, so the least
            # image of a negative root names the least descent.
            low = min(cur[m:])
            if low >= rank:
                raise AssertionError("non-identity element with no descent")
            letters.append(low + 1)
            cur = compose(self._simples[low + 1].perm, cur)
        got = self._words[w.perm] = tuple(letters) + self._words[cur]
        return got

    def longest_element(self, K=None):
        """The longest element of the parabolic subgroup W_K (w0 of the
        whole group when K is None), reached from the identity by
        climbing right ascents among the simple reflections in K: one
        step per positive root supported on K."""
        K = frozenset(self._simples if K is None else K)
        m = self.rs.n_positive
        perm = _identity_perm(self.rs)
        ascents = [(j - 1, self._simples[j].perm) for j in sorted(K)]
        while True:
            step = next((sp for a, sp in ascents if perm[a] < m), None)
            if step is None:
                break
            perm = compose(perm, step)
        got = WeylElement(self.rs, perm)
        assert got.length == sum(
            1 for k in self.rs.subsystem_ordinals(K) if k < m)
        return got

    def is_min_left(self, w, I):
        """True when w is the shortest element of W_I * w: no left
        descent inside I, that is no negative root sent to alpha_i.
        The ordinals of the alpha_i are kept per I."""
        if not I:
            return True
        I = frozenset(I)
        blocked = self._descents.get(I)
        if blocked is None:
            blocked = self._descents[I] = frozenset(i - 1 for i in I)
        return blocked.isdisjoint(w.perm[self.rs.n_positive:])

    def is_min_right(self, w, J):
        """True when w is the shortest element of w * W_J."""
        m = self.rs.n_positive
        return all(w.perm[j - 1] < m for j in J)

    def min_left(self, I):
        """The minimal left coset representatives of W_I, in (length,
        word) order, with their words recorded.

        They are closed under prefixes of reduced words, a lower ideal of
        the right weak order (Bjorner-Brenti, GTM 231, ch. 2), so a
        breadth-first search from the identity builds them level by
        level without visiting anything else.  For w in the set and
        w(alpha_j) positive, w * s_j is one level up, and by Deodhar's
        lemma it stays in the set unless w(alpha_j) is a simple root
        alpha_i with i in I, when w * s_j = s_i * w.

        Each level is visited in word order and each element's ascents
        in increasing j; the first (w, j) to reach u gives word(u) =
        word(w) + (j,).  Proof, by induction on the level: a prefix of a
        ShortLex-least word is least for its element, so word(u) is the
        least word(u * s_j) + (j,) over the right descents j of u, each
        u * s_j one level down, and the pairs come in that order.  So the
        next level comes out in word order too.

        An element's level is its length and is recorded as such.  The
        size of every level is asserted against W^I(q), which comes from
        the degrees, and each word against any stripped before.
        """
        key = frozenset(I)
        got = self._min_left.get(key)
        if got is None:
            sizes = self.min_left_poincare(key)
            m = self.rs.n_positive
            blocked = {i - 1 for i in key}
            # u = w * s_j is keyed by its simple-root images, built once.
            steps = [(j - 1, (j,), itemgetter(*s.perm[:self.rs.rank]),
                      s.perm)
                     for j, s in sorted(self._simples.items())]
            got = []
            level = [self.identity]
            depth = 0
            while level:
                assert depth < len(sizes) and len(level) == sizes[depth], (
                    f"level {depth} of the search does not match W^I(q)")
                got.extend(level)
                depth += 1
                up = {}
                for w in level:
                    wp = w.perm
                    for a, letter, name, step in steps:
                        img = wp[a]
                        if img < m and img not in blocked:
                            up.setdefault(name(wp), (wp, letter, step))
                level = [WeylElement(self.rs, compose(wp, step))
                         for wp, _, step in up.values()]
                # Interleaving words with permutations fragmented memory.
                for u, (wp, letter, _) in zip(level, up.values()):
                    u._length = depth
                    word = self._words[wp] + letter
                    known = self._words.setdefault(u.perm, word)
                    assert known == word, "search and stripping disagree"
            assert depth == len(sizes), "the search stopped below the top"
            self._min_left[key] = got
        return got

    def in_parabolic(self, w, I):
        """Membership in the standard parabolic subgroup on I."""
        return set(self.word(w)) <= set(I)

    def induced_subset(self, x, I, J):
        """The indices j in J with x(alpha_j) a simple root alpha_i,
        i in I.  For x minimal on both sides this realizes the
        intersection of J with the x-conjugate of I."""
        out = set()
        rank = self.rs.rank
        for j in J:
            img = x.perm[j - 1]
            if img < rank and (img + 1) in I:
                out.add(j)
        return frozenset(out)

    def decompose_left(self, w, I, J):
        """Split w = x * w_J with x the minimal double-coset element.

        Requires w minimal in W_I * w (NotMinimalRep otherwise).  Strips
        right descents in J, least index first, until it meets an
        element whose x is memoized; x depends on the permutation and J
        alone, and is recorded for every element stripped.  An element
        with no right descent in J, as every element is when J is
        empty, is its own x, with w_J = 1, and touches no memo.
        Otherwise asserts uniqueness consequences:
        lengths add, x is minimal on both sides, and w_J is minimal in
        its coset of the induced subset.  The tables keep no element for
        w_J: callers read its word.
        """
        self._check(w)
        I = frozenset(I)
        J = frozenset(J)
        if not self.is_min_left(w, I):
            raise NotMinimalRep(
                "element has a left descent in I, so it is not the "
                "shortest element of its coset")
        if not J:
            return w, self.identity
        m = self.rs.n_positive
        x = w
        sweep = sorted(J)
        stripped = []
        while True:
            for j in sweep:
                if x.perm[j - 1] >= m:
                    break
            else:
                break
            memo = self._strips.setdefault(J, {})
            got = memo.get(x.perm)
            if got is not None:
                x = got
                break
            stripped.append(x.perm)
            x = x * self._simples[j]
        if x is w:
            # Nothing was stripped, so w_J = 1 and the asserts below
            # reduce to the test above: w has no left descent in I and,
            # by the loop, no right one in J.
            return w, self.identity
        for perm in stripped:
            memo[perm] = x
        w_J = x.inverse() * w
        assert x.length + w_J.length == w.length
        assert self.is_min_left(x, I) and self.is_min_right(x, J)
        assert self.in_parabolic(w_J, J)
        assert self.is_min_left(w_J, self.induced_subset(x, I, J))
        return x, w_J
