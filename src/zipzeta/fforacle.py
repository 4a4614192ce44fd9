"""Brute-force census of level-one semilinear module structures.

A structure on an h-dimensional space over F_{p^k} is a pair of h-by-h
matrices (A, B): the first acts after the p-power map, the second after
its inverse, and the pair must satisfy

    rank A = d,   rank B = h - d,   A * B^[p] = 0,   B * A^[1/p] = 0,

where ^[p] is the entrywise p-power.  These conditions say the image of
each semilinear map is exactly the kernel of the other.  A base change
g sends (A, B) to (g A (g^[p])^-1, g B (g^[1/p])^-1); the census
enumerates all pairs, partitions them into orbits under the full
invertible group, and reports per-class automorphism counts plus the
groupoid cardinality (sum of 1/#Aut), the quantity the stratification
predicts.

The pairs are built, not searched for: every A of rank d is a column
basis times a row basis in reduced echelon form, and the B that pair
with it come from the kernels read off the two echelon forms.  Each
pair is one flat row-major tuple of 2h^2 field codes, A then B, whose
order is that of the nested pair.  Every pair is still checked against
the rank and product conditions.

Orbits are found by breadth-first search under a small generating set
of GL_h (adjacent transvections and one diagonal matrix), each generator
compiled to a few row and column steps on the flat tuple; #Aut is then
|GL_h| over the orbit size, and each class is represented by the least
pair of its orbit.  The test suite keeps the scan of all q^(h^2)
matrices and the full-group stabilizer sweep as oracles for these
candidates and classes.

Everything is exhaustive and exact, and shares no code with the
stratification; that is the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (FieldTooLarge, MismatchDetected, SearchSpaceTooLarge,
                     _is_int)

DEFAULT_SIZE_BOUND = 64
DEFAULT_SEARCH_BOUND = 2 ** 24


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mod(p, f, g):
    """Remainder of f by g over F_p, both little-endian."""
    g = list(_poly_trim(tuple(x % p for x in g)))
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, p)
    f = list(_poly_trim(tuple(x % p for x in f)))
    while f and len(f) - 1 >= dg:
        factor = (f[-1] * lead_inv) % p
        shift = len(f) - 1 - dg
        for i in range(dg + 1):
            f[shift + i] = (f[shift + i] - factor * g[i]) % p
        f = list(_poly_trim(tuple(f)))
    return tuple(f)


def _poly_mul(p, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _is_irreducible(p, poly):
    """poly: little-endian monic of degree >= 1 over F_p."""
    k = len(poly) - 1
    if k == 1:
        return True
    for dd in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            g = tuple(tail) + (1,)
            if not _poly_mod(p, poly, g):
                return False
    return True


class FqField:
    """The field with p^k elements, encoded as integers 0..p^k-1.

    The integer x stands for the residue-ring element whose base-p
    digits of x (little-endian) are the coefficients.  The modulus
    defaults to the lexicographically least monic irreducible of degree
    k, coefficients compared from the leading end down; it can be
    overridden to check that nothing depends on the choice.
    """

    def __init__(self, p, k=1, modulus=None):
        from .btgl import _check_prime
        _check_prime(p)
        if not _is_int(k) or k < 1:
            raise ValueError("degree must be a positive integer")
        if p ** k > DEFAULT_SIZE_BOUND:
            raise FieldTooLarge(
                f"{p}^{k} exceeds the bound {DEFAULT_SIZE_BOUND}")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = self._least_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of the right degree")
            if not _is_irreducible(p, modulus):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._build_tables()

    @staticmethod
    def _least_modulus(p, k):
        for desc in itertools.product(range(p), repeat=k):
            poly = tuple(reversed(desc)) + (1,)
            if _is_irreducible(p, poly):
                return poly
        raise AssertionError("no irreducible polynomial found")

    def _digits(self, x):
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def _encode(self, digits):
        x = 0
        for d in reversed(digits):
            x = x * self.p + d
        return x

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        digits = [self._digits(x) for x in range(q)]
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = self._encode(tuple((x + y) % p
                                       for x, y in zip(digits[a], digits[b])))
                self._add[a][b] = s
                self._add[b][a] = s
                prod = _poly_mod(p, _poly_mul(p, digits[a], digits[b]),
                                 self.modulus)
                prod = prod + (0,) * (k - len(prod))
                m = self._encode(prod[:k])
                self._mul[a][b] = m
                self._mul[b][a] = m
        self._neg = [self._encode(tuple((-x) % p for x in digits[a]))
                     for a in range(q)]
        self._inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
            assert self._inv[a] is not None
        self._frob = [self.pow(a, p) for a in range(q)]
        assert sorted(self._frob) == list(range(q))
        self._frob_inv = [0] * q
        for a, b in enumerate(self._frob):
            self._frob_inv[b] = a

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frob(self, a):
        return self._frob[a]

    def frob_inv(self, a):
        return self._frob_inv[a]

    def __repr__(self):
        return f"FqField(p={self.p}, k={self.k}, modulus={self.modulus})"


def mat_mul(F, A, B):
    add, mul = F._add, F._mul
    cols = tuple(zip(*B))
    out = []
    for row in A:
        new = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                acc = add[acc][mul[x][y]]
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_frob(F, A):
    return tuple(tuple(F.frob(x) for x in row) for row in A)


def mat_frob_inv(F, A):
    return tuple(tuple(F.frob_inv(x) for x in row) for row in A)


def _rref(F, rows, ncols):
    """Reduced row-echelon form of rows and its pivot columns, by
    lookups in the field tables."""
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    rows = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[inv[rows[r][c]]]
        top = rows[r] = [scale[x] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = mul[neg[row[c]]]
                rows[i] = [add[x][factor[y]] for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
    return rows, pivots


def mat_rank(F, A):
    if not A:
        return 0
    _, pivots = _rref(F, A, len(A[0]))
    return len(pivots)


def mat_inv(F, A):
    h = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(h)]
           for i in range(h)]
    rows, pivots = _rref(F, aug, h)
    if pivots != list(range(h)):
        return None
    return tuple(tuple(rows[i][h:]) for i in range(h))


def enumerate_gl(F, h):
    """All invertible h-by-h matrices, in integer-encoding order."""
    q = F.q
    out = []
    for code in range(q ** (h * h)):
        x = code
        entries = []
        for _ in range(h * h):
            entries.append(x % q)
            x //= q
        A = tuple(tuple(entries[i * h:(i + 1) * h]) for i in range(h))
        if mat_rank(F, A) == h:
            out.append(A)
    return tuple(out)


def gl_order(q, h):
    out = 1
    for i in range(h):
        out *= q ** h - q ** i
    return out


def _rank_count(q, h, d):
    """Number of h-by-h matrices of rank d over F_q."""
    top = 1
    for i in range(d):
        top *= q ** h - q ** i
    return top * top // gl_order(q, d)


@dataclass(frozen=True)
class CensusClass:
    rep: tuple
    orbit_size: int
    aut_count: int


@dataclass(frozen=True)
class CensusReport:
    p: int
    k: int
    q: int
    h: int
    d: int
    candidate_count: int
    group_order: int
    classes: tuple
    groupoid_cardinality: Fraction


def _product(F, X, Y, n, m, l):
    """The n-by-l product of an n-by-m and an m-by-l matrix, all three
    flat row-major tuples of codes."""
    add, mul = F._add, F._mul
    out = []
    for i in range(n):
        row = X[i * m:(i + 1) * m]
        for j in range(l):
            acc = 0
            for k, x in enumerate(row):
                if x:
                    acc = add[acc][mul[x][Y[k * l + j]]]
            out.append(acc)
    return tuple(out)


def _transpose(X, n, m):
    """The transpose of a flat n-by-m matrix."""
    return tuple(X[i * m + j] for j in range(m) for i in range(n))


def _echelon_forms(F, d, h):
    """Every d-by-h matrix of rank d in reduced row-echelon form, flat,
    with the basis of its kernel read off it: the columns of a flat
    h-by-(h - d) matrix."""
    c = h - d
    for pivots in itertools.combinations(range(h), d):
        free_cols = [f for f in range(h) if f not in pivots]
        slots = [r * h + f for r, pc in enumerate(pivots)
                 for f in free_cols if f > pc]
        for values in itertools.product(range(F.q), repeat=len(slots)):
            S = [0] * (d * h)
            for r, pc in enumerate(pivots):
                S[r * h + pc] = 1
            for pos, x in zip(slots, values):
                S[pos] = x
            K = [0] * (h * c)
            for t, f in enumerate(free_cols):
                K[f * c + t] = 1
                for r, pc in enumerate(pivots):
                    K[pc * c + t] = F._neg[S[r * h + f]]
            yield tuple(S), tuple(K)


def _candidates(F, h, d):
    """All admissible pairs, each one flat row-major tuple of 2h^2 codes
    (A, then B).

    A matrix of rank d is A = C R for exactly one d-by-h echelon form R
    (its row space) and one h-by-d C of full column rank, and C = E G
    for one echelon form E^T (its column space) and one G in GL_d.  Then
    ker A = ker R, the left kernel of A is the kernel of E^T, and the B
    that pair with A are (K Y L)^[1/p] for Y in GL_(h-d), with the
    columns of K spanning ker A and the rows of L the left kernel.
    """
    c = h - d

    def flat(M):
        return tuple(itertools.chain.from_iterable(M))

    gl_d = [flat(G) for G in enumerate_gl(F, d)]
    gl_c = [flat(Y) for Y in enumerate_gl(F, c)]
    forms = []
    for S, K in _echelon_forms(F, d, h):
        E = _transpose(S, d, h)
        forms.append((S, _transpose(K, h, c),
                      [_product(F, E, G, h, d, d) for G in gl_d],
                      [_product(F, K, Y, h, c, c) for Y in gl_c]))
    frob_inv = F._frob_inv
    out = []
    for _, L, column_bases, _ in forms:
        for R, _, _, kernel_bases in forms:
            Bs = [tuple(frob_inv[x] for x in _product(F, KY, L, h, c, h))
                  for KY in kernel_bases]
            for C in column_bases:
                A = _product(F, C, R, h, d, h)
                out.extend(A + B for B in Bs)
    return out


def _verify_admissible(F, h, d, pair):
    """Assert the rank and product conditions on a flat pair."""
    n = h * h
    A, B = pair[:n], pair[n:]
    assert mat_rank(F, [A[i:i + h] for i in range(0, n, h)]) == d
    assert mat_rank(F, [B[i:i + h] for i in range(0, n, h)]) == h - d
    frob, frob_inv = F._frob, F._frob_inv
    assert not any(_product(F, A, [frob[x] for x in B], h, h, h))
    assert not any(_product(F, B, [frob_inv[x] for x in A], h, h, h))


def _nested(pair, h):
    """A flat pair as the matrices (A, B), each a tuple of rows."""
    rows = tuple(pair[i:i + h] for i in range(0, len(pair), h))
    return rows[:h], rows[h:]


def twisted_action(F, g, pair, g_frob_inv=None, g_frob_inv2=None):
    """Base change: (A, B) -> (g A (g^[p])^-1, g B (g^[1/p])^-1)."""
    A, B = pair
    if g_frob_inv is None:
        g_frob_inv = mat_inv(F, mat_frob(F, g))
    if g_frob_inv2 is None:
        g_frob_inv2 = mat_inv(F, mat_frob_inv(F, g))
    return (mat_mul(F, mat_mul(F, g, A), g_frob_inv),
            mat_mul(F, mat_mul(F, g, B), g_frob_inv2))


def primitive_element(F):
    """The least generator of the multiplicative group F_q^x."""
    for z in range(1, F.q):
        x, order = z, 1
        while x != 1:
            x = F.mul(x, z)
            order += 1
        if order == F.q - 1:
            return z
    raise AssertionError("no primitive element found")


def gl_generators(F, h):
    """Generators of GL_h(F_q), each of the form I + b e_ij.

    The adjacent transvections E_{i,i+1}(1) and E_{i+1,i}(1) generate
    SL_h(F_p); conjugating by diag(z, 1, ..., 1), z primitive, spreads
    the scalars to every E_ij(lambda), and its determinant reaches all
    of F_q^x.  Over F_2 that diagonal is the identity and is dropped.
    """
    def elementary(i, j, b):
        return tuple(tuple(int(r == c) if (r, c) != (i, j)
                           else F.add(int(r == c), b)
                           for c in range(h)) for r in range(h))

    out = []
    for i in range(h - 1):
        out.append(elementary(i, i + 1, 1))
        out.append(elementary(i + 1, i, 1))
    if F.q > 2:
        out.append(elementary(0, 0, F.sub(primitive_element(F), 1)))
    return out


def _elementary_entry(F, g):
    """(i, j, b) with g = I + b e_ij."""
    off = [(i, j, F.sub(x, int(i == j)))
           for i, row in enumerate(g) for j, x in enumerate(row)
           if x != int(i == j)]
    assert len(off) == 1
    return off[0]


def generator_move(F, g):
    """The twisted action of g = I + r e_ij on flat pairs, compiled.

    With (g^[p])^-1 = I + c_A e_ij and (g^[1/p])^-1 = I + c_B e_ij, g
    sends A to (I + r e_ij) A (I + c_A e_ij): row_i += r row_j, then
    col_j += c_A col_i; and B likewise with c_B.  Returns these steps as
    (dst, src, m) triples, m a row of the multiplication table, to be
    applied in order as x[dst] += m[x[src]].
    """
    h = len(g)
    i, j, r = _elementary_entry(F, g)
    i_a, j_a, c_a = _elementary_entry(F, mat_inv(F, mat_frob(F, g)))
    i_b, j_b, c_b = _elementary_entry(F, mat_inv(F, mat_frob_inv(F, g)))
    assert (i_a, j_a) == (i_b, j_b) == (i, j)
    steps = []
    for base, c in ((0, c_a), (h * h, c_b)):
        steps += [(base + i * h + t, base + j * h + t, F._mul[r])
                  for t in range(h)]
        steps += [(base + s * h + j, base + s * h + i, F._mul[c])
                  for s in range(h)]
    return steps


def apply_move(F, move, pair):
    """Image of a flat pair under the generator behind move."""
    add = F._add
    x = list(pair)
    for dst, src, m in move:
        x[dst] = add[x[dst]][m[x[src]]]
    return tuple(x)


def enumerate_census(field, h, d, search_bound=DEFAULT_SEARCH_BOUND):
    """Exhaustive classification for the given height and rank.

    Each orbit is found by breadth-first search from its least
    unvisited pair under the generators of GL_h; since the group is
    finite, closure under the generators is the orbit.  Then
    #Aut = |GL_h| / |orbit|.
    """
    if not _is_int(h) or h < 1:
        raise ValueError("height must be a positive integer")
    if not _is_int(d) or not 0 <= d <= h:
        raise ValueError("rank must lie between 0 and the height")
    F = field
    q = F.q
    n_candidates = _rank_count(q, h, d) * gl_order(q, h - d)
    scan_cost = q ** (h * h)
    if n_candidates + scan_cost > search_bound:
        raise SearchSpaceTooLarge(
            f"about {n_candidates + scan_cost} candidates exceed the bound "
            f"{search_bound}")
    candidates = _candidates(F, h, d)
    assert len(candidates) == n_candidates
    for pair in candidates:
        _verify_admissible(F, h, d, pair)

    group_order = gl_order(q, h)
    moves = [generator_move(F, g) for g in gl_generators(F, h)]
    candidate_set = set(candidates)
    visited = set()
    classes = []
    # Flat tuples sort as the nested (A, B) do.  Each seed is the least
    # unvisited pair, so the least of its orbit: every smaller pair lies
    # in an earlier orbit.  The classes come out sorted by rep.
    candidates.sort()
    for seed in candidates:
        if seed in visited:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            reached = []
            for pair in frontier:
                for move in moves:
                    image = apply_move(F, move, pair)
                    assert image in candidate_set
                    if image not in orbit:
                        orbit.add(image)
                        reached.append(image)
            frontier = reached
        assert group_order % len(orbit) == 0
        classes.append(CensusClass(rep=_nested(seed, h),
                                   orbit_size=len(orbit),
                                   aut_count=group_order // len(orbit)))
        visited |= orbit

    total_orbit = sum(c.orbit_size for c in classes)
    assert total_orbit == len(candidates)
    groupoid = sum((Fraction(1, c.aut_count) for c in classes), Fraction(0))
    assert groupoid == Fraction(len(candidates), group_order)
    return CensusReport(
        p=F.p, k=F.k, q=q, h=h, d=d,
        candidate_count=len(candidates), group_order=group_order,
        classes=tuple(classes), groupoid_cardinality=groupoid)


@dataclass(frozen=True)
class CrosscheckReport:
    h: int
    d: int
    p: int
    k: int
    predicted: Fraction
    observed: Fraction
    ok: bool
    census: CensusReport


def crosscheck(params, k=1, *, strict=True):
    """Compare the census against the stratification's prediction.

    The prediction for degree k is the groupoid count: over each
    stratum whose degree divides k, its degree times p^(-aut_dim * k).
    Raises MismatchDetected when strict and the numbers differ.
    """
    from .btgl import bt_strata
    from .zipstrata import point_count

    field = FqField(params.p, k)
    census = enumerate_census(field, params.h, params.d)
    predicted = point_count(bt_strata(params), k, q=params.p)
    observed = census.groupoid_cardinality
    ok = predicted == observed
    report = CrosscheckReport(h=params.h, d=params.d, p=params.p, k=k,
                              predicted=predicted, observed=observed,
                              ok=ok, census=census)
    if strict and not ok:
        raise MismatchDetected(predicted, observed,
                               context=f"census h={params.h} d={params.d} "
                                       f"p={params.p} k={k}")
    return report
