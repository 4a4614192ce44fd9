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

Orbits are found by breadth-first search under a small generating set
of GL_h (adjacent transvections and one diagonal matrix), each generator
applied as one row and one column operation; #Aut is then |GL_h| over
the orbit size.  The test suite keeps the full-group stabilizer sweep
as an oracle for these classes.

Everything is exhaustive and exact, and shares no code with the
stratification; that is the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldTooLarge, MismatchDetected, SearchSpaceTooLarge

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
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
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
    n = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        new = []
        for j in range(cols):
            acc = 0
            for k in range(n):
                acc = F.add(acc, F.mul(row[k], B[k][j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_frob(F, A):
    return tuple(tuple(F.frob(x) for x in row) for row in A)


def mat_frob_inv(F, A):
    return tuple(tuple(F.frob_inv(x) for x in row) for row in A)


def mat_is_zero(A):
    return all(all(x == 0 for x in row) for row in A)


def _rref(F, rows, ncols):
    rows = [list(r) for r in rows]
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
        scale = F.inv(rows[r][c])
        rows[r] = [F.mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
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


def mat_kernel(F, A, ncols):
    """Basis of the right kernel, as a list of length-ncols column
    vectors."""
    rows, pivots = _rref(F, A, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for r, pcol in enumerate(pivots):
            vec[pcol] = F.neg(rows[r][fcol])
        basis.append(tuple(vec))
    return basis


def mat_transpose(A):
    if not A:
        return ()
    return tuple(tuple(row[j] for row in A) for j in range(len(A[0])))


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


def _candidates(F, h, d):
    """All admissible pairs (A, B), deterministically ordered."""
    zero = tuple(tuple(0 for _ in range(h)) for _ in range(h))
    if d == h:
        return [(A, zero) for A in enumerate_gl(F, h)]
    if d == 0:
        return [(zero, B) for B in enumerate_gl(F, h)]
    out = []
    gl_small = enumerate_gl(F, h - d)
    for code in range(F.q ** (h * h)):
        x = code
        entries = []
        for _ in range(h * h):
            entries.append(x % F.q)
            x //= F.q
        A = tuple(tuple(entries[i * h:(i + 1) * h]) for i in range(h))
        if mat_rank(F, A) != d:
            continue
        kc = mat_kernel(F, A, h)
        left = mat_kernel(F, mat_transpose(A), h)
        kc_mat = mat_transpose(kc)
        left_mat = tuple(left)
        for Y in gl_small:
            X = mat_mul(F, mat_mul(F, kc_mat, Y), left_mat)
            B = mat_frob_inv(F, X)
            out.append((A, B))
    return out


def _verify_admissible(F, h, d, A, B):
    assert mat_rank(F, A) == d
    assert mat_rank(F, B) == h - d
    assert mat_is_zero(mat_mul(F, A, mat_frob(F, B)))
    assert mat_is_zero(mat_mul(F, B, mat_frob_inv(F, A)))


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
    """The twisted action of g = I + r e_ij as row and column moves.

    Returns (i, j, r, c_A, c_B) with (g^[p])^-1 = I + c_A e_ij and
    (g^[1/p])^-1 = I + c_B e_ij, so g sends A to
    (I + r e_ij) A (I + c_A e_ij) and B likewise with c_B.
    """
    i, j, r = _elementary_entry(F, g)
    i_a, j_a, c_a = _elementary_entry(F, mat_inv(F, mat_frob(F, g)))
    i_b, j_b, c_b = _elementary_entry(F, mat_inv(F, mat_frob_inv(F, g)))
    assert (i_a, j_a) == (i_b, j_b) == (i, j)
    return (i, j, r, c_a, c_b)


def _move(F, M, i, j, r, c):
    """(I + r e_ij) M (I + c e_ij): row_i += r row_j, then
    col_j += c col_i.  O(h) field operations."""
    add, mul = F._add, F._mul
    rows = list(M)
    mr = mul[r]
    rows[i] = tuple(add[x][mr[y]] for x, y in zip(rows[i], rows[j]))
    mc = mul[c]
    return tuple(row[:j] + (add[row[j]][mc[row[i]]],) + row[j + 1:]
                 if row[i] else row for row in rows)


def apply_move(F, move, pair):
    """Image of the pair (A, B) under the generator behind move."""
    i, j, r, c_a, c_b = move
    A, B = pair
    return (_move(F, A, i, j, r, c_a), _move(F, B, i, j, r, c_b))


def enumerate_census(field, h, d, search_bound=DEFAULT_SEARCH_BOUND):
    """Exhaustive classification for the given height and rank.

    Each orbit is found by breadth-first search from its least
    unvisited pair under the generators of GL_h; since the group is
    finite, closure under the generators is the orbit.  Then
    #Aut = |GL_h| / |orbit|.
    """
    if isinstance(h, bool) or not isinstance(h, int) or h < 1:
        raise ValueError("height must be a positive integer")
    if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d <= h:
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
    for A, B in candidates:
        _verify_admissible(F, h, d, A, B)

    group_order = gl_order(q, h)
    moves = [generator_move(F, g) for g in gl_generators(F, h)]
    candidate_set = set(candidates)
    unvisited = set(candidates)
    classes = []
    while unvisited:
        seed = min(unvisited)
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
        classes.append(CensusClass(rep=min(orbit), orbit_size=len(orbit),
                                   aut_count=group_order // len(orbit)))
        unvisited -= orbit

    total_orbit = sum(c.orbit_size for c in classes)
    assert total_orbit == len(candidates)
    groupoid = sum((Fraction(1, c.aut_count) for c in classes), Fraction(0))
    assert groupoid == Fraction(len(candidates), group_order)
    classes.sort(key=lambda c: c.rep)
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
