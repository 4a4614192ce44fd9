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
with it come from the kernels read off the two echelon forms.  A row of
h field codes is stored as one integer, its row code (big-endian base
q, so integer order is row order), and a pair is a tuple of 2h row
codes, A's rows then B's, whose order is that of the nested pair.
Vector sums, scalings, dot products and entrywise p-th roots are
lookups in tables over the q^h row codes (`RowTables`), as in the
Meat-Axe (Parker, "The computer calculation of modular characters",
1984).  The field itself is built the same way: F_(p^k) is F_p^k, with
sums from the row tables of F_p and a product by Horner's rule in x, and
its modulus is irreducible exactly when every nonzero element comes out
with an inverse.  Every pair is still checked against the rank and product
conditions; a row basis and a column basis of each distinct A, and the
rank of each distinct B, are computed once.

Orbits are found by breadth-first search under three generators of
GL_h (the cyclic shift, one transvection and one diagonal matrix), each
compiled to a position map, one column table per half and at most two
row steps on the row codes; #Aut is then |GL_h| over the orbit size,
and each class is represented by the least pair of its orbit.  The test
suite keeps the scan of all q^(h^2) matrices, the full-group
stabilizer sweep and a nested-matrix admissibility check as oracles
for these candidates, classes and checks.

Everything is exhaustive and exact, and shares no code with the
stratification; that is the point.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .errors import (FieldTooLarge, MismatchDetected, SearchSpaceTooLarge,
                     _is_int)

DEFAULT_SIZE_BOUND = 64
DEFAULT_SEARCH_BOUND = 2 ** 24


class FqField:
    """The field with p^k elements, encoded as integers 0..p^k-1.

    F_(p^k) is F_p^k with a product.  The base-p digits of x are the
    coefficients of its residue class, constant term lowest, so x is the
    row code of those coefficients, leading one first, in
    FqField(p).row_tables(k), whose tables give the sums.  Times x
    shifts the digits up, folding the x^k digit back through the
    modulus; a product is Horner's rule over one factor's digits.  The
    modulus is irreducible exactly when every nonzero element gets an
    inverse; it defaults to the lexicographically least monic
    irreducible of degree k, compared from the leading coefficient down.
    """

    # modulus is for tests alone: it is the one way to check that the
    # census does not depend on which irreducible defines the field.
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
            for desc in itertools.product(range(p), repeat=k):
                if self._build_tables(tuple(reversed(desc)) + (1,)):
                    break
            else:
                raise AssertionError("no irreducible polynomial found")
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of the right degree")
            if not self._build_tables(modulus):
                raise ValueError("modulus is reducible")
        self._row_tables = {}

    def _build_tables(self, modulus):
        """Build the tables of F_p[x]/(modulus), little-endian monic;
        False, on the first element with no inverse, when it is not a
        field."""
        p, k, q = self.p, self.k, self.q
        if k == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            rows = FqField(p).row_tables(k)
            add, scale, digits = rows.add, rows.scale, rows.digits
            low = rows.encode(reversed(modulus[:k]))
            times_x = [add[u % (q // p) * p][scale[-digits[u][0] % p][low]]
                       for u in range(q)]
            # b = x * (b // p) + b % p: one Horner step from a product
            # already made.
            mul = []
            for a in range(q):
                row = [0] * q
                for b in range(1, q):
                    row[b] = add[times_x[row[b // p]]][scale[b % p][a]]
                mul.append(row)
        inv = [None] * q
        for a in range(1, q):
            if 1 not in mul[a]:
                return False
            inv[a] = mul[a].index(1)
        self.modulus = modulus
        # -1 is the constant p - 1.
        self._add, self._mul, self._neg, self._inv = add, mul, mul[p - 1], inv
        self._frob = [self.pow(a, p) for a in range(q)]
        assert sorted(self._frob) == list(range(q))
        self._frob_inv = [0] * q
        for a, b in enumerate(self._frob):
            self._frob_inv[b] = a
        return True

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

    def row_tables(self, h):
        """The RowTables of F_q^h, built on first use."""
        tables = self._row_tables.get(h)
        if tables is None:
            tables = self._row_tables[h] = RowTables(self, h)
        return tables

    def __repr__(self):
        return f"FqField(p={self.p}, k={self.k}, modulus={self.modulus})"


class RowTables:
    """Lookup tables for the vectors of F_q^h, each stored as its row
    code.

    The row (x_0, ..., x_(h-1)) has code sum x_t q^(h-1-t), so integer
    order is row-lexicographic order.  With Q = q^h, the tables are:
    `digits[u]`, the row of code u; `add[u][v]`, the code of the sum;
    `scale[c][u]`, the code of c times the row; `dot[u][v]`, the field
    code of the dot product; and `frob_inv[u]`, the code of the
    entrywise p-th root.  `add` and `dot` have Q^2 entries each.  Every
    table for h is built from the one for h - 1 by appending a last
    digit.
    """

    def __init__(self, field, h):
        q = field.q
        fadd, fmul = field._add, field._mul
        digits, add, dot = [()], [[0]], [[0]]
        scale = [[0] for _ in range(q)]
        frob_inv = [0]
        for _ in range(h):
            digits = [row + (x,) for row in digits for x in range(q)]
            add = [[v * q + s for v in a_row for s in x_row]
                   for a_row in add for x_row in fadd]
            dot = [[fadd[v][m] for v in a_row for m in x_row]
                   for a_row in dot for x_row in fmul]
            scale = [[v * q + m for v in c_row for m in fmul[c]]
                     for c, c_row in enumerate(scale)]
            frob_inv = [v * q + x for v in frob_inv for x in field._frob_inv]
        self.field = field
        self.h = h
        self.digits = digits
        self.add = add
        self.dot = dot
        self.scale = scale
        self.frob_inv = frob_inv

    def encode(self, row):
        """The code of a row of h field codes."""
        code = 0
        for x in row:
            code = code * self.field.q + x
        return code


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


CensusClass = namedtuple("CensusClass", "rep orbit_size aut_count")

CensusReport = namedtuple(
    "CensusReport", "p k q h d candidate_count group_order classes "
    "groupoid_cardinality")


def _combine(add, scale, coeffs, rows):
    """The code of sum_t coeffs[t] * rows[t], the rows given by code."""
    acc = 0
    for x, row in zip(coeffs, rows):
        if x:
            acc = add[acc][scale[x][row]]
    return acc


def _echelon_forms(F, d, h):
    """Every d-by-h matrix of rank d in reduced row-echelon form, with
    the basis of its kernel read off it: the columns of an h-by-(h - d)
    matrix.  Both are lists of rows."""
    c = h - d
    for pivots in itertools.combinations(range(h), d):
        free_cols = [f for f in range(h) if f not in pivots]
        slots = [(r, f) for r, pc in enumerate(pivots)
                 for f in free_cols if f > pc]
        for values in itertools.product(range(F.q), repeat=len(slots)):
            S = [[0] * h for _ in range(d)]
            for r, pc in enumerate(pivots):
                S[r][pc] = 1
            for (r, f), x in zip(slots, values):
                S[r][f] = x
            K = [[0] * c for _ in range(h)]
            for t, f in enumerate(free_cols):
                K[f][t] = 1
                for r, pc in enumerate(pivots):
                    K[pc][t] = F._neg[S[r][f]]
            yield S, K


def _candidates(F, h, d):
    """All admissible pairs, each a tuple of 2h row codes: the rows of
    A, then those of B.

    A matrix of rank d is A = C R for exactly one d-by-h echelon form R
    (its row space) and one h-by-d C of full column rank, and C = E G
    for one echelon form E^T (its column space) and one G in GL_d.  Then
    ker A = ker R, the left kernel of A is the kernel of E^T, and the B
    that pair with A are (K Y L)^[1/p] for Y in GL_(h-d), with the
    columns of K spanning ker A and the rows of L the left kernel.  Row
    i of A = E (G R) is sum_s E_is (G R)_s, and row i of K (Y L) is
    sum_t K_it (Y L)_t: a few row-code lookups each.
    """
    T = F.row_tables(h)
    add, scale, frob_inv = T.add, T.scale, T.frob_inv
    gl_d = enumerate_gl(F, d)
    gl_c = enumerate_gl(F, h - d)
    forms = []
    for S, K in _echelon_forms(F, d, h):
        R = [T.encode(row) for row in S]
        L = [T.encode(col) for col in zip(*K)]
        E = [[row[i] for row in S] for i in range(h)]
        forms.append((E, K,
                      [[_combine(add, scale, y, L) for y in Y] for Y in gl_c],
                      [[_combine(add, scale, g, R) for g in G] for G in gl_d]))
    out = []
    for E, _, YLs, _ in forms:
        for _, K, _, GRs in forms:
            As = [tuple(_combine(add, scale, e, GR) for e in E) for GR in GRs]
            Bs = [tuple(frob_inv[_combine(add, scale, k, YL)] for k in K)
                  for YL in YLs]
            out.extend(A + B for A in As for B in Bs)
    return out


def _row_basis(T, rows):
    """An echelon basis of the span of the row codes, by elimination on
    codes.  Each basis row has a 1 at its pivot column and a 0 at the
    pivots of the rows before it."""
    digits, add, scale = T.digits, T.add, T.scale
    neg, inv = T.field._neg, T.field._inv
    basis = []
    for row in rows:
        for c, b in basis:
            x = digits[row][c]
            if x:
                row = add[row][scale[neg[x]][b]]
        if row:
            for c, x in enumerate(digits[row]):
                if x:
                    basis.append((c, scale[inv[x]][row]))
                    break
    return [b for _, b in basis]


def _verify_admissible(T, d, pairs):
    """Assert rank A = d, rank B = h - d, A B^[p] = 0 and B A^[1/p] = 0
    on every row-coded pair.

    Taking p-th roots, A B^[p] = 0 exactly when A^[1/p] B = 0, that is
    when R B = 0 for a row basis R of A^[1/p]; and B A^[1/p] = 0 exactly
    when B C = 0 for a basis C of the column space of A^[1/p].  Both
    products are taken for every pair: R B by row-code steps, B C by
    lookups in the dot-product table, dot[c] being the products with c.
    The memos, local to this call, hold only what depends on one
    matrix: R, C (so rank A) for each distinct A, and rank B for each
    distinct B.
    """
    h = T.h
    digits, add, scale, dot, frob_inv = (
        T.digits, T.add, T.scale, T.dot, T.frob_inv)
    a_memo, b_memo = {}, {}
    for pair in pairs:
        A, B = pair[:h], pair[h:]
        bases = a_memo.get(A)
        if bases is None:
            root = [frob_inv[a] for a in A]
            columns = [T.encode(col)
                       for col in zip(*(digits[a] for a in root))]
            bases = a_memo[A] = (
                [digits[r] for r in _row_basis(T, root)],
                [dot[c] for c in _row_basis(T, columns)])
        rows, columns = bases
        assert len(rows) == d
        rank_b = b_memo.get(B)
        if rank_b is None:
            rank_b = b_memo[B] = len(_row_basis(T, B))
        assert rank_b == h - d
        for r in rows:
            assert not _combine(add, scale, r, B)
        for products in columns:
            assert not any(map(products.__getitem__, B))


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
    """Three generators of GL_h(F_q): the cyclic shift P with
    P e_j = e_(j+1 mod h), the transvection I + e_01 and
    diag(z, 1, ..., 1), z primitive.

    Conjugating I + e_01 by P^n gives I + e_(n,n+1), indices mod h:
    every E_(i,i+1)(1) and E_(h-1,0)(1).  The commutator
    [E_ij(a), E_jk(b)] = E_ik(ab) for i != k walks round this cycle from
    any i to any j != i, so every E_ij(1) is reached, and these generate
    SL_h(F_p).  Conjugating by powers of the diagonal gives E_0j(z^n)
    and E_i0(z^-n); their products give every E_0j(b) and E_i0(b), and
    the commutators [E_i0(1), E_0j(b)] = E_ij(b) every other one, so
    SL_h(F_q).  The diagonal's determinant z generates F_q^x, hence all
    of GL_h(F_q).  Over F_2 the diagonal is the identity and is dropped;
    at h = 1 only the diagonal is left.
    """
    out = []
    if h > 1:
        out.append(tuple(tuple(int(i == (j + 1) % h) for j in range(h))
                         for i in range(h)))
        out.append(tuple(tuple(int(i == j or (i, j) == (0, 1))
                               for j in range(h)) for i in range(h)))
    if F.q > 2:
        z = primitive_element(F)
        out.append(tuple(tuple((z if i == 0 else 1) if i == j else 0
                               for j in range(h)) for i in range(h)))
    return out


def generator_move(F, g):
    """The twisted action of g on row-coded pairs, compiled.

    g sends A to g A (g^[p])^-1 and B to g B (g^[1/p])^-1.  The right
    factor acts on each row alone: a column table over the row codes,
    one per half.  Row i of g A is sum_j g_ij A_j; its first term
    becomes the position map (source row j, read through the column
    table composed with scaling by g_ij), each further term a row step.
    Returns (sources, steps, add) for `apply_move`: a shift has no row
    steps, I + e_01 one per half and the diagonal none.
    """
    h = len(g)
    T = F.row_tables(h)
    sources, steps = [], []
    for base, M in ((0, mat_inv(F, mat_frob(F, g))),
                    (h, mat_inv(F, mat_frob_inv(F, g)))):
        M_rows = [T.encode(row) for row in M]
        column = [_combine(T.add, T.scale, row, M_rows) for row in T.digits]
        for i, row in enumerate(g):
            terms = [(base + j, column if x == 1 else
                      [column[u] for u in T.scale[x]])
                     for j, x in enumerate(row) if x]
            sources.append(terms[0])
            steps += [(base + i, src, table) for src, table in terms[1:]]
    return tuple(sources), tuple(steps), T.add


def apply_move(move, pair):
    """Image of a row-coded pair under the generator behind move."""
    sources, steps, add = move
    image = [table[pair[s]] for s, table in sources]
    for dst, src, table in steps:
        image[dst] = add[image[dst]][table[pair[src]]]
    return tuple(image)


def enumerate_census(field, h, d):
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
    # What gets built: the candidates and the row-code tables add and
    # dot, Q^2 entries each (Q = q^h).
    cost = n_candidates + 2 * q ** (2 * h)
    if cost > DEFAULT_SEARCH_BOUND:
        raise SearchSpaceTooLarge(
            f"about {cost} candidates and row-table entries exceed the "
            f"bound {DEFAULT_SEARCH_BOUND}")
    T = F.row_tables(h)
    candidates = _candidates(F, h, d)
    assert len(candidates) == n_candidates
    _verify_admissible(T, d, candidates)

    group_order = gl_order(q, h)
    moves = [generator_move(F, g) for g in gl_generators(F, h)]
    candidate_set = set(candidates)
    visited = set()
    classes = []
    # Row codes are big-endian, so pairs sort as the nested (A, B) do.
    # Each seed is the least unvisited pair, so the least of its orbit:
    # every smaller pair lies in an earlier orbit.  The classes come out
    # sorted by rep.
    candidates.sort()
    digits = T.digits
    for seed in candidates:
        if seed in visited:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            reached = []
            for pair in frontier:
                for move in moves:
                    image = apply_move(move, pair)
                    assert image in candidate_set
                    if image not in orbit:
                        orbit.add(image)
                        reached.append(image)
            frontier = reached
        assert group_order % len(orbit) == 0
        rep = tuple(digits[u] for u in seed)
        classes.append(CensusClass(rep=(rep[:h], rep[h:]),
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


# ok is always True (crosscheck raises otherwise); oracle prints it.
CrosscheckReport = namedtuple(
    "CrosscheckReport", "h d p k predicted observed ok census")


def crosscheck(params, k=1):
    """Compare the census against the zeta function bt prints.

    The prediction for degree k is that zeta function's point count N_k:
    over each factor (aut_dim a, degree f) with f dividing k, f times
    p^(-a * k), with multiplicity.  Raises MismatchDetected when the
    numbers differ.
    """
    from .btgl import bt_zeta

    field = FqField(params.p, k)
    census = enumerate_census(field, params.h, params.d)
    predicted = bt_zeta(params).n_value(k, params.p)
    observed = census.groupoid_cardinality
    if predicted != observed:
        raise MismatchDetected(predicted, observed,
                               context=f"census h={params.h} d={params.d} "
                                       f"p={params.p} k={k}")
    return CrosscheckReport(h=params.h, d=params.d, p=params.p, k=k,
                            predicted=predicted, observed=observed,
                            ok=True, census=census)
