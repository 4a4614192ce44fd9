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
q, so integer order is row order), and a matrix as the tuple of its h
row codes.  Each distinct A and each distinct B is built once, by
lookups in small span tables, and kept once, in a sorted list; a pair
is one int, i * n_B + j, with i and j the positions of its A and its B
in those lists and n_B the number of B, so integer order is the order
of the nested pairs.  The pairs are kept as the blocks they are built
in, every A with every B, each A with its fibre, the sorted positions
of its B.  Vector sums, scalings, dot products and entrywise
p-th roots are lookups in tables over the q^h row codes (`RowTables`),
as in the Meat-Axe (Parker, "The computer calculation of modular
characters", 1984).  The field itself is built the same way: F_(p^k) is
F_p^k, with sums from the row tables of F_p and a product by Horner's
rule in x, and its modulus is irreducible exactly when every nonzero
element comes out with an inverse.  Every pair is still checked against
the rank and product conditions; the row spaces and columns of each
distinct A and B are computed once, by position.

Orbits are found by breadth-first search under three generators of
GL_h (the cyclic shift, one transvection and one diagonal matrix).  The
base change moves A and B separately, so each generator is compiled to
one move per half (a position map, one column table and at most one
row step on row codes), and each half move is tabulated once over the
distinct halves: the pair i * n_B + j goes to a_moved[i] + b_moved[j],
and the search runs over ints.  #Aut is then |GL_h| over the orbit
size, and each class is represented by the least pair of its orbit.
The test suite keeps the scan of all q^(h^2) matrices, the full-group
stabilizer sweep and a nested-matrix admissibility check as oracles
for these candidates, classes and checks; the nested-tuple matrix
helpers here serve only them, and the census itself, GL_d and
GL_(h-d) included, runs on row codes alone.

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
        # p^k is over the bound once k reaches its bit length, as p >= 2,
        # so no power past that is formed.
        if p ** min(k, DEFAULT_SIZE_BOUND.bit_length()) > DEFAULT_SIZE_BOUND:
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


def mat_inv(F, A):
    h = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(h)]
           for i in range(h)]
    rows, pivots = _rref(F, aug, h)
    if pivots != list(range(h)):
        return None
    return tuple(tuple(rows[i][h:]) for i in range(h))


def enumerate_gl(F, h):
    """All invertible h-by-h matrices: `_gl_rows`, decoded."""
    T = F.row_tables(h)
    return tuple(tuple(map(T.digits.__getitem__, rows))
                 for rows in _gl_rows(T))


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


class Candidates:
    """The admissible pairs, kept as the blocks they are built in.

    `a_halves` and `b_halves` are the distinct A and the distinct B, each
    a tuple of h row codes, in increasing order; `a_index` and `b_index`
    give the position of each.  The pair (A, B) has the code
    a_index[A] * len(b_halves) + b_index[B], so integer order is the
    order of the nested pairs.  In a block every A pairs with every B,
    and no A or B is in two blocks.  `fibres[i]` is the sorted list of
    the B positions that pair with the A at position i, one list per
    block, and `block_of[j]` is the list that holds j.  So (i, j) is a
    pair exactly when fibres[i] is block_of[j]; len counts the pairs.
    """

    __slots__ = ("a_halves", "b_halves", "a_index", "b_index", "fibres",
                 "block_of")

    def __init__(self, blocks):
        self.a_halves = sorted(A for As, _ in blocks for A in As)
        self.b_halves = sorted(B for _, Bs in blocks for B in Bs)
        self.a_index = {A: i for i, A in enumerate(self.a_halves)}
        self.b_index = {B: j for j, B in enumerate(self.b_halves)}
        self.fibres = [None] * len(self.a_halves)
        self.block_of = [None] * len(self.b_halves)
        for As, Bs in blocks:
            fibre = sorted(map(self.b_index.__getitem__, Bs))
            for A in As:
                self.fibres[self.a_index[A]] = fibre
            for j in fibre:
                self.block_of[j] = fibre

    def __len__(self):
        return sum(map(len, self.fibres))


def _span(T, rows):
    """The code of sum_t x_t rows[t] at the code of every x in
    F_q^len(rows): big-endian, as the row codes of that space are."""
    add, scale = T.add, T.scale
    sums = [0]
    for row in rows:
        multiples = [scale_x[row] for scale_x in scale]
        sums = [add[s][m] for s in sums for m in multiples]
    return sums


def _gl_rows(T):
    """Every M in GL_m (m = T.h), an ordered basis of F_q^m, as its m
    row codes in increasing order.  Each row is any code outside the
    span of the rows before it, so the cost grows with |GL_m|."""
    codes = range(len(T.digits))
    bases = [()]
    for _ in range(T.h):
        bases = [basis + (u,) for basis in bases
                 for span in [set(_span(T, basis))]
                 for u in codes if u not in span]
    return bases


def _products(F, m, vectors):
    """For each M in GL_m, the code of v M in F_q^m for each of the
    vectors v (tuples of m field codes), as a dict keyed by v."""
    T = F.row_tables(m)
    return [{v: _combine(T.add, T.scale, v, rows) for v in vectors}
            for rows in _gl_rows(T)]


def _candidates(F, h, d):
    """All admissible pairs, as `Candidates`.

    A matrix of rank d is A = C R for exactly one d-by-h echelon form R
    (its row space) and one h-by-d C of full column rank, and C = E G
    for one echelon form E^T (its column space) and one G in GL_d.  Then
    ker A = ker R, the left kernel of A is the kernel of E^T, and the B
    that pair with A are (K Y L)^[1/p] for Y in GL_(h-d), with the
    columns of K spanning ker A and the rows of L the left kernel.

    A block is a pair of echelon forms, one giving E and L, the other R
    and K.  Its A are (E G) R for G in GL_d, its B are ((K Y) L)^[1/p]
    for Y in GL_(h-d), and its pairs are every A with every B; no A and
    no B lies in two blocks.  Row i of (E G) R is the sum of the rows of
    R with the coefficients (E G)_i: one lookup in the span of R, made
    once per form, at the code of (E G)_i, made once per form and G.  A
    row of B is likewise one lookup, in the p-th roots of the span of
    L.  So each A and each B is h lookups, and is made once.
    """
    T = F.row_tables(h)
    forms = [([tuple(row[i] for row in S) for i in range(h)],
              [tuple(row) for row in K],
              _span(T, map(T.encode, S)),
              [T.frob_inv[x] for x in _span(T, map(T.encode, zip(*K)))])
             for S, K in _echelon_forms(F, d, h)]
    EG = _products(F, d, {e for E, _, _, _ in forms for e in E})
    KY = _products(F, h - d, {k for _, K, _, _ in forms for k in K})
    # Per form: the rows of E G for each G, and of K Y for each Y.
    sides = [([[eg[e] for e in E] for eg in EG],
              [[ky[k] for k in K] for ky in KY], R_span, L_span)
             for E, K, R_span, L_span in forms]
    blocks = [([tuple(map(R_span.__getitem__, rows)) for rows in EGs],
               [tuple(map(L_span.__getitem__, rows)) for rows in KYs])
              for EGs, _, _, L_span in sides for _, KYs, R_span, _ in sides]
    return Candidates(blocks)


def _row_spaces(T, matrices):
    """The row space of each matrix, a tuple of row codes, as its
    reduced echelon basis: row codes in pivot order, each with a 1 at its
    pivot column (its first nonzero one) and a 0 at the others' pivots.

    The matrices are read a row at a time, all together.  A basis grows
    by one row through a memo, so each (basis, row) is reduced once
    however many matrices reach it.
    """
    digits, add, scale = T.digits, T.add, T.scale
    neg, inv = T.field._neg, T.field._inv
    lead = [next((c for c, x in enumerate(row) if x), None) for row in digits]
    grown = {}
    bases = [()] * len(matrices)
    for rows in zip(*matrices):
        steps = list(zip(bases, rows))
        for basis, row in set(steps).difference(grown):
            u = row
            for b in basis:
                x = digits[u][lead[b]]
                if x:
                    u = add[u][scale[neg[x]][b]]
            if u:
                c = lead[u]
                u = scale[inv[digits[u][c]]][u]
                grown[basis, row] = tuple(sorted(
                    [add[b][scale[neg[digits[b][c]]][u]] for b in basis] + [u],
                    key=lead.__getitem__))
            else:
                grown[basis, row] = basis
        bases = list(map(grown.__getitem__, steps))
    return bases


def _columns(T, matrices):
    """The column codes of each matrix, a tuple of h row codes."""
    digits = T.digits
    code_of = {row: u for u, row in enumerate(digits)}
    # One zip per matrix, over its rows' digits, yields its columns; all
    # are coded in one stream, then cut back into h per matrix.
    columns = map(code_of.__getitem__, itertools.chain.from_iterable(
        map(zip, *(map(digits.__getitem__, rows)
                   for rows in zip(*matrices)))))
    return list(zip(*[columns] * T.h))


def _verify_admissible(T, d, cands):
    """Assert rank A = d, rank B = h - d, A B^[p] = 0 and B A^[1/p] = 0
    on every pair of the Candidates.

    Taking p-th roots, A B^[p] = 0 exactly when A^[1/p] B = 0, that is
    when R B = 0 for a row basis R of A^[1/p]: r . b = 0 for every r in
    R and every column b of B.  B A^[1/p] = 0 exactly when B C = 0 for a
    basis C of the column space of A^[1/p]: r . c = 0 for every row r of
    B and every c in C.  Both products are taken for every pair, by
    lookups in the dot-product table, dot[r] being the products with r,
    for all the pairs of one A at once.  What depends on one matrix
    alone is made once per position: R and C (so rank A) for each A,
    and the rank and column codes of each B.
    """
    h = T.h
    dot, frob_inv = T.dot, T.frob_inv
    b_halves = cands.b_halves
    assert all(len(space) == h - d for space in _row_spaces(T, b_halves))
    b_columns = _columns(T, b_halves)
    roots = [tuple(map(frob_inv.__getitem__, A)) for A in cands.a_halves]
    row_bases = _row_spaces(T, roots)
    column_bases = _row_spaces(T, _columns(T, roots))
    rows_of = itertools.chain.from_iterable
    for i, js in enumerate(cands.fibres):
        assert len(row_bases[i]) == d
        columns_B = list(rows_of(map(b_columns.__getitem__, js)))
        rows_B = list(rows_of(map(b_halves.__getitem__, js)))
        for r in row_bases[i]:
            assert not any(map(dot[r].__getitem__, columns_B))
        for c in column_bases[i]:
            assert not any(map(dot[c].__getitem__, rows_B))


def twisted_action(F, g, pair):
    """Base change: (A, B) -> (g A (g^[p])^-1, g B (g^[1/p])^-1)."""
    A, B = pair
    return (mat_mul(F, mat_mul(F, g, A), mat_inv(F, mat_frob(F, g))),
            mat_mul(F, mat_mul(F, g, B), mat_inv(F, mat_frob_inv(F, g))))


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

    g sends A to g A (g^[p])^-1 and B to g B (g^[1/p])^-1, each half
    alone.  The right factor acts on each row alone: a column table over
    the row codes, one per half.  Row i of g A is sum_j g_ij A_j; its
    first term becomes a source (row j, read through the column table
    composed with scaling by g_ij), each further term a row step.
    Returns (A half, B half, add), each half (sources, steps) on a tuple
    of h row codes: a shift has no row steps, I + e_01 one per half and
    the diagonal none.
    """
    T = F.row_tables(len(g))
    halves = []
    for twist in (F._frob, F._frob_inv):
        # u -> u (g^[p])^-1 inverts u -> u g^[p], the span of g^[p]'s rows.
        image = _span(T, [T.encode(map(twist.__getitem__, row)) for row in g])
        column = sorted(range(len(image)), key=image.__getitem__)
        sources, steps = [], []
        for i, row in enumerate(g):
            terms = [(j, column if x == 1 else
                      [column[u] for u in T.scale[x]])
                     for j, x in enumerate(row) if x]
            sources.append(terms[0])
            steps += [(i, src, table) for src, table in terms[1:]]
        halves.append((tuple(sources), tuple(steps)))
    return halves[0], halves[1], T.add


def apply_move(move, pair):
    """Image of a pair of 2h row codes under the generator behind move."""
    a_half, b_half, add = move
    h = len(pair) // 2
    image = []
    for (sources, steps), X in ((a_half, pair[:h]), (b_half, pair[h:])):
        rows = [table[X[s]] for s, table in sources]
        for dst, src, table in steps:
            rows[dst] = add[rows[dst]][table[X[src]]]
        image += rows
    return tuple(image)


def _half_table(half, add, halves, index):
    """The position of the image of each of halves (tuples of h row
    codes, index giving their positions) under one half of a move.
    The move is applied a row position at a time to all of them."""
    sources, steps = half
    by_row = list(zip(*halves))
    rows = [list(map(table.__getitem__, by_row[s])) for s, table in sources]
    for dst, src, table in steps:
        rows[dst] = [add[x][y] for x, y in
                     zip(rows[dst], map(table.__getitem__, by_row[src]))]
    out = list(map(index.get, zip(*rows)))
    assert None not in out, "a generator image left the candidates"
    return out


def _move_tables(cands, move):
    """The move on pair codes as two tables over positions: the pair
    (i, j) goes to a_moved[i] + b_moved[j], a_moved already multiplied
    by the number of B."""
    a_half, b_half, add = move
    n_b = len(cands.b_halves)
    a_moved = _half_table(a_half, add, cands.a_halves, cands.a_index)
    return ([i * n_b for i in a_moved],
            _half_table(b_half, add, cands.b_halves, cands.b_index))


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
    # The row-code tables alone hold q^(2h) >= 2^(2h * floor(log2 q))
    # entries, so past the bound's bit length the census is refused
    # before any number far over the bound is formed.
    if 2 * h * (q.bit_length() - 1) > DEFAULT_SEARCH_BOUND.bit_length():
        raise SearchSpaceTooLarge(
            f"the row-code tables alone, 2 * {q}^{2 * h} entries, exceed "
            f"the bound {DEFAULT_SEARCH_BOUND}")
    n_candidates = _rank_count(q, h, d) * gl_order(q, h - d)
    # What gets built: the candidates and the row-code tables add and
    # dot, Q^2 entries each (Q = q^h).
    cost = n_candidates + 2 * q ** (2 * h)
    if cost > DEFAULT_SEARCH_BOUND:
        raise SearchSpaceTooLarge(
            f"about {cost} candidates and row-table entries exceed the "
            f"bound {DEFAULT_SEARCH_BOUND}")
    T = F.row_tables(h)
    cands = _candidates(F, h, d)
    assert len(cands) == n_candidates
    _verify_admissible(T, d, cands)

    group_order = gl_order(q, h)
    moves = [generator_move(F, g) for g in gl_generators(F, h)]
    tables = [_move_tables(cands, move) for move in moves]
    fibres, block_of = cands.fibres, cands.block_of
    n_b = len(cands.b_halves)
    visited = set()
    classes = []
    # Each seed is the least unvisited pair, so the least of its orbit:
    # every smaller pair lies in an earlier orbit.  The classes come out
    # sorted by rep.
    digits = T.digits
    for seed in (i * n_b + j for i, fibre in enumerate(fibres)
                 for j in fibre):
        if seed in visited:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            reached = []
            for code in frontier:
                i, j = divmod(code, n_b)
                # Each orbit member is popped once: every image is checked.
                assert fibres[i] is block_of[j], \
                    "a generator image left the candidates"
                for a_moved, b_moved in tables:
                    image = a_moved[i] + b_moved[j]
                    if image not in orbit:
                        orbit.add(image)
                        reached.append(image)
            frontier = reached
        assert group_order % len(orbit) == 0
        i, j = divmod(seed, n_b)
        A, B = cands.a_halves[i], cands.b_halves[j]
        # The tables move the rep as the whole-pair move does.
        for move, (a_moved, b_moved) in zip(moves, tables):
            image = apply_move(move, A + B)
            assert (cands.a_index.get(image[:h]), cands.b_index.get(
                image[h:])) == divmod(a_moved[i] + b_moved[j], n_b)
        classes.append(CensusClass(
            rep=(tuple(map(digits.__getitem__, A)),
                 tuple(map(digits.__getitem__, B))),
            orbit_size=len(orbit), aut_count=group_order // len(orbit)))
        visited |= orbit

    total_orbit = sum(c.orbit_size for c in classes)
    assert total_orbit == n_candidates
    groupoid = sum((Fraction(1, c.aut_count) for c in classes), Fraction(0))
    assert groupoid == Fraction(n_candidates, group_order)
    return CensusReport(
        p=F.p, k=F.k, q=q, h=h, d=d,
        candidate_count=n_candidates, group_order=group_order,
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
