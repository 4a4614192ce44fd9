"""Brute-force census of level-one semilinear module structures.

A structure on an h-dimensional space over F_{p^k} is a pair of h-by-h
matrices (A, B): the first acts after the p-power map, the second after
its inverse, and the pair must satisfy

    rank A = d,   rank B = h - d,   A * B^[p] = 0,   B * A^[1/p] = 0,

where ^[p] is the entrywise p-power.  These conditions say the image of
each semilinear map is exactly the kernel of the other.  A base change
g sends (A, B) to (g A (g^[p])^-1, g B (g^[1/p])^-1); the census
partitions all pairs into orbits under the full invertible group, and
reports per-class automorphism counts plus the groupoid cardinality
(sum of 1/#Aut), the quantity the stratification predicts.

The pairs are built, not searched for: every A of rank d is a column
basis times a row basis in reduced echelon form, and the B that pair
with it come from the kernels read off the two echelon forms.  A row of
h field codes is stored as one integer, its row code (big-endian base
q, so integer order is row order), and a matrix as the tuple of its h
row codes.  Every distinct A is built, by lookups in small span tables,
and kept once, in a sorted list; the pairs come in blocks, every A of a
block with every B of it, and the B of a block, the fibre of each of its
A, are built only when asked for.  Vector sums, scalings, dot products,
entrywise p-th powers and roots and the growth of row spaces are
lookups in tables over the q^h row codes (`RowTables`), as in the
Meat-Axe (Parker, "The computer calculation of modular characters",
1984).  The field itself is built the same way: F_(p^k) is F_p^k, with
sums from the row tables of F_p and a product by Horner's rule in x,
and its modulus is irreducible exactly when every nonzero element comes
out with an inverse.

The classes are found by orbit and stabilizer (Holt, Eick and O'Brien,
"Handbook of Computational Group Theory", 2005, ch. 4): a class is an
A-orbit with an orbit of Stab(A0) on the fibre of its least A, A0.
`_half_move` compiles the move of one half by an element g, given by its
row codes, into a table over positions.  Three generators of GL_h (the
cyclic shift, one transvection and one diagonal matrix) move every A,
with the p-th power.  A stabilizer is the unit group of an F_p-subspace
of M_h(F_q), since x -> x^p is additive, so #Stab comes from linear
algebra over F_p, and the units that count enumerates split the fibre,
with the p-th root.  Each move is checked where it is used by
g M = M' g^[p], M' the image of M: a generator at each A0, and a unit
with M' = M = A0.  One search (`_orbit`) finds the orbits at both
levels: it grows each orbit from its least unowned point under the
tables it has, and takes another unit's table only while the orbit is
smaller than orbit-stabilizer predicts.  So every class is checked by
|orbit| * #Aut = |GL_h| as it is found, and the orbits are complete
exactly when that identity holds for each of them.  Only the fibres of
the A0 are built and checked against the rank and product conditions;
the fibre of g A0 is g times the fibre of A0, so the rest follow.  The
test suite keeps the scan of all q^(h^2) matrices, the full-group
stabilizer sweep, the pair-level orbit search with its whole-pair move
and a nested-matrix admissibility check as oracles; the nested-tuple
matrix helpers here serve only them, and the census itself, GL_d and
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
    code of the dot product; and `frob[u]` and `frob_inv[u]`, the codes
    of the entrywise p-th power and p-th root.  `add` and `dot` have
    Q^2 entries each.  Every table for h is built from the one for
    h - 1 by appending a last digit.

    The subspaces of F_q^h are numbered as they are met, each held as
    its reduced echelon basis in `spaces`: row codes in pivot order,
    each with a 1 at its pivot column (its first nonzero one) and a 0 at
    the others' pivots; 0 is the zero space.  `grow[s][u]` is the number
    of the span of space s and the row u, a table built on first use by
    `grow_table`.
    """

    def __init__(self, field, h):
        q = field.q
        fadd, fmul = field._add, field._mul
        digits, add, dot = [()], [[0]], [[0]]
        scale = [[0] for _ in range(q)]
        frob, frob_inv = [0], [0]
        for _ in range(h):
            digits = [row + (x,) for row in digits for x in range(q)]
            add = [[v * q + s for v in a_row for s in x_row]
                   for a_row in add for x_row in fadd]
            dot = [[fadd[v][m] for v in a_row for m in x_row]
                   for a_row in dot for x_row in fmul]
            scale = [[v * q + m for v in c_row for m in fmul[c]]
                     for c, c_row in enumerate(scale)]
            frob = [v * q + x for v in frob for x in field._frob]
            frob_inv = [v * q + x for v in frob_inv for x in field._frob_inv]
        self.field = field
        self.h = h
        self.digits = digits
        self.add = add
        self.dot = dot
        self.scale = scale
        self.frob = frob
        self.frob_inv = frob_inv
        self.lead = [next((c for c, x in enumerate(row) if x), None)
                     for row in digits]
        # The identity matrix; its rows are also the echelon basis of
        # all of F_q^h.
        self.identity = tuple(q ** (h - 1 - t) for t in range(h))
        self.spaces = [()]
        self.space_number = {(): 0}
        self.grow = [None]

    def encode(self, row):
        """The code of a row of h field codes."""
        code = 0
        for x in row:
            code = code * self.field.q + x
        return code

    def grow_table(self, s):
        """Build grow[s]: each row is reduced against the basis of space
        s, and a row left nonzero, scaled to a 1 at its pivot, clears
        that column from the basis and joins it."""
        digits, add, scale, lead = self.digits, self.add, self.scale, self.lead
        neg, inv = self.field._neg, self.field._inv
        basis = self.spaces[s]
        table = []
        for u in range(len(digits)):
            for b in basis:
                x = digits[u][lead[b]]
                if x:
                    u = add[u][scale[neg[x]][b]]
            if not u:
                table.append(s)
                continue
            c = lead[u]
            u = scale[inv[digits[u][c]]][u]
            grown = tuple(sorted(
                [add[b][scale[neg[digits[b][c]]][u]] for b in basis] + [u],
                key=lead.__getitem__))
            number = self.space_number.get(grown)
            if number is None:
                number = self.space_number[grown] = len(self.spaces)
                self.spaces.append(grown)
                self.grow.append(None)
            table.append(number)
        self.grow[s] = table


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
    """The admissible pairs, as the blocks they are built in: every A,
    and the B that pair with a given A, built on request.

    `a_halves` is the distinct A, each a tuple of h row codes, in
    increasing order, and `a_index` gives the position of each.  A block
    is every A with one kernel and one left kernel, with every B that
    pairs with them: in a block every A pairs with every B, and no A and
    no B lies in two blocks.  `block_of[i]` is the number of the block
    of the A at position i, and `fibre(i)` builds that block's B, in
    increasing order.  Every block has `n_b` of them, so len, the number
    of pairs, is len(a_halves) * n_b.
    """

    __slots__ = ("a_halves", "a_index", "block_of", "n_b", "_recipes")

    def __init__(self, blocks):
        # A block is (its A, its B recipe); the recipe (rows, span) makes
        # one B, the tuple of span[u] over the u in r, from each r in rows.
        owner = {A: t for t, (As, _) in enumerate(blocks) for A in As}
        self.a_halves = sorted(owner)
        self.a_index = {A: i for i, A in enumerate(self.a_halves)}
        self.block_of = list(map(owner.__getitem__, self.a_halves))
        self._recipes = [recipe for _, recipe in blocks]
        self.n_b = len(blocks[0][1][0])

    def fibre(self, i):
        rows, span = self._recipes[self.block_of[i]]
        return sorted(tuple(map(span.__getitem__, r)) for r in rows)

    def __len__(self):
        return len(self.a_halves) * self.n_b


def _span(T, rows, scalars=None):
    """The code of sum_t x_t rows[t] at the code of every x in
    K^len(rows): big-endian, as the row codes of that space are.  K is
    F_q, or, with scalars = p, the prime field, whose elements are the
    codes below p."""
    add, scale = T.add, T.scale[:scalars]
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
    """For each of the vectors v (tuples of m field codes), the code of
    v M in F_q^m for every M in GL_m, in `_gl_rows` order, as a dict of
    lists keyed by v.  Each term of v M is added for all M at once."""
    T = F.row_tables(m)
    gl = _gl_rows(T)
    out = {}
    for v in vectors:
        codes = [0] * len(gl)
        for t, x in enumerate(v):
            if x:
                add, scaled = T.add, T.scale[x]
                codes = [add[u][scaled[rows[t]]] for u, rows in zip(codes, gl)]
        out[v] = codes
    return out


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
    L.  So each A and each B is h lookups.  Every A is made here, and
    the B of a block only when its fibre is asked for.
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
    sides = [(list(zip(*map(EG.__getitem__, E))),
              list(zip(*map(KY.__getitem__, K))), R_span, L_span)
             for E, K, R_span, L_span in forms]
    blocks = [([tuple(map(R_span.__getitem__, rows)) for rows in EGs],
               (KYs, L_span))
              for EGs, _, _, L_span in sides for _, KYs, R_span, _ in sides]
    return Candidates(blocks)


def _space_numbers(T, rows_by_position, n):
    """The number, in T.spaces, of the row space of each of n matrices
    given a row position at a time: rows_by_position[t][m] is row t of
    matrix m.  All are read together, one grow-table lookup a row."""
    grow = T.grow
    states = [0] * n
    for rows in rows_by_position:
        for s in set(states):
            if grow[s] is None:
                T.grow_table(s)
        states = [grow[s][u] for s, u in zip(states, rows)]
    return states


def _row_spaces(T, matrices):
    """The row space of each matrix, a tuple of row codes, as its
    reduced echelon basis (see RowTables)."""
    return list(map(T.spaces.__getitem__,
                    _space_numbers(T, zip(*matrices), len(matrices))))


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


def _verify_admissible(T, d, A, Bs):
    """Assert rank A = d, rank B = h - d, A B^[p] = 0 and B A^[1/p] = 0
    for every B in Bs.

    Taking p-th roots, A B^[p] = 0 exactly when A^[1/p] B = 0, that is
    when R B = 0 for a row basis R of A^[1/p]: r . b = 0 for every r in
    R and every column b of B.  B A^[1/p] = 0 exactly when B C = 0 for a
    basis C of the column space of A^[1/p]: r . c = 0 for every row r of
    B and every c in C.  Both products are taken for every pair, by
    lookups in the dot-product table, dot[r] being the products with r,
    for all the B at once.  R and C (so rank A) are made once, and the
    rank and column codes of each B.
    """
    dot = T.dot
    assert all(len(space) == T.h - d for space in _row_spaces(T, Bs))
    root = tuple(map(T.frob_inv.__getitem__, A))
    (row_basis,) = _row_spaces(T, [root])
    (column_basis,) = _row_spaces(T, _columns(T, [root]))
    assert len(row_basis) == d
    rows_of = itertools.chain.from_iterable
    columns_B = list(rows_of(_columns(T, Bs)))
    rows_B = list(rows_of(Bs))
    for r in row_basis:
        assert not any(map(dot[r].__getitem__, columns_B))
    for c in column_basis:
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


def _half_move(T, g, twist):
    """X -> g X (g^[twist])^-1 on tuples of h row codes, g a tuple of h
    row codes and twist the row table of the p-th power or the p-th root
    (T.frob or T.frob_inv).

    The right factor acts on each row alone: a column table over the
    row codes.  Row i of g X is sum_j g_ij X_j; its first term becomes a
    source (row j, read through the column table composed with scaling
    by g_ij), each further term a row step.  Returns (sources, steps): a
    shift has no row steps, I + e_01 one and the diagonal none.
    """
    # u -> u (g^[p])^-1 inverts u -> u g^[p], the span of g^[p]'s rows.
    image = _span(T, map(twist.__getitem__, g))
    column = sorted(range(len(image)), key=image.__getitem__)
    sources, steps = [], []
    for i, u in enumerate(g):
        terms = [(j, column if x == 1 else [column[v] for v in T.scale[x]])
                 for j, x in enumerate(T.digits[u]) if x]
        sources.append(terms[0])
        steps += [(i, src, table) for src, table in terms[1:]]
    return tuple(sources), tuple(steps)


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


def _times(T, X, Y):
    """The product of two matrices, each a tuple of h row codes."""
    add, scale, digits = T.add, T.scale, T.digits
    return tuple(_combine(add, scale, digits[x], Y) for x in X)


def _fp_kernel(p, vectors):
    """A basis of the relations sum_t c_t vectors[t] = 0 over F_p, each
    vector a list of F_p coordinates: the rows (v_t | e_t) are reduced,
    and each whose v part comes out zero keeps a relation in its e
    part."""
    n = len(vectors)
    width = len(vectors[0]) if vectors else 0
    rows = [list(v) + [int(s == t) for s in range(n)]
            for t, v in enumerate(vectors)]
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inverse = pow(rows[r][c], p - 2, p)
        top = rows[r] = [x * inverse % p for x in rows[r]]
        for i in range(r + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        r += 1
    return [row[width:] for row in rows[r:]]


class _Stabilizers:
    """Stabilizers, by linear algebra over F_p on row codes.

    X fixes A exactly when X A = A X^[p], and fixes B exactly when
    X B = B X^[1/p].  x -> x^p is additive, so each is an F_p-linear
    condition on X: the stabilizer is the unit group of an F_p-subspace
    of M_h(F_q), found as a kernel whose unknowns are the h^2 k
    F_p-coordinates of X, the base-p digits of its row codes.  The
    subspace for (A, B) is solved inside the coordinates of the one for
    A.  #Stab is the number of invertible elements of the subspace: all
    of M_h(F_q) has |GL_h| of them, and any smaller one has its p^dim
    elements enumerated, their number charged to the search bound.
    Those units are also the elements that split a fibre into orbits;
    for all of M_h(F_q) the generators of GL_h stand in for them, held
    as row codes in `generators`.
    """

    def __init__(self, T):
        F = T.field
        self.T = T
        self.p = p = F.p
        width = T.h * F.k
        self.coords = [[u // p ** e % p for e in range(width)]
                       for u in range(len(T.digits))]
        self.minus_one = F._neg[1]
        self.generators = [tuple(map(T.encode, g))
                           for g in gl_generators(F, T.h)]
        self.unknowns = [tuple(p ** e if r == i else 0 for r in range(T.h))
                         for i in range(T.h) for e in range(width)]
        self.spent = 0

    def _solve(self, basis, M, twist):
        """A basis of the X in the span of basis with X M = M X^[twist],
        twist a row table: the F_p-relations among the residuals
        X M - M X^[twist] of the basis, combined."""
        T = self.T
        add, negate, coords = T.add, T.scale[self.minus_one], self.coords
        vectors = []
        for X in basis:
            right = _times(T, M, tuple(map(twist.__getitem__, X)))
            vectors.append([x for u, v in zip(_times(T, X, M), right)
                            for x in coords[add[u][negate[v]]]])
        return [tuple(_combine(add, T.scale, c, rows) for rows in zip(*basis))
                for c in _fp_kernel(self.p, vectors)]

    def units(self, basis):
        """(#units, elements): the number of invertible elements of the
        span of basis, and an iterator over elements that generate
        them.  For all of M_h(F_q) those are the generators of GL_h;
        for a smaller span, every unit in span order, each a tuple of h
        row codes built when asked for."""
        T = self.T
        n = len(basis)
        if n == len(self.unknowns):
            return gl_order(T.field.q, T.h), iter(self.generators)
        self.spent += self.p ** n
        if self.spent > DEFAULT_SEARCH_BOUND:
            raise SearchSpaceTooLarge(
                f"about {self.spent} stabilizer elements exceed the bound "
                f"{DEFAULT_SEARCH_BOUND}")
        rows = [_span(T, column, self.p) for column in zip(*basis)]
        spaces = _space_numbers(T, rows, self.p ** n)
        full = T.space_number.get(T.identity)
        return spaces.count(full), (
            X for X, s in zip(zip(*rows), spaces) if s == full)

    def of_half(self, A):
        """(basis, #Stab, elements) of A, for the units of
        {X : X A = A X^[p]}: see `units`."""
        basis = self._solve(self.unknowns, A, self.T.frob)
        return (basis, *self.units(basis))

    def of_pair(self, basis, count, B):
        """#Stab of (A, B), from the basis and #Stab of A."""
        inner = self._solve(basis, B, self.T.frob_inv)
        return count if len(inner) == len(basis) else self.units(inner)[0]


def _orbit(seed, owner, tables, more, target):
    """The orbit of position seed under position maps: a list of
    positions, seed first, or None when it meets an earlier orbit.

    owner[x] is the seed of the orbit that holds x, or -1; each point
    found is marked with seed.  The orbit is closed under tables, and
    while it holds fewer than target points another map is pulled from
    the iterator more and kept in tables, for the later seeds too.  An
    image owned by an earlier seed is refused: orbits are disjoint, so
    that earlier orbit was only part of one.  When more runs dry the
    orbit comes back short of target.
    """
    owner[seed] = seed
    orbit = [seed]
    # Each round moves a layer of points by some maps: first the seed by
    # every map, then each new layer by every map, and after a pull the
    # whole orbit by the pulled map alone.
    layer, maps = orbit, tables
    while True:
        while layer:
            found = []
            for table in maps:
                for y in map(table.__getitem__, layer):
                    if owner[y] != seed:
                        if owner[y] != -1:
                            return None
                        owner[y] = seed
                        found.append(y)
            orbit += found
            layer, maps = found, tables
        table = next(more, None) if len(orbit) < target else None
        if table is None:
            return orbit
        tables.append(table)
        layer, maps = orbit, (table,)


def _met(seed, owner, tables):
    """The seed of the earlier orbit that the refused orbit of seed ran
    into: the least owner, other than seed, of an image of a point that
    orbit had marked."""
    return min(owner[table[x]] for x, s in enumerate(owner) if s == seed
               for table in tables if owner[table[x]] not in (-1, seed))


def enumerate_census(field, h, d):
    """Exhaustive classification for the given height and rank.

    The classes are found by orbit and stabilizer.  The pairs over an
    A-orbit with least member A0 are the GL_h-images of the pairs
    (A0, B), B in the fibre of A0, and two of those lie in one class
    exactly when Stab(A0) moves one B to the other.  So a class is an
    A-orbit with a Stab(A0)-orbit O on the fibre: its size is
    |A-orbit| * |O|, and its least pair, its rep, is (A0, least B in O).
    `_orbit` finds both kinds of orbit, each from its least unowned
    point: an A-orbit under the generators of GL_h, as the group is
    finite, and O under the units that count Stab(A0), taken one at a
    time while O is smaller than #Stab(A0) / #Stab(A0, B), with
    #Stab(A0, B) solved at the least B of O.

    Every A is built and has its rank checked, and each generator moves
    every A once, by tables, and is checked at each A0 by
    g A0 = A' g^[p], A' the image its table gives.  Of the B, only the
    fibres of the A0 are built; their pairs pass the four admissibility
    conditions, each unit is checked to fix A0 (X A0 = A0 X^[p]) before
    it moves the fibre, and every image of a B is checked to stay in
    it.  The pairs never built are covered by equivariance, since the
    fibre of g A0 is g times the fibre of A0, and by the counts: the A
    number _rank_count(q, h, d), each fibre |GL_(h-d)|, and the class
    sizes sum to the candidate count.

    Every class is checked by the identity |orbit| * #Aut = |GL_h|, with
    #Aut from linear algebra (`_Stabilizers`): |A-orbit| * #Stab(A0)
    first, then |O| * #Stab(A0, B) = #Stab(A0).  A failure, such as a
    generator set too small to reach every orbit, raises
    MismatchDetected naming the class; for a fibre orbit that runs into
    one found before it, the earlier class, whose orbit was short.
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
    a_halves = cands.a_halves
    assert len(a_halves) == _rank_count(q, h, d)
    assert all(len(space) == d for space in _row_spaces(T, a_halves))

    group_order = gl_order(q, h)
    stabs = _Stabilizers(T)
    tables = [_half_table(_half_move(T, g, T.frob), T.add, a_halves,
                          cands.a_index) for g in stabs.generators]
    digits = T.digits

    def rep(A, B):
        return (tuple(map(digits.__getitem__, A)),
                tuple(map(digits.__getitem__, B)))

    def verify(orbit, times, A, B):
        # |orbit| * times must be |GL_h|: |A-orbit| * #Stab(A0), or for
        # a class |O| * |A-orbit| * #Stab(A0, B).  An orbit that met an
        # earlier one counts as none, and so does that earlier one.
        observed = len(orbit or ()) * times
        if observed != group_order:
            raise MismatchDetected(
                group_order, observed,
                context=f"census h={h} d={d} p={F.p} k={F.k}, |GL_h| "
                        f"against |orbit| * #Aut for the class of "
                        f"{rep(A, B)}")

    def check_move(g, M, image, message):
        # g sends M to image = g M (g^[p])^-1 when g M = image g^[p].
        assert _times(T, g, M) == _times(
            T, image, tuple(map(T.frob.__getitem__, g))), message

    def unit_tables(A, Bs, elements):
        # The move table over Bs of each unit, then the check that the
        # unit fixes A, before the table is used: an image outside Bs is
        # reported as such first.
        index = {B: j for j, B in enumerate(Bs)}
        for X in elements:
            table = _half_table(_half_move(T, X, T.frob_inv), T.add, Bs, index)
            check_move(X, A, A, "a stabilizer unit moves the A it should fix")
            yield table

    owner = [-1] * len(a_halves)
    classes = []
    # Every orbit is searched from its least unowned point, so the least
    # of its orbit: every smaller point lies in an earlier orbit.  The
    # classes of an A-orbit come out in order of least B, so all of them
    # sorted by rep.
    for seed in range(len(a_halves)):
        if owner[seed] != -1:
            continue
        A = a_halves[seed]
        Bs = cands.fibre(seed)
        assert len(Bs) == gl_order(q, h - d)
        _verify_admissible(T, d, A, Bs)
        for g, table in zip(stabs.generators, tables):
            check_move(g, A, a_halves[table[seed]],
                       "a generator's move table disagrees with "
                       "g A0 = A' g^[p]")
        basis, n_stab, elements = stabs.of_half(A)
        a_orbit = _orbit(seed, owner, tables, iter(()), group_order // n_stab)
        verify(a_orbit, n_stab, A, Bs[0])
        b_owner = [-1] * len(Bs)
        b_tables = []
        units = unit_tables(A, Bs, elements)
        for j, B in enumerate(Bs):
            if b_owner[j] != -1:
                continue
            aut = stabs.of_pair(basis, n_stab, B)
            orbit = _orbit(j, b_owner, b_tables, units, n_stab // aut)
            if orbit is None:
                # The earlier orbit it ran into was accepted short of the
                # units that reach this one, so that class is named.
                B = Bs[_met(j, b_owner, b_tables)]
            verify(orbit, len(a_orbit) * aut, A, B)
            classes.append(CensusClass(rep=rep(A, B),
                                       orbit_size=len(a_orbit) * len(orbit),
                                       aut_count=aut))

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
