"""Shared builders for the test suite, cached so repeated tests do not
re-enumerate the same groups, and the whole-group and test-only helpers
the library itself never needs."""

import itertools
import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache

from zipzeta import (CosetTables, NotFiniteType, OmegaGroup, ExtWeylElement,
                     ExtWeylGroup, build_root_system, cartan_matrix,
                     compute_twist, direct_sum, enumerate_group)
from zipzeta.weyl import _degree_product
from zipzeta.fforacle import (CensusClass, _candidates, _half_move,
                              _half_table, _rref, _verify_admissible,
                              enumerate_gl, gl_generators, gl_order,
                              mat_frob, mat_frob_inv, mat_inv, mat_mul)

G2_CARTAN = [[2, -3], [-1, 2]]
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]


def e_cartan(rank):
    """Type E in Bourbaki labels: the chain 1-3-4-...-rank, with node 2
    attached to node 4."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, rank)]:
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return m


@lru_cache(maxsize=None)
def system(family, rank):
    if family == "A1xA1":
        return build_root_system(direct_sum([[2]], [[2]]))
    if family == "G":
        return build_root_system(G2_CARTAN)
    if family == "F":
        return build_root_system(F4_CARTAN)
    if family == "E":
        return build_root_system(e_cartan(rank))
    return build_root_system(cartan_matrix(family, rank))


@lru_cache(maxsize=None)
def tables(family, rank):
    return CosetTables(system(family, rank))


@lru_cache(maxsize=None)
def group(t):
    """Every element of the Weyl group of t, in (length, word) order."""
    return enumerate_group(t)


def ext_elements(ext):
    """Every element of an extended Weyl group, component-major."""
    return [ExtWeylElement(ext, w, k)
            for k in range(len(ext.omega)) for w in group(ext.tables)]


def from_word(t, word):
    """The element with this word."""
    w = t.identity
    for i in word:
        w = w * t.simple_reflection(i)
    return w


def min_double(t, I, J):
    """The elements of W minimal in their (W_I, W_J) double coset, in
    (length, word) order."""
    return [w for w in group(t)
            if t.is_min_left(w, I) and t.is_min_right(w, J)]


def act_root(omega, k, root):
    """Image of a root under the diagram action of component k."""
    return omega.rs.root(omega.root_perm(k)[omega.rs.ordinal(root)])


def is_based(omega, k):
    """True when component k acts without signs, so it fixes the base."""
    return all(s > 0 for s in omega.action(k))


def subsystem(rs, subset):
    """Roots supported on the given set of simple indices."""
    return frozenset(rs.roots[k] for k in rs.subsystem_ordinals(subset))


def reference_finite_type(cartan):
    """Raise NotFiniteType unless the matrix is of finite type; return
    the ranks of the components of its diagram.  The definiteness check
    that the type recognizer `rootsystem.degrees` replaced, kept as its
    reference.

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


def kostant_degrees(heights):
    """The degrees of the Weyl group whose positive roots have these
    heights, in increasing order.  By Kostant, the number of exponents
    equal to k is n_k - n_(k+1), where n_k counts the positive roots of
    height k, and each degree is an exponent plus one."""
    counts = Counter(heights)
    return sorted(k + 1 for k, n in counts.items()
                  for _ in range(n - counts.get(k + 1, 0)))


def reference_poincare(t, I):
    """W^I(q) as W(q) / W_I(q) by long division, with both Poincare
    polynomials built from the degrees Kostant reads off the closed
    roots' heights."""
    rs = t.rs
    whole = _degree_product(kostant_degrees(
        r.height for r in rs.positive_roots))
    inside = _degree_product(kostant_degrees(
        rs.roots[k].height for k in rs.subsystem_ordinals(I)
        if k < rs.n_positive))
    # Long division from the top; both polynomials are monic.
    rem = list(whole)
    top = len(inside) - 1
    quotient = [0] * (len(whole) - top)
    for i in reversed(range(len(quotient))):
        c = quotient[i] = rem[i + top]
        for j, b in enumerate(inside):
            rem[i + j] -= c * b
    assert not any(rem), "W_I(q) does not divide W(q)"
    assert len(quotient) - 1 == len(rs.positive_outside(I))
    return tuple(quotient)


def reference_strata(datum):
    """The strata of a datum by brute force, as a set of (elements,
    length, degree): the closure of each minimal element under the moves
    a -> t * a * psi(t)^{-1} (t in Theta) and the Galois generator tau,
    found by a breadth-first search, with degree the closure's size over
    the size of the closure under the Theta moves alone."""
    twist = compute_twist(datum)
    ext = datum.ext
    I = datum.parabolic_type
    pairs = [(t, twist.psi(t).inverse())
             for t in (ext.element(datum.tables.identity, k)
                       for k in datum.theta_indices)]
    moves = [lambda a, t=t, pinv=pinv: t * a * pinv for t, pinv in pairs]

    def closure(a, steps):
        found = {a}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for step in steps:
                y = step(x)
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return frozenset(found)

    out = set()
    for a in ext.min_reps(I):
        stratum = closure(a, moves + [datum.tau.apply_ext])
        degree, rest = divmod(len(stratum), len(closure(a, moves)))
        assert rest == 0
        out.add((stratum, ext.extended_length(a, I, twist.J), degree))
    return out


def reference_extended_length(ext, a, I, J):
    """The extended length through the canonical decomposition
    a = omega * y * w_J: the positive roots outside J that omega * y
    sends to negative roots outside I, plus the length of w_J.  The
    route that ExtWeylGroup.extended_length replaced by a count on
    (w, omega), kept as its reference."""
    rs = ext.rs
    inside_I = rs.subsystem_ordinals(I)
    dec = ext.canonical_decomposition(a, I, J)
    rp = ext.omega.root_perm(dec.omega_index)
    images = (rp[dec.y.perm[k]] for k in rs.positive_outside(J))
    return sum(1 for k in images
               if k >= rs.n_positive and k not in inside_I) + dec.w_J.length


def mat_identity(h):
    return tuple(tuple(1 if i == j else 0 for j in range(h)) for i in range(h))


@lru_cache(maxsize=None)
def swap_ext():
    """Two orthogonal rank-1 factors with the swap as component group."""
    t = tables("A1xA1", 2)
    omega = OmegaGroup(t.rs, ["1", "sigma"], [[0, 1], [1, 0]],
                       [(1, 2), (2, 1)])
    return ExtWeylGroup(t, omega)


@lru_cache(maxsize=None)
def minus_one_ext():
    """Rank 1 with a component acting as -1 on the root lattice."""
    t = tables("A", 1)
    omega = OmegaGroup(t.rs, ["1", "w"], [[0, 1], [1, 0]], [(1,), (-1,)])
    return ExtWeylGroup(t, omega)


@lru_cache(maxsize=None)
def flip_ext():
    """Type A2 with the diagram flip as component group."""
    t = tables("A", 2)
    omega = OmegaGroup(t.rs, ["1", "f"], [[0, 1], [1, 0]],
                       [(1, 2), (2, 1)])
    return ExtWeylGroup(t, omega)


@lru_cache(maxsize=None)
def signed_flip_ext():
    """Type A3 with a component acting as the diagram flip times -1."""
    t = tables("A", 3)
    omega = OmegaGroup(t.rs, ["1", "u"], [[0, 1], [1, 0]],
                       [(1, 2, 3), (-3, -2, -1)])
    return ExtWeylGroup(t, omega)


@lru_cache(maxsize=None)
def trivial_ext(family, rank):
    t = tables(family, rank)
    return ExtWeylGroup(t, OmegaGroup.trivial(t.rs))


def subsets(indices):
    out = [frozenset()]
    for i in indices:
        out += [s | {i} for s in out]
    return out


def mat_rank(F, A):
    if not A:
        return 0
    _, pivots = _rref(F, A, len(A[0]))
    return len(pivots)


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


def candidates_by_scan(F, h, d):
    """All admissible pairs (A, B) as nested tuples, found the slow way:
    every h-by-h matrix is decoded and ranked, and each A of rank d is
    paired with (K Y L)^[1/p] for every Y in GL_(h-d), K and L spanning
    its kernel and left kernel."""
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


def coded_pair(F, pair):
    """A nested pair (A, B) as the census's tuple of 2h row codes."""
    T = F.row_tables(len(pair[0]))
    return tuple(T.encode(row) for M in pair for row in M)


def decoded_pair(F, pair):
    """A census pair of 2h row codes as the nested (A, B)."""
    h = len(pair) // 2
    rows = tuple(F.row_tables(h).digits[u] for u in pair)
    return rows[:h], rows[h:]


def generator_move(F, g):
    """The twisted action of g, a matrix of field codes, on row-coded
    pairs, compiled: g sends A to g A (g^[p])^-1 and B to
    g B (g^[1/p])^-1, each half alone.  Returns (A half, B half, add),
    each half a `_half_move`."""
    T = F.row_tables(len(g))
    coded = tuple(map(T.encode, g))
    return (_half_move(T, coded, T.frob), _half_move(T, coded, T.frob_inv),
            T.add)


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


def candidate_pairs(cands):
    """The pairs of census Candidates as tuples of 2h row codes, every A
    with its fibre, so in increasing order."""
    return [A + B for i, A in enumerate(cands.a_halves)
            for B in cands.fibre(i)]


def pair_tables(F, h, d):
    """The census's candidates as pair codes, and its generators as
    tables on them: (cands, b_halves, b_index, codes, tables).

    Each pair is one int, i * n_B + j, with i and j the positions of its
    A and its B in the sorted distinct A and distinct B, so integer
    order is pair order; codes is the sorted list of them.  Each
    generator moves each distinct half once: the pair (i, j) goes to
    a_moved[i] + b_moved[j], a_moved already multiplied by n_B."""
    cands = _candidates(F, h, d)
    fibres = [cands.fibre(i) for i in range(len(cands.a_halves))]
    b_halves = sorted({B for Bs in fibres for B in Bs})
    b_index = {B: j for j, B in enumerate(b_halves)}
    n_b = len(b_halves)
    codes = [i * n_b + b_index[B] for i, Bs in enumerate(fibres) for B in Bs]
    tables = []
    for a_half, b_half, add in (generator_move(F, g)
                                for g in gl_generators(F, h)):
        a_moved = _half_table(a_half, add, cands.a_halves, cands.a_index)
        tables.append(([i * n_b for i in a_moved],
                       _half_table(b_half, add, b_halves, b_index)))
    return cands, b_halves, b_index, codes, tables


def census_by_pairs(F, h, d):
    """The census classes by the pair-level route: every candidate pair
    is built and passes the admissibility check, and each class is found
    by breadth-first search over pair codes from its least unvisited
    pair, with #Aut = |GL_h| over the orbit size.  It shares the
    candidates and the generator moves with the census, but not the
    orbit-stabilizer split or its linear algebra."""
    T = F.row_tables(h)
    cands, b_halves, _, codes, tables = pair_tables(F, h, d)
    for i, A in enumerate(cands.a_halves):
        _verify_admissible(T, d, A, cands.fibre(i))
    n_b = len(b_halves)
    candidates = set(codes)
    assert len(candidates) == len(cands)
    group_order = gl_order(F.q, h)
    visited = set()
    classes = []
    for seed in codes:
        if seed in visited:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            reached = []
            for code in frontier:
                assert code in candidates
                i, j = divmod(code, n_b)
                for a_moved, b_moved in tables:
                    image = a_moved[i] + b_moved[j]
                    if image not in orbit:
                        orbit.add(image)
                        reached.append(image)
            frontier = reached
        assert group_order % len(orbit) == 0
        i, j = divmod(seed, n_b)
        classes.append(CensusClass(
            rep=decoded_pair(F, cands.a_halves[i] + b_halves[j]),
            orbit_size=len(orbit), aut_count=group_order // len(orbit)))
        visited |= orbit
    assert visited == candidates
    return tuple(classes)


def reference_admissible(F, h, d, pair):
    """The four conditions on a nested pair (A, B), by `mat_rank` and
    `mat_mul` on nested matrices: rank A = d, rank B = h - d,
    A B^[p] = 0 and B A^[1/p] = 0."""
    A, B = pair
    zero = tuple((0,) * h for _ in range(h))
    return (mat_rank(F, A) == d and mat_rank(F, B) == h - d
            and mat_mul(F, A, mat_frob(F, B)) == zero
            and mat_mul(F, B, mat_frob_inv(F, A)) == zero)


def census_by_sweep(F, h, d):
    """The census classes found the slow way: every element of GL_h(F_q)
    applied to one seed per class, counting the stabilizer directly, so
    that orbit-stabilizer is a check rather than a definition."""
    candidates = candidates_by_scan(F, h, d)
    gl = enumerate_gl(F, h)
    assert len(gl) == gl_order(F.q, h)
    gl_data = [(g, mat_inv(F, mat_frob(F, g)), mat_inv(F, mat_frob_inv(F, g)))
               for g in gl]
    candidate_set = set(candidates)
    unvisited = set(candidates)
    classes = []
    while unvisited:
        seed = min(unvisited)
        orbit = set()
        stab = 0
        for g, gfi, gfi2 in gl_data:
            # twisted_action, with the inverses built once per g.
            image = (mat_mul(F, mat_mul(F, g, seed[0]), gfi),
                     mat_mul(F, mat_mul(F, g, seed[1]), gfi2))
            assert image in candidate_set
            orbit.add(image)
            if image == seed:
                stab += 1
        assert stab * len(orbit) == len(gl)
        classes.append(CensusClass(rep=min(orbit), orbit_size=len(orbit),
                                   aut_count=stab))
        unvisited -= orbit
    return tuple(sorted(classes, key=lambda c: c.rep))


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
    """poly: little-endian monic of degree >= 1 over F_p; trial division
    by every monic of degree up to half its own."""
    k = len(poly) - 1
    for dd in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            if not _poly_mod(p, poly, tuple(tail) + (1,)):
                return False
    return True


def reference_field(p, k, modulus=None):
    """The tables of F_(p^k) by polynomial arithmetic over F_p:
    (modulus, add, mul, neg, inv, frob, frob_inv), in FqField's
    encoding (the base-p digits of a code, little-endian, are the
    coefficients), or the ValueError text for a bad modulus.  It shares
    no code with FqField, which builds the same tables on F_p's row
    tables; the default modulus is the least irreducible by trial
    division, coefficients compared from the leading end down."""
    if modulus is None:
        for desc in itertools.product(range(p), repeat=k):
            modulus = tuple(reversed(desc)) + (1,)
            if _is_irreducible(p, modulus):
                break
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            return "modulus must be monic of the right degree"
        if not _is_irreducible(p, modulus):
            return "modulus is reducible"
    q = p ** k
    digits = [tuple(x // p ** i % p for i in range(k)) for x in range(q)]

    def encode(poly):
        return sum(c * p ** i for i, c in enumerate(poly))

    add = [[encode((x + y) % p for x, y in zip(digits[a], digits[b]))
            for b in range(q)] for a in range(q)]
    mul = [[encode(_poly_mod(p, _poly_mul(p, digits[a], digits[b]),
                             modulus)) for b in range(q)] for a in range(q)]
    neg = [encode(-x % p for x in digits[a]) for a in range(q)]
    inv = [None] + [next(b for b in range(1, q) if mul[a][b] == 1)
                    for a in range(1, q)]
    frob = []
    for a in range(q):
        power = 1
        for _ in range(p):
            power = mul[power][a]
        frob.append(power)
    frob_inv = [frob.index(a) for a in range(q)]
    return modulus, add, mul, neg, inv, frob, frob_inv


def _sum(x, y):
    """x + y for Fractions, or for Laurent polynomials in q held as
    {exponent: int} dicts with no zero entries."""
    if not isinstance(x, dict):
        return x + y
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _product(x, y):
    """x * y, in the same two rings as _sum."""
    if not isinstance(x, dict):
        return x * y
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _scaled(x, n):
    """n * x for an int n, in the same two rings as _sum."""
    if not isinstance(x, dict):
        return n * x
    return {e: n * c for e, c in x.items() if n * c}


def reference_series(zeta, order, q=None):
    """Coefficients of t^0..t^order by the binomial expansion of each
    factor, multiplied out in Fraction arithmetic for numeric q and on
    plain {exponent: int} dicts for symbolic q.  It shares no code with
    the integer engine of ZetaProduct, which the tests compare against
    it."""
    def term(exp, coeff):
        return {exp: coeff} if q is None else coeff * Fraction(q) ** exp
    zero = {} if q is None else Fraction(0)
    series = [term(0, 1)] + [zero] * order
    for (a, f), mult in zeta.factor_items():
        factor = [zero] * (order + 1)
        for k in range(order // f + 1):
            factor[f * k] = term(-a * f * k, math.comb(k + mult - 1, mult - 1))
        out = [zero] * (order + 1)
        for i, ci in enumerate(series):
            for j in range(order + 1 - i):
                out[i + j] = _sum(out[i + j], _product(ci, factor[j]))
        series = out
    return series


def reference_point_counts(series):
    """N_1..N_order (index 0 unused) recovered from reference_series
    coefficients by the log-derivative identity
    k c_k = sum_j N_j c_(k-j)."""
    nv = [None]
    for k in range(1, len(series)):
        value = _scaled(series[k], k)
        for j in range(1, k):
            value = _sum(value, _scaled(_product(nv[j], series[k - j]), -1))
        nv.append(value)
    return nv
