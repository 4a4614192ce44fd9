"""Stratification of the twisted minimal-representative set.

A datum consists of a finite root system, a component group acting on
its diagram, a relative Frobenius (a diagram automorphism phi0 and the
field data q0 = p^m, e, so the Galois generator is tau = phi0^e), a
parabolic type I, and a subgroup Theta of the component group.

The twist is built from longest elements: J is the conjugate of the
Frobenius image of I, w1 = w0 * w0,sigma(I) the shortest element of
the double coset of the longest element w0, and psi the inner twist of
the Frobenius by w1.
Strata are the orbits of the minimal set under Theta (acting by
a -> theta * a * psi(theta)^{-1}) grouped further into Galois orbits:
classify makes each Theta element and the Galois generator an index
map on the minimal set, and takes each stratum as an orbit of the group
they generate.
Each stratum carries two invariants: aut_dim, the codimension defect
(flag dimension minus extended length), which is the dimension of the
automorphism group of the corresponding isomorphism class, and degree,
the Galois orbit size, the least field degree over which the class has
a model.  For split data (tau the identity, Theta = {1}) zeta_function
reads the zeta function off the Poincare polynomial of W^I instead of
stratifying.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import (BadPrimePower, FrobeniusDoesNotFixI,
                     FrobeniusDoesNotFixTheta, GroupTooLarge,
                     ThetaActionLeaks, ThetaDoesNotPreserveI,
                     ThetaNotSubgroup, _is_int)
from .extweyl import DiagramAutomorphism, ExtWeylGroup, OmegaGroup
from .rootsystem import build_root_system
from . import weyl
from .weyl import CosetTables
from .zetafn import ZetaProduct, zeta_from_strata


# Trial division stops at isqrt(FACTOR_LIMIT), about 10^6 divisions: an
# integer above the limit with no factor that small is refused.
FACTOR_LIMIT = 10 ** 12


def _least_factor(n, error):
    """The least prime factor of an integer n >= 2, by trial division up
    to isqrt(n); n itself when n is prime.  Raises error when n exceeds
    FACTOR_LIMIT and has no factor up to isqrt(FACTOR_LIMIT)."""
    for cand in range(2, math.isqrt(min(n, FACTOR_LIMIT)) + 1):
        if n % cand == 0:
            return cand
    if n > FACTOR_LIMIT:
        raise error(f"{n} exceeds the trial-division limit {FACTOR_LIMIT} "
                    f"and has no factor up to {math.isqrt(FACTOR_LIMIT)}")
    return n


def _prime_power(q0):
    if not _is_int(q0) or q0 < 2:
        raise BadPrimePower(f"{q0!r} is not a prime power")
    p = _least_factor(q0, BadPrimePower)
    m = 0
    x = q0
    while x % p == 0:
        x //= p
        m += 1
    if x != 1:
        raise BadPrimePower(f"{q0} is not a prime power")
    return p, m


class ZipDatum:
    """Validated input datum, omega and phi0 in their config-file (JSON)
    form.  Construction performs every consistency check; a constructed
    datum is safe to classify.

    The checks read only the Cartan pairing and the degrees, so a split
    datum never builds a root.  flag_dim is the degree of W^I(q), and
    |W^I| = |W| / |W_I| is bounded by weyl.DEFAULT_GROUP_CAP.  That bounds
    split data too, although zeta_function builds none of their
    representatives: lifting the cap there would change which inputs
    are accepted, so it is left for a deliberate change.
    """

    def __init__(self, cartan, parabolic_type, *, omega=None, phi0=None,
                 q0=2, e=1, theta=None):
        self.p, self.m = _prime_power(q0)
        self.q0 = q0
        if not _is_int(e) or e < 1:
            raise ValueError("e must be a positive integer")
        self.e = e

        self.rs = build_root_system(cartan)
        self.tables = CosetTables(self.rs)

        if omega is None:
            self.omega = OmegaGroup.trivial(self.rs)
        else:
            labels = list(omega["elements"])
            actions = [omega["diagram_action"][lab] for lab in labels]
            self.omega = OmegaGroup(self.rs, labels, omega["table"], actions)
        self.ext = ExtWeylGroup(self.tables, self.omega)

        I = self.parabolic_type = frozenset(parabolic_type)
        size = self.tables.min_left_count(I)
        if size > weyl.DEFAULT_GROUP_CAP:
            raise GroupTooLarge(
                f"the parabolic type has {size} minimal coset "
                f"representatives, over the cap of {weyl.DEFAULT_GROUP_CAP}")
        self.flag_dim = len(self.tables.min_left_poincare(I)) - 1

        if phi0 is None:
            self.sigma = DiagramAutomorphism.identity(self.ext)
        else:
            op = phi0.get("omega_perm")
            op = self.omega.labels if op is None else op
            self.sigma = DiagramAutomorphism(
                self.ext, phi0["diagram_perm"],
                [self.omega.index(lab) for lab in op])
        self.tau = self.sigma.power(e)

        if theta is None:
            theta_idx = {self.omega.identity_index}
        else:
            theta_idx = {self.omega.index(lab) for lab in theta}
        if self.omega.identity_index not in theta_idx:
            raise ThetaNotSubgroup("subgroup must contain the identity")
        # Omega is finite, so a subset closed under products holds inverses.
        for a in theta_idx:
            for b in theta_idx:
                if self.omega.mult(a, b) not in theta_idx:
                    raise ThetaNotSubgroup(
                        f"labels are not closed under the product: "
                        f"{self.omega.label(a)!r} * {self.omega.label(b)!r}")
        self.theta_indices = tuple(sorted(theta_idx))

        for k in self.theta_indices:
            if self.omega.conjugate_subset(k, I) != I:
                raise ThetaDoesNotPreserveI(
                    f"conjugation by {self.omega.label(k)!r} moves the "
                    "parabolic type")
        if self.tau.apply_subset(I) != I:
            raise FrobeniusDoesNotFixI(
                "the Galois generator moves the parabolic type")
        if {self.tau.apply_omega(k) for k in self.theta_indices} != set(
                self.theta_indices):
            raise FrobeniusDoesNotFixTheta(
                "the Galois generator moves the component subgroup")

    @cached_property
    def q(self):
        """q0^e, built only when asked for: its size grows with e."""
        return self.q0 ** self.e

    @property
    def theta_labels(self):
        return tuple(self.omega.label(k) for k in self.theta_indices)

    @property
    def split(self):
        """True when the Galois generator tau is the identity and Theta
        is {1}: every element of the minimal set is then a stratum of
        degree 1 on its own."""
        return (self.tau.is_identity()
                and self.theta_indices == (self.omega.identity_index,))


class Twist(namedtuple("Twist", "datum J w1 w2")):
    """Twisting data derived from a datum."""

    __slots__ = ()

    def psi(self, a):
        """The twisted Frobenius on the extended group: conjugate of the
        plain Frobenius by w1."""
        ext = self.datum.ext
        w1e = ext.element(self.w1, ext.omega.identity_index)
        return w1e * self.datum.sigma.apply_ext(a) * w1e.inverse()


def compute_twist(datum):
    """Compute (J, w1, w2) for the datum.

    J is the set of simple indices j with alpha_j = -w0(alpha_i) for i
    in the Frobenius image sigma(I) of the parabolic type; w1 is the
    shortest element of the double coset W_J * w0 * W_sigma(I).  Since
    w0 conjugates W_sigma(I) onto W_J, that double coset is the single
    coset w0 * W_sigma(I), so w1 = w0 * w0,sigma(I) with w0,sigma(I)
    the longest element of W_sigma(I) (Pink-Wedhorn-Ziegler, "Algebraic
    zip data", 2011).  w2 is the preimage of w1 under the Frobenius.
    The length, two-sided minimality and both conjugation identities
    are asserted.
    """
    rs = datum.rs
    tables = datum.tables
    rank = rs.rank
    m = rs.n_positive
    sI = datum.sigma.apply_subset(datum.parabolic_type)
    w0 = tables.longest_element()
    J = set()
    for i in sI:
        k = w0.perm[i - 1]
        neg = rs.negate_ordinal(k)
        assert neg < rank
        J.add(neg + 1)
    J = frozenset(J)
    w0_sI = tables.longest_element(sI)
    w1 = w0 * w0_sI
    assert w1.length == m - w0_sI.length
    assert tables.is_min_left(w1, J) and tables.is_min_right(w1, sI)
    for i in sI:
        img = w1.perm[i - 1]
        assert img < rank and (img + 1) in J
    w2 = datum.sigma.inverse().apply_weyl(w1)
    assert datum.sigma.apply_weyl(w2) == w1
    assert datum.tau.apply_weyl(w1) == w1
    return Twist(datum, J, w1, w2)


class Stratum(namedtuple("Stratum", "rep elements length aut_dim degree")):
    """One Galois orbit of subgroup orbits in the minimal set."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.elements)


_Stratification = namedtuple("_Stratification", "twist reps lengths strata")
_Stratification.__doc__ = """Everything one pass of the stratification
computes: the twist, the minimal set with the extended length of each
element in the order of ExtWeylGroup.min_reps, and the strata.  Nothing
is decomposed: the lengths are read off the elements."""


def classify(datum):
    """Full stratification: the list of strata, deterministically
    ordered by (aut_dim, degree, canonical word of the representative).
    """
    return _stratify(datum).strata


def _stratify(datum):
    """The stratification of classify, with the data it passes through,
    in one walk over the minimal set.

    Each element's extended length is read off it once.  Members and
    strata are ordered by (length, word, component), a rank read off
    the index, since min_reps lists components in word order, and the
    walk takes the positions by (aut_dim, rank).  For split data (tau
    the identity, Theta = {1}) each position is a stratum of degree 1.

    Otherwise each Theta element t other than 1, acting by
    a -> t * a * psi(t)^{-1}, and tau unless it is the identity, moving
    keys (permutation, component index) by DiagramAutomorphism.apply_key,
    become index maps on the positions, each checked whole: it must stay
    in the minimal set and keep the lengths, and tau must be one-to-one
    and send a and t * a * psi(t)^{-1} into one Theta-orbit (its direct
    image under the group action, labelled by its least position), or
    ThetaActionLeaks is raised.  Then tau permutes the Theta-orbits: it
    is onto the finite set, so the self-map it induces on the orbits is
    onto, hence one-to-one, and each orbit's image is a whole orbit.  A
    stratum is an orbit of the group the maps generate, found from its
    least position.  Its degree, the length of its tau-cycle of
    Theta-orbits, is its size over that of the rep's Theta-orbit.
    """
    twist = compute_twist(datum)
    ext = datum.ext
    tau = datum.tau
    I = datum.parabolic_type
    J = twist.J
    reps = ext.min_reps(I)
    # min_reps produced every rep, so none is tested for minimality again.
    lengths = [ext._extended_length(a, I, J) for a in reps]
    flag_dim = datum.flag_dim
    assert max(lengths) <= flag_dim
    n = len(datum.omega)
    rank = [i * n + k for k in range(n) for i in range(len(reps) // n)]
    # aut_dim falls as the length rises; the sort is stable.
    order = sorted(range(len(reps)), key=rank.__getitem__)
    order.sort(key=lengths.__getitem__, reverse=True)

    if datum.split:
        strata = [Stratum(reps[i], (reps[i],), lengths[i],
                          flag_dim - lengths[i], 1) for i in order]
        return _Stratification(twist, reps, lengths, strata)

    keys = [(a.w.perm, a.omega) for a in reps]
    position = {k: idx for idx, k in enumerate(keys)}

    def index_map(images, action):
        try:
            return [position[k] for k in images]
        except KeyError:
            raise ThetaActionLeaks(f"{action} left the minimal set") from None

    thetas = []
    label = list(range(len(reps)))  # least member of each one's Theta-orbit
    for k in datum.theta_indices:
        t = ext.element(datum.tables.identity, k)
        p = twist.psi(t)
        if t.is_identity():
            # psi(1) = 1, so the identity fixes every representative.
            assert p.is_identity()
            continue
        pinv = p.inverse()
        images = (t * a * pinv for a in reps)
        theta = index_map(((b.w.perm, b.omega) for b in images),
                          "subgroup action")
        if [lengths[i] for i in theta] != lengths:
            raise ThetaActionLeaks(
                "extended length is not constant on a subgroup orbit")
        thetas.append(theta)
        label = list(map(min, label, theta))

    maps = thetas
    if not tau.is_identity():
        image = index_map((tau.apply_key(*k) for k in keys), "Galois action")
        moved = [label[i] for i in image]
        if len(set(image)) < len(image) or any(
                [moved[i] for i in theta] != moved for theta in thetas):
            raise ThetaActionLeaks(
                "Galois action does not permute the subgroup orbits")
        if [lengths[i] for i in image] != lengths:
            raise ThetaActionLeaks(
                "extended length is not constant on a Galois orbit")
        maps = thetas + [image]

    seen = [False] * len(reps)
    strata = []
    for first in order:
        if seen[first]:
            continue
        seen[first] = True
        members = [first]
        for idx in members:  # members grows as it is read
            for m in maps:
                other = m[idx]
                if not seen[other]:
                    seen[other] = True
                    members.append(other)
        orbit = {first, *(theta[first] for theta in thetas)}
        degree, rest = divmod(len(members), len(orbit))
        assert rest == 0
        members.sort(key=rank.__getitem__)
        strata.append(Stratum(
            reps[first], tuple(map(reps.__getitem__, members)),
            lengths[first], flag_dim - lengths[first], degree))
    # The sort is stable: ties keep the order of their least members.
    strata.sort(key=lambda s: (s.aut_dim, s.degree))
    return _Stratification(twist, reps, lengths, strata)


def zeta_function(datum):
    """The zeta function of the datum, as zeta_from_strata(classify(datum))
    gives it.

    A split datum, one whose Galois generator tau is the identity and
    whose Theta is {1}, needs no stratification: every element of the
    minimal set is a stratum of degree 1, and its aut_dim is flag_dim
    minus its extended length.  Those lengths are distributed as the
    lengths of W^I, once per component, since the point counts are
    N_v = |Omega| q^(-v flag_dim) W^I(q^v) (Lang's theorem and the
    Bruhat decomposition of G/P).  So the factors are read off the
    Poincare polynomial W^I(q) = W(q) / W_I(q) without building W^I.
    Any other datum is classified.
    """
    if datum.split:
        poincare = datum.tables.min_left_poincare(datum.parabolic_type)
        n = len(datum.omega)
        return ZetaProduct({(datum.flag_dim - length, 1): n * count
                            for length, count in enumerate(poincare)})
    return zeta_from_strata(classify(datum))


def point_count(strata, v, q=None):
    """Groupoid cardinality over the degree-v field: each stratum whose
    degree divides v contributes degree * q^(-aut_dim * v): the N_v of
    their zeta function.

    Symbolic in q when q is None (a Laurent polynomial); an exact
    rational when q is an integer.
    """
    return zeta_from_strata(strata).n_value(v, q)
