"""Truncated Barsotti-Tate stacks through the general linear group.

For height h and dimension d, the classifying datum lives on the type
A root system of rank h-1 with parabolic type everything except node d
(everything, when d is 0 or h), base field of p elements and trivial
twisting.  The datum is split, so classes at level one are indexed by
the minimal coset representatives: there are C(h, d) strata, each has
degree one and aut_dim equal to d*(h-d) minus the length of its
representative.  bt_zeta reads them off the Poincare polynomial
W^I(q) = [h choose d]_q through zeta_function, without building W^I;
bt_strata classifies the datum, as the reference for that closed form.

The truncation level n does not enter the computation: raising the
level changes every class by the same unipotent factor, which cancels
from the stack's groupoid count.  bt_zeta is therefore a function of
(h, d, p) only, and the level is carried just for reporting.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NotPrime, _is_int
from .zipstrata import ZipDatum, _least_factor, classify, zeta_function


def _check_prime(p):
    if not _is_int(p) or p < 2:
        raise NotPrime(f"{p!r} is not a prime")
    f = _least_factor(p, NotPrime)
    if f != p:
        raise NotPrime(f"{p} = {f} * {p // f} is not a prime")


class BTParams(namedtuple("BTParams", "h d p n")):
    """Height, dimension, characteristic and truncation level."""

    __slots__ = ()

    def __new__(cls, h, d, p, n=1):
        if not _is_int(h) or h < 1:
            raise ValueError("height must be a positive integer")
        if not _is_int(d) or not 0 <= d <= h:
            raise ValueError("dimension must lie between 0 and the height")
        _check_prime(p)
        if not _is_int(n) or n < 1:
            raise ValueError("truncation level must be a positive integer")
        return super().__new__(cls, h, d, p, n)

    # _replace builds through _make, so the new fields are checked too.
    _make = classmethod(lambda cls, fields: cls(*fields))


def bt_datum(params):
    """The zip datum of the level-one stack: type A of rank h-1 with the
    node d removed from the parabolic type."""
    h, d = params.h, params.d
    rank = h - 1
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(rank)] for i in range(rank)]
    parabolic = set(range(1, rank + 1))
    if 0 < d < h:
        parabolic.discard(d)
    return ZipDatum(cartan, parabolic, q0=params.p, e=1)


def bt_strata(params):
    """Strata of the level-one stack, by classify; level independent."""
    return classify(bt_datum(params))


def bt_zeta(params):
    """Zeta function of the stack: by construction a function of
    (h, d, p) alone, one factor 1/(1 - p^-a t) per stratum."""
    zeta = zeta_function(bt_datum(params))
    h, d = params.h, params.d
    items = zeta.factor_items()
    assert sum(m for _, m in items) == math.comb(h, d)
    assert all(f == 1 for (_, f), _ in items)
    assert [a for (a, _), _ in items] == list(range(d * (h - d) + 1))
    return zeta
