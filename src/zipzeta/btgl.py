"""Truncated Barsotti-Tate stacks through the general linear group.

For height h and dimension d, the classifying datum lives on the type
A root system of rank h-1 with parabolic type everything except node d
(everything, when d is 0 or h), base field of p elements and trivial
twisting.  Classes at level one are indexed by the minimal coset
representatives, so there are C(h, d) strata; each has degree one and
aut_dim equal to d*(h-d) minus the length of its representative.

The truncation level n does not enter the computation: raising the
level changes every class by the same unipotent factor, which cancels
from the stack's groupoid count.  bt_zeta is therefore a function of
(h, d, p) only, and the level is carried just for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPrime, _is_int
from .zetafn import zeta_from_strata
from .zipstrata import ZipDatum, _least_factor, classify

# Level-one stacks kept by _level_one, least recently used first out.
BT_CACHE_SIZE = 16


def _check_prime(p):
    if not _is_int(p) or p < 2:
        raise NotPrime(f"{p!r} is not a prime")
    f = _least_factor(p, NotPrime)
    if f != p:
        raise NotPrime(f"{p} = {f} * {p // f} is not a prime")


@dataclass(frozen=True)
class BTParams:
    """Height, dimension, characteristic and truncation level."""

    h: int
    d: int
    p: int
    n: int = 1

    def __post_init__(self):
        if not _is_int(self.h) or self.h < 1:
            raise ValueError("height must be a positive integer")
        if not _is_int(self.d) or not 0 <= self.d <= self.h:
            raise ValueError("dimension must lie between 0 and the height")
        _check_prime(self.p)
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("truncation level must be a positive integer")


@lru_cache(maxsize=BT_CACHE_SIZE)
def _level_one(h, d, p):
    """The zip datum and the strata of the level-one stack: type A of
    rank h-1 with the node d removed from the parabolic type."""
    rank = h - 1
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(rank)] for i in range(rank)]
    parabolic = set(range(1, rank + 1))
    if 0 < d < h:
        parabolic.discard(d)
    datum = ZipDatum(cartan, parabolic, q0=p, e=1)
    strata = classify(datum)
    assert len(strata) == math.comb(h, d)
    assert all(s.degree == 1 for s in strata)
    assert max((s.length for s in strata), default=0) == d * (h - d)
    return datum, strata


def bt_datum(params):
    """The zip datum of the level-one stack."""
    return _level_one(params.h, params.d, params.p)[0]


def bt_strata(params):
    """Strata of the level-one stack; level independent."""
    return _level_one(params.h, params.d, params.p)[1]


def bt_zeta(params):
    """Zeta function of the stack: by construction a function of
    (h, d, p) alone, one factor 1/(1 - p^-a t) per stratum."""
    return zeta_from_strata(bt_strata(params))

