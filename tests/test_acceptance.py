"""Acceptance gate: one test per shipped guarantee, exact values, pinned
runtime bounds.  Each test prints nothing extra; `pytest -v` shows one
pass/fail line per criterion."""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from zipzeta import (BTParams, DiagramAutomorphism, bt_strata, bt_zeta,
                     classify, compute_twist, crosscheck, expand_series,
                     zeta_from_strata)
from zipzeta.cli import parse_config
from helpers import (flip_ext, group, min_double, minus_one_ext, subsets,
                     swap_ext, tables)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def within(seconds):
    start = time.monotonic()
    yield
    assert time.monotonic() - start < seconds, "runtime bound exceeded"


def o4_datum():
    return parse_config(str(CONFIGS / "o4.json"))


def test_criterion_1_worked_example_table():
    with within(1.0):
        datum = o4_datum()
        twist = compute_twist(datum)
        ext = datum.ext
        t = datum.tables
        I = datum.parabolic_type
        rows = []
        for a in ext.min_reps(I):
            dec = ext.canonical_decomposition(a, I, twist.J)
            rows.append((ext.omega.label(dec.omega_index),
                         t.word(dec.wpp), t.word(dec.y), t.word(dec.w_J),
                         ext.extended_length(a, I, twist.J)))
        assert rows == [
            ("1", (), (), (), 0),
            ("1", (2,), (2,), (), 1),
            ("sigma", (), (), (), 0),
            ("sigma", (1,), (), (1,), 1),
        ]
        assert [r[4] for r in rows] == [0, 1, 0, 1]


def test_criterion_2_worked_zeta():
    with within(1.0):
        datum = o4_datum()
        strata = classify(datum)
        zeta = zeta_from_strata(strata)
        assert Counter((s.aut_dim, s.degree) for s in strata) == \
            Counter({(1, 1): 2, (0, 1): 2})
        assert zeta.factors == {(0, 1): 2, (1, 1): 2}
        assert zeta.to_str() == "1/((1 - t)^2 (1 - q^-1 t)^2)"
        # Guard against the sign-inverted transcription that puts the
        # q-powers on the wrong side, 1/((1-t)^2 (1-q t)^2): at q=4,
        # t=1/2 that form gives 4, the correct substitution 256/49.
        q, t = 4, Fraction(1, 2)
        inverted = 1 / ((1 - t) ** 2 * (1 - q * t) ** 2)
        assert zeta.evaluate(q, t) == Fraction(256, 49)
        assert zeta.evaluate(q, t) != inverted


def test_criterion_3_signed_component_lengths():
    with within(1.0):
        datum = parse_config(str(CONFIGS / "sl2-omega.json"))
        ext = datum.ext
        what = ext.element(datum.tables.identity, "w")
        S = (1,)
        assert ext.extended_length(what, (), ()) == 1
        assert ext.extended_length(what, (), S) == 0
        assert ext.extended_length(what, S, S) == 0
        assert ext.extended_length(what, S, ()) == 0


def test_criterion_4_level_independence_and_counts():
    with within(5.0):
        for h in range(1, 7):
            for d in range(h + 1):
                base = bt_zeta(BTParams(h, d, 2, 1))
                for n in (2, 3, 10):
                    assert bt_zeta(BTParams(h, d, 2, n)) == base
                strata = bt_strata(BTParams(h, d, 2))
                assert len(strata) == math.comb(h, d)
                assert max(s.length for s in strata) == d * (h - d)


def test_criterion_5_census_oracle():
    cases = [
        (2, 1, 2, 1, Fraction(3, 2)),
        (2, 1, 2, 2, Fraction(5, 4)),
        (2, 1, 3, 1, Fraction(4, 3)),
        (3, 1, 2, 1, Fraction(7, 4)),
        (3, 2, 2, 1, Fraction(7, 4)),
        (2, 2, 2, 1, Fraction(1)),
        (2, 0, 3, 1, Fraction(1)),
        (3, 1, 3, 1, Fraction(13, 9)),
        (4, 2, 2, 1, Fraction(35, 16)),
    ]
    for h, d, p, k, expected in cases:
        with within(60.0):
            report = crosscheck(BTParams(h, d, p), k)
            assert report.ok
            assert report.predicted == report.observed == expected


def test_criterion_6_series_identity():
    with within(5.0):
        strata_lists = [
            classify(o4_datum()),
            classify(parse_config(str(CONFIGS / "sl2-omega.json"))),
        ]
        for h in range(1, 7):
            for d in range(h + 1):
                strata_lists.append(bt_strata(BTParams(h, d, 2)))
        strata_lists.append(bt_strata(BTParams(2, 1, 3)))
        strata_lists.append(bt_strata(BTParams(2, 0, 3)))
        for strata in strata_lists:
            zeta = zeta_from_strata(strata)
            expansion = expand_series(zeta, 10)
            assert zeta.series_product(10) == zeta.series_exp(10)
            assert len(expansion.coefficients) == 11


def test_criterion_7_property_suite():
    with within(60.0):
        rng = random.Random(20260816)
        pool = ([("A", r) for r in range(1, 6)] +
                [("B", r) for r in range(2, 6)] +
                [("C", r) for r in range(2, 6)] +
                [("D", r) for r in range(4, 6)] +
                [("A1xA1", 2), ("G", 2)])
        for _ in range(50):
            fam, rank = rng.choice(pool)
            t = tables(fam, rank)
            I = frozenset(i for i in range(1, rank + 1)
                          if rng.random() < 0.5)
            J = frozenset(i for i in range(1, rank + 1)
                          if rng.random() < 0.5)
            inside = sum(1 for w in group(t) if t.in_parabolic(w, I))
            reps = t.min_left(I)
            assert len(reps) * inside == len(t)
            flag_dim = len(t.rs.positive_outside(I))
            for w in reps:
                x, w_J = t.decompose_left(w, I, J)
                assert x * w_J == w
                assert x.length + w_J.length == w.length
                assert len(t.word(w)) == w.length
                assert flag_dim - w.length >= 0

        for ext in (swap_ext(), minus_one_ext(), flip_ext()):
            t = ext.tables
            rank = ext.rs.rank
            assert len(ext) <= 200
            for I, J in itertools.product(subsets(range(1, rank + 1)),
                                          repeat=2):
                for a in ext.min_reps(I):
                    dec = ext.canonical_decomposition(a, I, J)
                    solutions = []
                    for k in range(len(ext.omega)):
                        kinv = ext.omega.inverse(k)
                        Ipp = ext.omega.conjugate_subset(kinv, I)
                        for y in min_double(t, Ipp, J):
                            for wj in group(t):
                                if not t.in_parabolic(wj, J):
                                    continue
                                if not t.is_min_left(
                                        wj, t.induced_subset(y, Ipp, J)):
                                    continue
                                if ext.element(
                                        ext.twist_weyl(k, y * wj), k) == a:
                                    solutions.append((k, y, wj))
                    assert solutions == [(dec.omega_index, dec.y, dec.w_J)]
                    x = ext.element(ext.twist_weyl(dec.omega_index, dec.y),
                                    dec.omega_index)
                    assert ext.extended_length(a, I, J) == \
                        ext.extended_length(x, I, J) + dec.w_J.length

        trivial = tables("A", 2)
        from zipzeta import ExtWeylGroup, OmegaGroup
        ext = ExtWeylGroup(trivial, OmegaGroup.trivial(trivial.rs))
        gamma = DiagramAutomorphism(ext, (2, 1), (0,))
        for I, J in itertools.product(subsets(range(1, 3)), repeat=2):
            for w in trivial.min_left(I):
                a = ext.element(w, 0)
                assert ext.extended_length(a, I, J) == w.length
                b = gamma.apply_ext(a)
                assert ext.extended_length(
                    b, gamma.apply_subset(I), gamma.apply_subset(J)) == \
                    ext.extended_length(a, I, J)

        for datum in (o4_datum(),
                      parse_config(str(CONFIGS / "gl-3-1.json"))):
            I = datum.parabolic_type
            J = compute_twist(datum).J
            for s in classify(datum):
                assert s.aut_dim >= 0
                for a in s.elements:
                    assert datum.ext.extended_length(a, I, J) == s.length


def test_criterion_8_twisted_galois_orbits():
    with within(1.0):
        datum = parse_config(str(CONFIGS / "gl-3-1.json"))
        assert datum.parabolic_type == frozenset({2})
        flip = classify(parse_config(str(CONFIGS / "a2-flip.json")))
        assert Counter((s.aut_dim, s.degree) for s in flip) == \
            Counter({(3, 1): 1, (0, 1): 1, (2, 2): 1, (1, 2): 1})
        zeta = zeta_from_strata(flip)
        assert zeta.factors == {(0, 1): 1, (1, 2): 1, (2, 2): 1, (3, 1): 1}
        assert zeta.to_str() == ("1/((1 - t) (1 - (q^-1 t)^2) "
                                 "(1 - (q^-2 t)^2) (1 - q^-3 t))")
