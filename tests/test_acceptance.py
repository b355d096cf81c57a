"""Acceptance gate: one test per criterion, exact tolerances, frozen seeds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import contextlib
import time
from fractions import Fraction
from itertools import combinations

from symplie.claims import verify_31_bracket, verify_no_map, verify_theorem_outer_bracket
from symplie.freelie import (
    LieElement,
    bracket,
    gen_a,
    gen_b,
    theta_partial,
    witt_dim,
)
from symplie.johnson import (
    WedgeElement,
    lambda4_embed,
    phi,
    pi_map,
    p_split,
    project_22,
    sym_mul,
    tau_hyp_twist,
    wedge_theta,
)
from symplie.magnus import dehn_twist, magnus, series_log, substitute, tau_hyp_from_twist
from symplie.reps import decompose, module_character
from symplie.surface import PElement, labute_dim, p_dim, reduce_lie

import helpers


@contextlib.contextmanager
def _criterion(name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nFAIL {name}  [{time.time() - t0:.1f}s]")
        raise
    print(f"\nPASS {name}  [{time.time() - t0:.1f}s]")


def test_criterion_1_decomposition_tables():
    with _criterion("criterion-1 decomposition tables (g=3,4)"):
        p_tables = {
            1: {(1,): 1},
            2: {(1, 1): 1},
            3: {(2, 1): 1},
            4: {(2, 1, 1): 1, (2,): 1, (3, 1): 1},
        }
        der_tables = {
            1: {(1, 1, 1): 1, (1,): 1},
            2: {(2, 2): 1, (1, 1): 1},
            3: {(3, 1, 1): 1, (2, 1): 1, (3,): 1},
        }
        out_tables = {
            1: {(1, 1, 1): 1},
            2: {(2, 2): 1},
            3: {(3, 1, 1): 1, (3,): 1},
        }
        for g in (3, 4):
            for m, want in p_tables.items():
                assert dict(decompose(module_character(g, "p", m))) == want, (g, m)
            p5 = dict(decompose(module_character(g, "p", 5)))
            assert p5.get((3, 1, 1)) == 1, (g, p5)
            for n, want in der_tables.items():
                assert dict(decompose(module_character(g, "der", n))) == want, (g, n)
            for n, want in out_tables.items():
                assert dict(decompose(module_character(g, "outder", n))) == want, (g, n)


def test_criterion_2_dual_dimension_oracle():
    with _criterion("criterion-2 dual dimension oracle (g=2,3,4; m<=6)"):
        expected_g3 = [6, 14, 64, 280, 1344]
        assert [labute_dim(3, m) for m in range(1, 6)] == expected_g3
        for g in (2, 3, 4):
            for m in range(1, 7):
                assert len(helpers.lyndon_words(g, m)) == witt_dim(2 * g, m), (g, m)
                assert p_dim(g, m) == labute_dim(g, m), (g, m)


def test_criterion_3_scalar_identities():
    with _criterion("criterion-3 scalar identities (g=3,4,5)"):
        for g in (3, 4, 5):
            th = wedge_theta(g)
            # the squared-class lemma, with its factor 2
            for idx in [set(range(1, j + 1)) for j in range(1, g)] + [
                set(range(j + 1, g + 1)) for j in range(1, g)
            ] + [{1}, set(range(1, g + 1))]:
                sq = WedgeElement(
                    g, 2, {(gen_a(i), gen_b(i)): Fraction(1) for i in idx}
                )
                hom = phi(sym_mul(sq, sq))
                th_lie = theta_partial(g, idx)
                for i in range(1, g + 1):
                    for x in (gen_a(i), gen_b(i)):
                        if i in idx:
                            want = reduce_lie(
                                2 * bracket(LieElement.generator(g, x), th_lie)
                            )
                        else:
                            want = PElement(g, 3)
                        assert hom.column(x) == want, (g, idx, x)
            # contraction scalars
            prim = WedgeElement.term(g, (gen_a(1), gen_a(2)))
            assert pi_map(sym_mul(prim, th)) == Fraction(-(g + 1)) * prim
            assert pi_map(sym_mul(th, th)) == Fraction(-(2 * g + 1)) * th
            # section identity on the full basis
            for pair in combinations(range(2 * g), 2):
                w = WedgeElement.term(g, pair)
                assert pi_map(p_split(w)) == w, (g, pair)
            # the quadratic map kills wedge-4 and the squared class
            for sub in combinations(range(2 * g), 4):
                assert phi(lambda4_embed(WedgeElement.term(g, sub))).is_zero(), (g, sub)
            assert phi(sym_mul(th, th)).is_zero(), g
            # three-term expansion of the projected square
            a1b1 = WedgeElement.term(g, (gen_a(1), gen_b(1)))
            got = project_22(sym_mul(a1b1, a1b1))
            want = (
                sym_mul(a1b1, a1b1)
                - Fraction(3, g + 1) * sym_mul(a1b1, th)
                + Fraction(3, (g + 1) * (2 * g + 1)) * sym_mul(th, th)
            )
            assert got == want, g


def test_criterion_4_outer_bracket_theorem():
    with _criterion("criterion-4 commuting-pair outer bracket (g=3,4)"):
        for g, coeff in ((3, Fraction(-9, 16)), (4, Fraction(-9, 25))):
            r = verify_theorem_outer_bracket(g)
            assert r["coefficient"] == coeff
            assert r["nested_class_nonzero"]
            assert r["inner_preimage_terms"] >= 1
            assert r["full_images_commute"]


def test_criterion_5_31_bracket_lemma():
    with _criterion("criterion-5 degree-3 bracket lemma (g=3,4)"):
        for g, coeff in ((3, Fraction(3, 4)), (4, Fraction(3, 5))):
            r = verify_31_bracket(g)
            assert r["coefficient"] == coeff
            assert r["nonzero"] and r["contains_31"]


def test_criterion_6_no_map():
    with _criterion("criterion-6 doubled diagonal class (g=3,4,5)"):
        for g in (3, 4, 5):
            r = verify_no_map(g)
            assert r["coefficient"] == Fraction(2 * g - 2, g)
            assert r["nonzero"]


def test_criterion_7_magnus_oracle():
    with _criterion("criterion-7 Magnus oracle (g=3,4)"):
        for g in (3, 4):
            for j in range(1, g):
                assert tau_hyp_from_twist(g, j) == tau_hyp_twist(g, j), (g, j)
                # classical degree-2 parts of the comparison words die in
                # the quotient (here they vanish on the nose)
                auto = dehn_twist(g, j)
                from symplie.magnus import FreeWord

                for i in range(2 * g):
                    gamma = FreeWord.generator(i)
                    w = substitute(auto, gamma) * gamma.inverse()
                    if not w.letters:
                        continue
                    parts = series_log(magnus(w, 2), 2)
                    assert not parts[1], (g, j, i)
                    deg2 = parts[2]
                    if deg2:
                        from symplie.freelie import lie_from_tensor

                        assert reduce_lie(
                            LieElement(g, 2, lie_from_tensor(deg2))
                        ).is_zero(), (g, j, i)


def test_criterion_8_property_suites():
    for name, suite in helpers.ALL_SUITES.items():
        with _criterion(f"criterion-8 property suite {name} (>=200 cases)"):
            ran = suite(200)
            assert ran >= 200
