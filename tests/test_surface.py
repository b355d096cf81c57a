import random
from collections import Counter
from fractions import Fraction

import pytest

import symplie
from symplie import claims, surface
from symplie.claims import verify_no_map
from symplie.freelie import (
    LieElement,
    bracket,
    gen_a,
    gen_b,
    theta,
    witt_dim,
)
from symplie.johnson import HomElement, der_basis, phi, phi_prime, theta_image
from symplie.reps import act_p, dominant_rep, module_character, word_weight
from symplie.surface import (
    ConfigDeg2Element,
    PElement,
    config_bracket,
    config_diagonal_class,
    config_pair_class,
    is_pivot_word,
    labute_dim,
    p_basis,
    p_bracket,
    pairing,
    reduce_lie,
)

from helpers import (
    ideal_component,
    random_lie,
    random_p,
    random_sym,
    random_wedge,
    run_reduce_lift,
    two_pass_word_split,
    words_by_weight,
)


def _gen(g, letter):
    return LieElement.generator(g, letter)


def test_labute_values_g3():
    assert [labute_dim(3, m) for m in range(1, 6)] == [6, 14, 64, 280, 1344]


def test_labute_cross_check_wedge():
    # degree 2 is the wedge square minus the relation line
    for g in (2, 3, 4, 5):
        n = 2 * g
        assert labute_dim(g, 2) == n * (n - 1) // 2 - 1


def test_ideal_dims_from_dual_oracles():
    # ideal dimension = Witt number minus the quotient formula
    for g, m, want in [(3, 2, 1), (3, 3, 6), (3, 4, 35)]:
        assert witt_dim(2 * g, m) - labute_dim(g, m) == want
        comp = ideal_component(g, m)
        assert len(comp) == want


def test_ideal_component_echelonized_and_inside():
    comp = ideal_component(3, 3)
    leads = [min(v.coords) for v in comp]
    assert leads == sorted(leads)
    for v in comp:
        assert reduce_lie(v).is_zero()


def test_ideal_closed_under_degree_two_brackets():
    # ideal-ness beyond the generator construction: brackets with random
    # degree-2 elements stay inside
    rng = random.Random(9)
    for g in (2, 3):
        for m in (2, 3):
            for v in ideal_component(g, m):
                x = random_lie(g, 2, rng)
                assert reduce_lie(bracket(x, v)).is_zero()


def test_dual_dimension_oracle_small():
    # the word filter against Labute's closed forms: the dimension, and per
    # torus weight the number of rep_words against the character's multiplicity
    for g in (2, 3):
        for m in range(1, 6):
            pb = p_basis(g, m)
            assert len(pb.rep_words) == labute_dim(g, m)
            counts = Counter(word_weight(w, g) for w in pb.rep_words)
            char = module_character(g, "p", m)
            assert counts == {wt: char.coords[dominant_rep(wt)] for wt in counts}
            assert sum(counts.values()) == char.mass()


@pytest.mark.parametrize("g", [2, 3, 4])
def test_word_split_matches_two_pass_filter(g, monkeypatch):
    # the pivot-word test of each weight's words against the two-pass
    # filter, and the number of reps of each weight against its
    # multiplicity in the closed-form character
    top = 8 if g == 2 else 6
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", str(top))
    for m in range(1, top + 1):
        pb = p_basis(g, m)
        pivot_words, rep_words = two_pass_word_split(g, m)
        split = words_by_weight(g, m)
        assert {w for reps, pivots in split.values() for w in reps + pivots if is_pivot_word(w)} == pivot_words
        assert pb.rep_words == rep_words
        mult = module_character(g, "p", m).coords
        for wt, (reps, _) in split.items():
            assert len(reps) == mult.get(dominant_rep(wt), 0), (m, wt)


def test_claims_build_no_degree_wide_word_list():
    # the commuting-pair certificate reads weight blocks of (4, 5) and the
    # dimension oracle counts words up to degree 6: neither lists a degree's
    # words, and neither builds the basis of degree 6, so the call below
    # is the first to build it
    symplie.clear_caches()
    claims.verify_theorem_outer_bracket(4)
    claims.dims_oracle(4)
    assert p_basis(4, 5).blocks
    assert p_basis(4, 5)._rep_words is None
    misses = surface._p_basis.cache_info().misses
    p_basis(4, 6)
    assert surface._p_basis.cache_info().misses == misses + 1


def test_reduce_kills_relation():
    for g in (2, 3):
        assert reduce_lie(theta(g)).is_zero()
        assert reduce_lie(bracket(_gen(g, gen_a(1)), theta(g))).is_zero()


def test_reduce_nonzero_off_relation():
    from symplie.linalg import EchelonSpan

    for g in (2, 3):
        x = bracket(_gen(g, gen_a(1)), _gen(g, gen_b(2)))
        assert not reduce_lie(x).is_zero()
        # independent membership check against the echelonized ideal piece
        span = EchelonSpan()
        for v in ideal_component(g, 2):
            span.insert(v.coords)
        assert not span.contains(x.coords)


def test_reduce_lift_section():
    run_reduce_lift(30)


def test_reduce_is_lie_map_fixed():
    g = 3
    x = bracket(_gen(g, gen_a(1)), _gen(g, gen_b(2)))
    y = bracket(_gen(g, gen_a(2)), _gen(g, gen_b(3)))
    assert reduce_lie(bracket(x, y)) == p_bracket(reduce_lie(x), reduce_lie(y))


def test_center_is_trivial_in_low_degrees():
    for g in (2, 3):
        for m in range(1, 5):
            for w in p_basis(g, m).rep_words:
                x = PElement(g, m, {w: Fraction(1)})
                assert any(
                    not p_bracket(PElement(g, 1, {(h,): 1}), x).is_zero()
                    for h in range(2 * g)
                ), (g, m, w)


def test_degree_cap_respected(monkeypatch):
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "3")
    from symplie import reps

    with pytest.raises(ValueError):
        reps._check_degree(3, 4)


def test_degree_cap_checked_on_cache_hit(monkeypatch):
    from symplie import surface

    surface.p_basis(3, 5)
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "4")
    with pytest.raises(ValueError, match="exceeds cap 4"):
        surface.p_basis(3, 5)


def test_degree_cap_checked_on_warm_quotient_ops(monkeypatch):
    # each op reaches the degree named with it and runs warm before the cap
    # moves below that degree (phi and phi_prime read memoised brackets); a
    # value that does not parse raises on every call (no exception is
    # kept), and each op works again once the variable is back
    monkeypatch.delenv("SYMPLIE_DEGREE_CAP", raising=False)
    rng = random.Random(61)
    x, y, z = random_p(3, 2, rng), random_p(3, 3, rng), random_p(3, 5, rng)
    d, w = der_basis(3, 1)[0], random_p(3, 4, rng)
    hom = HomElement.from_columns(3, 4, [random_p(3, 4, rng) for _ in range(6)])
    s, t = random_sym(3, rng), random_wedge(3, 3, rng)
    ops = {
        "p_bracket": (5, lambda: p_bracket(x, y)),
        "act_p": (5, lambda: act_p(("f", 2), z)),
        "Derivation.value": (5, lambda: d.value(w)),
        "theta_image": (5, lambda: theta_image(hom)),
        "phi": (3, lambda: phi(s)),
        "phi_prime": (2, lambda: phi_prime(t)),
    }
    warm = {name: op() for name, (_, op) in ops.items()}
    assert {name: op() for name, (_, op) in ops.items()} == warm
    for name, (top, op) in ops.items():
        monkeypatch.setenv("SYMPLIE_DEGREE_CAP", str(top - 1))
        with pytest.raises(ValueError, match=f"exceeds cap {top - 1}"):
            op()
    for raw in ("abc", "0"):
        monkeypatch.setenv("SYMPLIE_DEGREE_CAP", raw)
        for _ in range(2):
            for name, (_, op) in ops.items():
                with pytest.raises(ValueError, match="SYMPLIE_DEGREE_CAP"):
                    op()
    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", "5")
    assert {name: op() for name, (_, op) in ops.items()} == warm
    monkeypatch.delenv("SYMPLIE_DEGREE_CAP")
    assert {name: op() for name, (_, op) in ops.items()} == warm


@pytest.mark.parametrize("raw", ["abc", "", "4.5", "0", "-3"])
def test_malformed_degree_cap_names_the_variable(monkeypatch, raw):
    from symplie import reps

    monkeypatch.setenv("SYMPLIE_DEGREE_CAP", raw)
    with pytest.raises(ValueError, match="SYMPLIE_DEGREE_CAP"):
        reps.degree_cap()


# --- configuration degree -2 classes ---------------------------------------

def test_config_bracket_distinct_points():
    g = 3
    a1 = {gen_a(1): Fraction(1)}
    b1 = {gen_b(1): Fraction(1)}
    b2 = {gen_b(2): Fraction(1)}
    assert config_bracket(g, 2, (1, a1), (2, b2)).is_zero()
    got = config_bracket(g, 2, (1, a1), (2, b1))
    assert got == config_pair_class(g, 2, 1, 2, Fraction(1, 3))


def test_config_diagonal_relation():
    g = 3
    total = ConfigDeg2Element(g, 2)
    for k in range(1, g + 1):
        total = total + config_bracket(
            g, 2, (1, {gen_a(k): Fraction(1)}), (1, {gen_b(k): Fraction(1)})
        )
    assert total == config_pair_class(g, 2, 1, 2, Fraction(-1, g))
    assert total == config_diagonal_class(g, 2, 1)


def test_config_local_part():
    g = 3
    got = config_bracket(g, 2, (1, {gen_a(1): 1}), (1, {gen_b(2): 1}))
    assert any(tag == "L" and i == 1 for tag, i, _ in got.coords)
    assert all(tag == "L" for tag, _, _ in got.coords)  # no pairing, no T content


def test_config_same_point_bracket_matches_the_free_lie_route():
    # nonzero local and T parts at once, which no-map never sees: the local
    # part against the free Lie bracket reduced once, the T part against
    # the diagonal class times <u, v>/g
    rng = random.Random(61)
    for g in (3, 4):
        n = 3
        for _ in range(6):
            u = {x: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for x in range(2 * g)}
            v = {x: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for x in range(2 * g)}
            i = rng.randint(1, n)
            got = config_bracket(g, n, (i, u), (i, v))
            lie = bracket(
                LieElement(g, 1, {(x,): c for x, c in u.items()}),
                LieElement(g, 1, {(x,): c for x, c in v.items()}),
            )
            local = {w: c for (tag, k, w), c in got.coords.items() if tag == "L"}
            assert {k for tag, k, _ in got.coords if tag == "L"} <= {i}
            assert local == reduce_lie(lie).coords
            assert local
            t_part = ConfigDeg2Element(g, n, {k: c for k, c in got.coords.items() if k[0] == "T"})
            assert pairing(u, v)
            assert t_part == pairing(u, v) / g * config_diagonal_class(g, n, i)


def test_config_antisymmetry_of_pair_order():
    g = 3
    u = {gen_a(2): Fraction(1)}
    v = {gen_b(2): Fraction(1)}
    x = config_bracket(g, 2, (1, u), (2, v))
    y = config_bracket(g, 2, (2, v), (1, u))
    assert x == Fraction(-1) * y


def test_verify_no_map_values():
    assert verify_no_map(3)["coefficient"] == Fraction(4, 3)
    assert verify_no_map(4)["coefficient"] == Fraction(3, 2)


def test_config_point_range_checked():
    with pytest.raises(ValueError):
        config_bracket(3, 2, (0, {0: 1}), (1, {1: 1}))
