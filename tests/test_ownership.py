"""The construction contract of the sparse elements.

A public constructor copies the caller's dict and drops its zero
entries.  A result the library builds owns a fresh dict with no zero
value: mutating it changes no library memo, no input and no later
computation of the same result.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from symplie import freelie, johnson, surface
from symplie.freelie import LieElement, bracket, bracket_coords, theta
from symplie.johnson import (
    Derivation,
    HomElement,
    Sym2Lambda2,
    WedgeElement,
    ad_derivation,
    der_basis,
    derivation_bracket,
    lambda4_embed,
    phi,
    phi_prime,
    pi_map,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
    wedge_theta,
)
from symplie.linalg import SparseElement
from symplie.magnus import FreeWord, lcs_class
from symplie.reps import Character, NotACharacter, act_p, module_character, sp_generator_ids
from symplie.surface import (
    ConfigDeg2Element,
    PElement,
    config_bracket,
    lift,
    p_basis,
    p_bracket,
    quotient_derive,
    reduce_lie,
)

from helpers import bracket_table, entry_dicts, random_lie, random_p, random_sym, random_wedge

G = 3

# For each element type: its space and a dict for the public constructor
# that holds zero entries (ints and Fractions).
PUBLIC = {
    LieElement: ((G, 2), {(0, 1): 2, (0, 2): 0, (1, 2): Fraction(-1, 2), (2, 3): Fraction(0)}),
    PElement: ((G, 2), {(0, 2): 1, (0, 3): 0, (2, 3): -3}),
    WedgeElement: ((G, 2), {(0, 1): 1, (2, 3): 0, (4, 5): Fraction(0, 3)}),
    Sym2Lambda2: ((G,), {((0, 1), (2, 3)): 3, ((0, 1), (0, 1)): 0}),
    HomElement: ((G, 2), {(0, (0, 2)): 1, (1, (1, 2)): 0, (5, (2, 4)): -2}),
    Derivation: ((G, 2), {(0, (0, 2)): 0, (1, (1, 3)): Fraction(1, 2)}),
    Character: ((G,), {(1, 0, 0): 2, (1, 1, 0): 0, (): 0}),
    ConfigDeg2Element: ((G, 2), {("T", 1, 2): Fraction(1, 3), ("L", 1, (0, 2)): 0}),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_element_type_is_covered():
    assert set(_subclasses(SparseElement)) == set(PUBLIC)


@pytest.mark.parametrize("cls", list(PUBLIC), ids=lambda cls: cls.__name__)
def test_public_constructor_copies_and_drops_zeros(cls):
    space, given = PUBLIC[cls]
    given = dict(given)
    x = cls(*space, given)
    kept = {k: c for k, c in given.items() if c}
    assert x.coords == kept and len(kept) < len(given)
    assert x.space() == space
    for k in given:
        given[k] = 7
    given[("junk",)] = 1
    assert x.coords == kept
    given.clear()
    assert x.coords == kept


def test_derivation_memo_follows_both_construction_paths():
    space, given = PUBLIC[Derivation]
    col = PElement.owning(G, 1, {(1,): 1})
    for d in (Derivation(*space, given), Derivation.owning(*space, {(1, (1, 3)): Fraction(1, 2)})):
        assert d.value(col).coords == {(1, 3): Fraction(1, 2)}
        assert d.value(PElement(G, 1, {(0,): 1})).is_zero()


def test_checked_types_check_on_every_path():
    """Character and ConfigDeg2Element check their keys on the constructor
    and on rebuild, and so on every sum and multiple."""
    char = Character(G, {(1, 0, 0): 1})
    with pytest.raises(NotACharacter):
        Character(G, {(0, 1, 0): 1})
    with pytest.raises(NotACharacter):
        char.rebuild({(0, 1, 0): 1})
    assert (char + char).coords == {(1, 0, 0): 2}
    conf = ConfigDeg2Element(G, 2)
    with pytest.raises(ValueError):
        ConfigDeg2Element(G, 2, {("T", 2, 1): 1})
    with pytest.raises(ValueError):
        conf.rebuild({("T", 1, 3): 1})


def _inputs(seed: int) -> dict:
    rng = random.Random(seed)
    der = {n: der_basis(G, n) for n in (1, 2)}
    a = {
        "x": random_p(G, 2, rng),
        "y": random_p(G, 3, rng),
        "z": random_p(G, 1, rng),
        "word": PElement(G, 3, {rng.choice(p_basis(G, 3).rep_words): 1}),
        "X": random_lie(G, 2, rng),
        "Y": random_lie(G, 3, rng),
        "Z": random_lie(G, 1, rng),
        "d": rng.choice(der[1]),
        "e": rng.choice(der[2]),
        "w2": random_wedge(G, 2, rng),
        "w3": random_wedge(G, 3, rng),
        "w4": random_wedge(G, 4, rng),
        "s": random_sym(G, rng),
        "gen": rng.choice(sp_generator_ids(G)),
    }
    for key in ("d", "e"):  # a derivation builds its Leibniz memo on its first value
        a[key].value(a["z"])
    return a


# Library results, each from the inputs above.
RESULTS = {
    "p_bracket": lambda a: p_bracket(a["x"], a["y"]),
    "reduce_lie": lambda a: reduce_lie(a["Y"]),
    "reduce_lie degree 1": lambda a: reduce_lie(a["Z"]),
    "Derivation.value": lambda a: a["d"].value(a["y"]),
    "Derivation.value word": lambda a: a["d"].value(a["word"]),
    "Derivation.value degree 1": lambda a: a["d"].value(a["z"]),
    "quotient_derive": lambda a: quotient_derive(a["x"], a["d"]._word_cache, a["d"].degree),
    "act_p": lambda a: act_p(a["gen"], a["x"]),
    "act_p degree 1": lambda a: act_p(a["gen"], a["z"]),
    "act_p word": lambda a: act_p(a["gen"], a["word"]),
    "+": lambda a: a["x"] + a["x"],
    "-": lambda a: a["y"] - 2 * a["y"],
    "neg": lambda a: -a["x"],
    "*": lambda a: Fraction(2, 3) * a["y"],
    "* 1": lambda a: a["y"] * 1,
    "lift": lambda a: lift(a["y"]),
    "bracket": lambda a: bracket(a["X"], a["Y"]),
    "theta": lambda a: theta(G),
    "lcs_class": lambda a: lcs_class(FreeWord(((0, 1), (1, 1), (0, -1), (1, -1))), 2, G),
    "column": lambda a: a["d"].column(0),
    "from_hom": lambda a: Derivation.from_hom(a["d"]),
    "HomElement.act": lambda a: a["d"].act(a["gen"]),
    "derivation_bracket": lambda a: derivation_bracket(a["d"], a["e"]),
    "ad_derivation": lambda a: ad_derivation(a["x"]),
    "theta_image": lambda a: theta_image(HomElement.from_columns(G, 3, [a["y"]] * (2 * G))),
    "WedgeElement.act": lambda a: a["w3"].act(a["gen"]),
    "wedge_theta": lambda a: wedge_theta(G),
    "pi_map": lambda a: pi_map(a["s"]),
    "sym_mul": lambda a: sym_mul(a["w2"], a["w2"]),
    "lambda4_embed": lambda a: lambda4_embed(a["w4"]),
    "Sym2Lambda2.act": lambda a: a["s"].act(a["gen"]),
    "project_22": lambda a: project_22(a["s"]),
    "phi": lambda a: phi(a["s"]),
    "phi_prime": lambda a: phi_prime(a["w3"]),
    "tau_hyp_twist": lambda a: tau_hyp_twist(G, 1),
    "module_character": lambda a: module_character(G, "p", 3) + module_character(G, "L", 3),
    "config_bracket": lambda a: config_bracket(G, 2, (1, {0: 1}), (1, {1: 2})),
}


def _memo_dicts(a: dict) -> list:
    """The memo dicts an element could alias: the bracket table's dict
    entries and their reduced forms (helpers.entry_dicts), the Chevalley
    action memos, every ideal row and pivot-word residue, the
    letter-triple brackets that phi memoises (every triple, so the memo
    holds each one read), and the Leibniz memos of the derivations in the
    inputs."""
    out = [johnson._lie3(G, *xyz) for xyz in product(range(2 * G), repeat=3)]
    out += entry_dicts()
    out += [v for gen in sp_generator_ids(G) for v in surface._action_table(G, gen).values()]
    out += [row for m in range(1, 7) for span in p_basis(G, m).blocks.values()
            for row in span.rows.values()]
    out += [r for m in range(1, 7) for r in p_basis(G, m).residues.values()]
    out += [v for key in ("d", "e") for v in a[key]._word_cache.values()]
    return out


def _elements(a: dict) -> list:
    return [v for v in a.values() if isinstance(v, SparseElement)]


@pytest.mark.parametrize("name", list(RESULTS))
def test_result_owns_a_fresh_dict(name):
    """Mutating a result changes no memo, no input and no recomputation."""
    a = _inputs(sum(map(ord, name)))
    result = RESULTS[name](a)
    expected = dict(result.coords)
    memos = _memo_dicts(a)
    assert all(result.coords is not m for m in memos)
    assert all(result.coords is not x.coords for x in _elements(a))
    before = [dict(m) for m in memos]
    inputs = [dict(x.coords) for x in _elements(a)]
    for k in result.coords:
        result.coords[k] = 12345
    result.coords[("junk",)] = 1
    assert [dict(m) for m in memos] == before
    assert [dict(x.coords) for x in _elements(a)] == inputs
    assert RESULTS[name](a).coords == expected


def _zero_free(x) -> bool:
    return all(c != 0 for c in x.coords.values())


@pytest.mark.parametrize("seed", range(6))
def test_every_result_is_zero_free(seed):
    a = _inputs(1000 + seed)
    for name, op in RESULTS.items():
        assert _zero_free(op(a)), name


def test_cancelling_results_are_empty():
    a = _inputs(7)
    x, y, X = a["x"], a["y"], a["X"]
    for result in (
        x - x,
        x + (-x),
        0 * x,
        Fraction(0) * y,
        p_bracket(x, x),
        bracket(X, X),
        reduce_lie(theta(G)),
        theta_image(a["d"]),
        pi_map(project_22(a["s"])),
        derivation_bracket(a["d"], a["d"]),
    ):
        assert result.coords == {}


# The quotient reduction works on a cleaned copy; the public entry points
# keep the caller's dict.

def _with_pivots_and_a_zero() -> dict:
    pivots = [(0, 1, 2), (0, 1, 3), (0, 0, 1)]  # Lyndon words with the factor a1 b1
    assert all(surface.is_pivot_word(w) for w in pivots)
    return {(0, 2, 3): 2, pivots[0]: -1, (1, 2, 3): 0, pivots[1]: Fraction(1, 2), pivots[2]: 3}


def test_reduce_coords_leaves_its_input_as_it_is():
    given = _with_pivots_and_a_zero()
    kept = dict(given)
    pb = p_basis(G, 3)
    got = pb.reduce_coords(given)
    assert given == kept and list(given) == list(kept)
    assert got is not given and _zero_free(PElement.owning(G, 3, got))
    assert all(w in pb.rep_words for w in got)
    fresh = {w: c for w, c in kept.items() if c}
    again = pb.reduce_coords(fresh)
    assert again is not fresh and again == got


def test_reduce_lie_leaves_its_input_as_it_is():
    x = LieElement(G, 3, _with_pivots_and_a_zero())
    kept = dict(x.coords)
    assert any(surface.is_pivot_word(w) for w in kept)
    y = reduce_lie(x)
    assert x.coords == kept and y.coords is not x.coords
    assert y.coords == p_basis(G, 3).reduce_coords(kept)


def test_bracket_coords_returns_no_table_entry():
    """Also for 1x1 brackets, where the result has the table entry's
    words and values: a one-word entry is a pair signed for each row, any
    other one dict in both rows, and a reduced bracket aliases no reduced
    form either."""
    rng = random.Random(5)
    words = [w for m in (1, 2, 3) for w in freelie.iter_lyndon(G, m)]
    for _ in range(200):
        u, v = rng.sample(words, 2)
        pb = p_basis(G, len(u) + len(v))
        for x, y in (({u: 1}, {v: 1}), ({v: 1}, {u: 1}), ({u: 1, v: 2}, {v: 1})):
            for basis in (None, pb):
                got = bracket_coords(x, y, basis)
                assert all(got is not entry for entry in entry_dicts())
        lo, hi = min(u, v), max(u, v)
        entry = freelie._BRACKET_ROWS[lo][hi]
        got = bracket_coords({lo: 1}, {hi: 1})
        if type(entry) is tuple:
            assert freelie._BRACKET_ROWS[hi][lo] == (entry[0], -entry[1])
            assert got == dict([entry])
            continue
        assert freelie._BRACKET_ROWS[hi][lo] is entry
        kept = dict(entry)
        assert got == entry
        got.clear()
        assert entry == kept


@pytest.mark.parametrize("seed", range(3))
def test_table_entries_survive_jacobi_and_leibniz(seed, monkeypatch):
    """Each entry, its layout included (pair, dict or pivot entry), equals
    its recomputation, each reduced form is the reduction of its entry,
    and no result of the ops aliases an entry or a reduced form."""
    rng = random.Random(seed)
    results = []
    for _ in range(30):
        a, b, c = (random_p(G, rng.randint(1, 2), rng) for _ in range(3))
        inner = [p_bracket(b, c), p_bracket(c, a), p_bracket(a, b)]
        outer = [p_bracket(a, inner[0]), p_bracket(b, inner[1]), p_bracket(c, inner[2])]
        assert (outer[0] + outer[1] + outer[2]).is_zero()
        d = rng.choice(der_basis(G, rng.randint(1, 2)))
        x, y = random_p(G, 1, rng), random_p(G, 2, rng)
        xy = p_bracket(x, y)
        dx, dy = d.value(x), d.value(y)
        left, right = d.value(xy), [p_bracket(dx, y), p_bracket(x, dy)]
        assert left == right[0] + right[1]
        results += inner + outer + [xy, dx, dy, left] + right
    table = bracket_table()
    pivot_entries = [e for e in table.values() if type(e) is freelie._PivotEntry]
    assert any(e.reduced for e in pivot_entries)
    for entry in pivot_entries:
        for g, reduced in entry.reduced.items():
            pb = surface.PBasis(g, len(next(iter(entry))))
            assert list(reduced.items()) == list(pb.reduce_coords(entry).items())
    entry_ids = {id(entry) for entry in entry_dicts()}
    assert not any(id(r.coords) in entry_ids for r in results)
    monkeypatch.setattr(freelie, "_BRACKET_ROWS", {})
    for (u, v), entry in table.items():
        again = dict(freelie._bracket_asc(u, v))
        assert freelie._BRACKET_ROWS[u][v] == entry, (u, v)
        assert type(freelie._BRACKET_ROWS[u][v]) is type(entry), (u, v)
        assert again == (dict([entry]) if type(entry) is tuple else entry), (u, v)
