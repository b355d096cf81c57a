import random
from fractions import Fraction

import symplie
from symplie import freelie, johnson, reps, surface
from symplie.reps import act_p, module_character
from symplie.surface import PElement, p_basis, reduce_lie

from helpers import bracket_table, random_lie


def _lru_caches():
    return [obj for mod in (freelie, surface, johnson, reps)
            for obj in vars(mod).values() if hasattr(obj, "cache_info")]


def test_clear_caches_empties_every_memo_and_keeps_results():
    # the quotient action fills surface's letter tables and, through a
    # bracket it makes (f2 sends a1 a1 a2 to a1 a1 a3, with [a1, a3]),
    # freelie's table of structure constants: clear_caches empties both,
    # the table down to its last row
    symplie.clear_caches()
    x = random_lie(3, 4, random.Random(7), terms=6)
    before = (p_basis(3, 4).rep_words, reduce_lie(x), module_character(3, "der", 2))
    assert not bracket_table()
    act_p(("f", 2), PElement(3, 3, {p_basis(3, 3).rep_words[0]: Fraction(1)}))
    assert surface._action_table.cache_info().currsize
    assert bracket_table()
    assert any(c.cache_info().currsize for c in _lru_caches())

    symplie.clear_caches()

    assert all(c.cache_info().currsize == 0 for c in _lru_caches())
    assert not freelie._BRACKET_ROWS
    assert surface._action_table.cache_info().currsize == 0
    assert (p_basis(3, 4).rep_words, reduce_lie(x), module_character(3, "der", 2)) == before
