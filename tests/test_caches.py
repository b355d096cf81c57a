import random
from fractions import Fraction

import symplie
from symplie import freelie, johnson, reps, surface
from symplie.johnson import der_character
from symplie.reps import act_p
from symplie.surface import PElement, p_basis, reduce_lie

from helpers import random_lie


def _lru_caches():
    return [obj for mod in (freelie, surface, johnson, reps)
            for obj in vars(mod).values() if hasattr(obj, "cache_info")]


def test_clear_caches_empties_every_memo_and_keeps_results():
    # the quotient action fills surface's letter tables and the free Lie
    # action freelie's: clear_caches empties both
    symplie.clear_caches()
    x = random_lie(3, 4, random.Random(7), terms=6)
    before = (p_basis(3, 4).rep_words, reduce_lie(x), der_character(3, 2))
    act_p(("e", 1), PElement(3, 3, {p_basis(3, 3).rep_words[0]: Fraction(1)}))
    assert surface._action_table.cache_info().currsize
    assert freelie._action_memo.cache_info().currsize == 0
    x.act(("f", 2))
    assert freelie._BRACKET_WORDS and freelie._action_memo.cache_info().currsize
    assert any(c.cache_info().currsize for c in _lru_caches())

    symplie.clear_caches()

    assert all(c.cache_info().currsize == 0 for c in _lru_caches())
    assert not freelie._BRACKET_WORDS and freelie._action_memo.cache_info().currsize == 0
    assert surface._action_table.cache_info().currsize == 0
    assert (p_basis(3, 4).rep_words, reduce_lie(x), der_character(3, 2)) == before
