"""Exact-arithmetic workbench for the graded Lie algebra of a surface group."""

from .claims import verify_31_bracket, verify_no_map, verify_theorem_outer_bracket
from .freelie import LieElement, bracket, lyndon_words, theta, theta_partial, witt_dim
from .johnson import (
    Derivation,
    HomElement,
    Sym2Lambda2,
    WedgeElement,
    ad_derivation,
    der_basis,
    der_character,
    derivation_bracket,
    inner_preimage,
    lambda4_embed,
    outer_decomposition,
    p_split,
    phi,
    phi_prime,
    pi_map,
    project_22,
    sym_mul,
    tau_hyp_twist,
    theta_image,
)
from .linalg import EchelonSpan, SparseElement, kernel_basis
from .magnus import FreeWord, MagnusSeries, TwistAutomorphism, dehn_twist, lcs_class, magnus, tau_hyp_from_twist
from .reps import (
    Character,
    Decomposition,
    Summand,
    act,
    decompose,
    module_character,
    submodule_decomposition,
    weyl_dim,
)
from .surface import (
    ConfigDeg2Element,
    PElement,
    config_bracket,
    ideal_component,
    labute_dim,
    lift,
    p_basis,
    p_bracket,
    p_dim,
    reduce_lie,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level memo: the lru caches of freelie, surface,
    johnson and reps, the Lyndon structure-constant table of freelie and
    the Chevalley-action word memos of reps (one per genus and generator).
    The registry of module types in reps is kept; a Derivation keeps its
    own word memo, which lives as long as it does."""
    from . import freelie, johnson, reps, surface

    for mod in (freelie, surface, johnson, reps):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    freelie._BRACKET_WORDS.clear()
    reps._ACT_WORD_CACHE.clear()
