"""Exact-arithmetic workbench for the graded Lie algebra of a surface group."""

from .freelie import LieElement, TensorElement, bracket, lyndon_words, theta, theta_partial, witt_dim
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
    verify_31_bracket,
    verify_theorem_outer_bracket,
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
    verify_no_map,
)

__version__ = "0.1.0"
