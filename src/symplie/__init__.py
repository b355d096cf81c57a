"""Exact-arithmetic workbench for the graded Lie algebra of a surface group.

The package root exports only ``__version__`` and :func:`clear_caches`;
everything else is imported from its submodule, for example
``from symplie.reps import decompose``.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level memo: the lru caches of freelie, surface,
    johnson and reps (surface's Chevalley-action word memos for quotient
    elements, one per genus and generator, among them) and freelie's
    table of Lyndon structure constants, all of its rows, with the
    reduced forms its pivot entries keep.  A Derivation's
    own word memo, built on its first value, lives as long as it does.
    The degree cap keeps its last parse, which every read checks against
    the variable (:func:`symplie.reps.degree_cap`).  A module that
    ``symplie.cli`` registered lazily and no command has read yet runs here."""
    from . import freelie, johnson, reps, surface

    for mod in (freelie, surface, johnson, reps):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    freelie._BRACKET_ROWS.clear()
