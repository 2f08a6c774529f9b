"""Exact computer algebra for finite set algebras and their linearizations.

The package is organized bottom-up:

    perfinite   hereditarily finite sets, Ackermann codes, xor/partial-or
    qset        Grassmann/Clifford linearization over rank frames, Berezin norms
    cliff       real gamma matrix sets, top elements
    liecore     structure constants, Killing forms, contraction limits
    yang        six-index spin frames, canonical contraction
    spectra     unit tags and accumulated coordinate spectra
    palev       finite ladder oscillators, normal ordering
    vertexnet   triadic tensor networks with parity typing
    cli         command line front end (also `python -m qsetalg`)

Everything advertised as exact is computed on Python ints over a common
scale, or over fractions.Fraction; network merges are sparse joins on
Python ints too. Floats appear only in cross-checks and explicitly
float-mode paths.
"""

__all__ = ["OM", "PerfiniteSet", "decode", "parse_set_text", "Multivector", "RankFrame"]

__version__ = "0.1.0"


def __getattr__(name):
    """The names of __all__, importing perfinite or qset on first use, so a
    command that never parses a set or builds a multivector never loads
    them."""
    if name in ("Multivector", "RankFrame"):
        from . import qset

        return getattr(qset, name)
    if name in __all__:
        from . import perfinite

        return getattr(perfinite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
