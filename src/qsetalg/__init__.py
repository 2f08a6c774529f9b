"""Exact computer algebra for finite set algebras and their linearizations.

The package is organized bottom-up:

    perfinite   hereditarily finite sets, Ackermann codes, xor/partial-or
    qset        Grassmann/Clifford linearization over rank frames, Berezin norms
    cliff       real gamma matrix sets, top elements, spin generators
    liecore     structure constants, Killing forms, contraction limits
    yang        six-index spin frames, canonical contraction, spectra
    palev       finite ladder oscillators, normal ordering
    vertexnet   triadic tensor networks with parity typing
    cli         command line front end (also `python -m qsetalg`)

Everything advertised as exact is computed as integer arrays over a common
scale, or over fractions.Fraction; floats appear only in cross-checks and
explicitly float-mode paths.
"""

from .perfinite import OM, PerfiniteSet, decode, parse_set_text
from .qset import Multivector, RankFrame

__all__ = [
    "OM",
    "PerfiniteSet",
    "decode",
    "parse_set_text",
    "Multivector",
    "RankFrame",
]

__version__ = "0.1.0"
