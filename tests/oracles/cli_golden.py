#!/usr/bin/env python3
"""Golden stdout of CLI commands whose reports pass through the exact Lie
layer: structure, Killing form, contraction (limit and at eps = 1/1000) for
every named algebra, the six-direction frame tables, limits and 1/N defect,
the carrier triples and exclusion reports of the truncated modes, and normal
ordering of a fixed set of words of length 1-6 in every rewrite preset.

Run from the repository root with the package importable (PYTHONPATH=src);
it writes cli_golden.json next to this file as a list of
{"argv": [...], "exit": code, "stdout": text}. tests/test_cli_golden.py
replays every entry through cli.main and compares stdout byte for byte.
"""

import contextlib
import io
import json
import os
import random

from qsetalg import cli
from qsetalg.liecore import CATALOG
from qsetalg.yang import PRESETS

ALGEBRAS = [*CATALOG, "toy", *(f"yang-{p}" for p in sorted(PRESETS))]
CARRIER_PRESETS = ("spin3", "spin21")
# weights for the algebras that have no default contraction weights
WEIGHTS = {"so3": "0,1,1", "h1": "1,1,1", "toy": "1/2,1/2,1"}
REWRITE_GENERATORS = {"h1": ("q", "p"), "spin21": ("q", "p", "r"), "spin3": ("jx", "jy", "jz")}


def rewrite_words(system):
    """Three seeded words of each length 1-6 over the preset's generators."""
    gens = REWRITE_GENERATORS[system]
    rng = random.Random(f"cli-golden:{system}")
    return [tuple(rng.choice(gens) for _ in range(length)) for length in range(1, 7) for _ in range(3)]


def commands():
    for name in ALGEBRAS:
        yield ["structure", name]
        yield ["killing", name]
        yield ["contract", name]
        yield ["contract", name, "--eps", "1/1000"]
        if name in WEIGHTS:
            yield ["contract", name, "--weights", WEIGHTS[name]]
            yield ["contract", name, "--weights", WEIGHTS[name], "--eps", "1/1000"]
    for preset in sorted(PRESETS):
        yield ["yang", "table", "--preset", preset]
        yield ["yang", "contract", "--preset", preset]
    yield ["yang", "defect", "--capacity", "10000"]
    for preset in CARRIER_PRESETS:
        for capacity in range(1, 33):
            yield ["palev", "carriers", "--preset", preset, "--capacity", str(capacity)]
    for capacity in range(1, 33):
        yield ["palev", "exclusion", "--capacity", str(capacity)]
    yield ["palev", "normal-order", "--system", "h1", "--word", "p,q,q"]
    for system in sorted(REWRITE_GENERATORS):
        for word in rewrite_words(system):
            yield ["palev", "normal-order", "--system", system, "--word", ",".join(word)]


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def main() -> None:
    out = []
    for argv in commands():
        code, text = run(argv)
        out.append({"argv": argv, "exit": code, "stdout": text})
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "cli_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"{len(out)} commands recorded")


if __name__ == "__main__":
    main()
