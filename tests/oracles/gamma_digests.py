#!/usr/bin/env python3
"""Digests of every gamma set build_gammas makes, p + q <= 12.

For each signature it records the sha256 of the JSON text of gammas_to_json
(keys sorted, default separators), the representation dimension, the sign
the top element squares to and the entries_are_signs verdict. None of these
needs the anticommutator check, so the recorder runs in seconds on any
kernel; tests/test_cliff.py replays the file.

Run from the repository root with the package importable (PYTHONPATH=src);
it writes gamma_digests.json next to this file.
"""

import hashlib
import json
import os

from qsetalg.cliff import MAX_TOTAL, build_gammas, entries_are_signs, gammas_to_json


def digest(gs) -> dict:
    text = json.dumps(gammas_to_json(gs), sort_keys=True)
    return {
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "dim": gs.dim,
        "top_square": gs.top_square_sign(),
        "signs": entries_are_signs(gs),
    }


def main() -> None:
    out = {}
    for total in range(MAX_TOTAL + 1):
        for p in range(total + 1):
            out[f"{p},{total - p}"] = digest(build_gammas(p, total - p))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "gamma_digests.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"{len(out)} signatures recorded")


if __name__ == "__main__":
    main()
