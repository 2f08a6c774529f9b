"""Fresh-interpreter helpers, started by run.py.

    python3 bench/probe.py <workload> <seed> <workdir>   import the workload's
        modules and generate its first deck of inputs
    python3 bench/probe.py import <seed> <workdir>       import qsetalg.cli only
    python3 bench/probe.py play <seed> <workdir> <workload> <decks> <tiny>
        play the decks untraced: the twin of a traced run

The first two print "ready" when done; run.py times the span from spawn to
that line. "play" prints one JSON list: every job's outcome.
"""

import importlib
import json
import shutil
import sys

mode, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if mode == "import":
    importlib.import_module("qsetalg.cli")
    print("ready", flush=True)
elif mode == "play":
    import run
    from core import run_decks
    from gauge import SpeedGauge

    _, workload = run.make_workload(sys.argv[4], seed, workdir, sys.argv[6] == "1")
    res = run_decks(workload.deck, int(sys.argv[5]), gauge=SpeedGauge(run.gauge_kind(sys.argv[4])))
    print(json.dumps([[o.job_id, o.cls, repr(o.params), o.ms, o.ok, o.expected, o.detail, o.digest, o.raw_ms] for o in res.outcomes]))
else:
    import run

    mod, workload = run.make_workload(mode, seed, workdir)
    for name in mod.MODULES:
        importlib.import_module(name)
    workload.deck(0)
    print("ready", flush=True)
shutil.rmtree(workdir, ignore_errors=True)
