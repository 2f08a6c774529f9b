"""qsetalg benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload frames --seed 1 --seconds 5 --trace 0

Run from the root of a checkout (the benchmark finds the checkout from its
own location and imports qsetalg from its src/). --workload is frames,
small-exact, cli or all. A run plays as many whole decks as fill --seconds
at the workload's nominal deck time, at least one. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it plays the decks traced and
reports the per-layer metrics, and the tracing overhead against the same
decks played untraced in a fresh interpreter. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads, metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import jobs_cli
from core import Outcome, RunResult, deck_count, median, run_decks, tail
from gauge import SpeedGauge
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = {"frames": "jobs_frames", "small-exact": "jobs_small", "cli": "jobs_cli"}
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
    "job_tail_ms": "ms", "fail_ratio": "ratio", "peak_rss_mb": "MB",
}


def make_workload(name: str, seed: int, workdir: str, tiny: bool = False):
    mod = importlib.import_module(WORKLOADS[name])
    if name == "cli":
        return mod, mod.Workload(ROOT, seed, workdir, tiny)
    return mod, mod.Workload(ROOT, seed, tiny)


def gauge_kind(name: str) -> str:
    """cli jobs start interpreters; the others run in this process."""
    return "spawn" if name == "cli" else "cpu"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def time_to_ready(argv) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe {argv[2:]} failed with exit code {proc.returncode}")
    return ready


def probe_times(mode: str, seed: int, count: int) -> list:
    """[(seconds to ready at the spawn gauge's nominal speed, raw seconds)]
    of `count` fresh interpreters, the gauge sampled around each."""
    probe = [sys.executable, os.path.join(BENCH, "probe.py"), mode, str(seed)]
    gauge = SpeedGauge("spawn")
    raw = []
    for k in range(count):
        gauge.sample()
        start = time.perf_counter()
        ready = time_to_ready(probe + [os.path.join(WORK, f"probe-{os.getpid()}-{k}")])
        raw.append((ready, start + ready / 2))
    gauge.sample()
    return [(ready * gauge.scale(mid), ready) for ready, mid in raw]


def provenance(names, seed: int, args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qsetalg", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + fh.read())
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "sympy": version("sympy"),
        "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest()[:16], "seed": seed, "workloads": names,
        "seconds": args.seconds, "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# one workload


def end_to_end(name: str, res, setup) -> dict:
    times = [o.ms for o in res.outcomes]
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    tail_ms, pct = tail(times)
    n = len(times)
    return {
        "setup_s": (setup[0], setup[1], f"fresh interpreters, median; {setup[2]:.6g} s raw"),
        "jobs_per_s": (n / res.job_seconds, n, f"jobs over {res.job_seconds:.3f} s in jobs; "
                       f"{n * 1e3 / sum(o.raw_ms for o in res.outcomes):.6g} 1/s raw"),
        "job_p50_ms": (median(times), n, "jobs"),
        "job_tail_ms": (tail_ms, n, f"jobs, p{pct:.2f}"),
        "fail_ratio": (res.failed / n, n, f"{res.failed} failed / {n} attempted"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, 1, "largest child process" if name == "cli" else "benchmark process"),
    }


def untraced_twin(name: str, seed: int, decks: int, workdir: str, tiny: bool) -> RunResult:
    """Play the same decks untraced in a fresh interpreter, so that neither
    pass finds caches the other filled (perfinite's decode cache, sympy's)."""
    argv = [sys.executable, os.path.join(BENCH, "probe.py"), "play", str(seed), workdir, name, str(decks), str(int(tiny))]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"untraced twin failed with exit code {proc.returncode}: {proc.stderr[-500:]}")
    outcomes = [Outcome(*o) for o in json.loads(proc.stdout.splitlines()[-1])]
    return RunResult(outcomes, decks, sum(o.ms for o in outcomes) / 1e3)


def per_layer(name: str, seed: int, traced, tracer, twin) -> dict:
    out = {}
    gauge = traced.gauge
    for entry, (calls, self_ms, errors) in tracer.layer_metrics(gauge.scale).items():
        out[f"{entry}.calls"] = (calls, "count")
        out[f"{entry}.self_ms"] = (self_ms, "ms")
        out[f"{entry}.errors"] = (errors, "count")
    for counter, value in tracer.counters.items():
        out[counter] = (value, "count")
    import_ms = median([p[0] for p in probe_times("import", seed, SETUP_PROBES)]) * 1e3 if name == "cli" else 0.0
    out["cli.import_ms"] = (import_ms, "ms")
    for family in jobs_cli.FAMILIES:
        ms = [o.ms for o in traced.outcomes if o.cls.split(".")[:2] == ["cli", family]]
        out[f"cli.{family}.p50_ms"] = (median(ms) if ms else 0.0, "ms")
    # cli jobs run qsetalg in child processes, which are never traced
    rate_t = traced.attempted / traced.job_seconds
    out["trace.overhead_ratio"] = (twin.attempted / twin.job_seconds / rate_t if twin else 1.0, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns a report dict (see main for its use)."""
    workdir = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    mod, workload = make_workload(name, seed, workdir, tiny)
    decks = deck_count(seconds, mod.DECK_SECONDS)
    report = {"workload": name}
    twin = None
    gauge = SpeedGauge(gauge_kind(name))
    if not trace:
        measure_setup = not tiny
        # half the set-up probes run before the decks and half after, so their
        # median spans the run rather than one moment of the machine's speed
        probes = probe_times(name, seed, SETUP_PROBES // 2) if measure_setup else []
        res = run_decks(workload.deck, decks, gauge=gauge)
        if measure_setup:
            probes += probe_times(name, seed, SETUP_PROBES - SETUP_PROBES // 2)
        setup = (median([p[0] for p in probes]), len(probes), median([p[1] for p in probes])) if probes else (0.0, 0, 0.0)
        report["e2e"] = end_to_end(name, res, setup)
    else:
        # this interpreter has run no job yet, so the traced pass starts as
        # cold as an untraced run
        tracer = Tracer()
        if name != "cli":
            tracer.install()
        try:
            res = run_decks(workload.deck, decks, tracer=tracer, gauge=gauge)
        finally:
            tracer.uninstall()
        if name != "cli":
            twin = untraced_twin(name, seed, decks, workdir + "-twin", tiny)
        report["layers"] = per_layer(name, seed, res, tracer, twin)
        tracer.write(os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl"))
    report["decks"] = res.decks
    runs = [res, twin] if twin else [res]
    report["attempted"] = sum(r.attempted for r in runs)
    report["failed"] = sum(r.failed for r in runs)
    report["unexpected"] = [o for r in runs for o in r.unexpected]
    report["failing"] = {}
    for o in res.outcomes:
        if not o.ok:
            key = (o.cls, "known defect" if o.expected else "UNEXPECTED", o.detail.split(":")[0])
            report["failing"][key] = report["failing"].get(key, 0) + 1
    report["jobs"] = [(o.job_id, o.cls, str(o.params), o.ok, o.digest) for o in res.outcomes]
    report["job_ms"] = [round(o.ms, 3) for o in res.outcomes]
    report["job_raw_ms"] = [round(o.raw_ms, 3) for o in res.outcomes]
    shutil.rmtree(workdir, ignore_errors=True)
    return report


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qsetalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time at the nominal deck time; whole decks are played")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qsetalg", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "tests", "oracles")
    ):
        print(f"error: no qsetalg checkout at {ROOT} (need src/qsetalg and tests/oracles)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    # write the bytecode cache once, so set-up and cli timings measure
    # interpreter start plus import, not compilation
    warm = subprocess.run([sys.executable, "-c", "import qsetalg.cli"], env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print("error: qsetalg.cli does not import", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(names, args.seed, args)
    for key, value in prov.items():
        print(f"# {key}: {value}")
    reports = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]

    metrics = {}
    for rep in reports:
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        print(f"== {rep['workload']}: {rep['decks']} decks, {rep['attempted']} jobs attempted, {rep['failed']} failed")
        for (cls, kind, what), count in sorted(rep["failing"].items()):
            print(f"   failing: {cls} x{count} ({kind}: {what})")
        for o in rep["unexpected"][:10]:
            print(f"   UNEXPECTED {o.cls} {o.params!s:.120}: {o.detail:.200}")
        own = {}
        if "e2e" in rep:
            for metric, (value, samples, note) in rep["e2e"].items():
                print(f"   {metric} = {value:.6g} {E2E_UNITS[metric]} (n={samples}; {note})")
                own[metric] = {"value": value, "unit": E2E_UNITS[metric]}
        else:
            for metric, (value, unit) in rep["layers"].items():
                print(f"   {metric} = {value:.6g} {unit}")
                own[metric] = {"value": value, "unit": unit}
        metrics.update({prefix + k: v for k, v in own.items()})
        path = os.path.join(WORK, f"result-{rep['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "provenance": prov, "metrics": own,
                "failing": [list(k) + [v] for k, v in rep["failing"].items()],
                "jobs": rep["jobs"], "job_ms": rep["job_ms"], "job_raw_ms": rep["job_raw_ms"],
            }, fh, indent=1)
    result = {
        "correct": all(not rep["unexpected"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
