"""Command-line interface.

Every command prints a one-line header echoing the run configuration, then
its payload. Exact rationals print as n or n/d; floats print with %.17g.
Exit codes: 0 success, 1 a verification or consistency check failed, 2 bad
usage or invalid input.

Output files given as bare names land in $QSETALG_OUT_DIR when that is set.

Each handler imports the layers it runs, so a command loads only those; the
sets, qset and palev ladder/deviation/exclusion/normal-order commands run
without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import isqrt, log10

from .perfinite import MAX_CODE_BITS, OM, decode, enumerate_rank, format_set_text, parse_set_text
from .scalars import RunConfig, fmt_scalar, parse_int

# sorted(yang.PRESETS) and sorted(yang.ACCUMULATION_PRESETS), held here so the
# parser is built without numpy; a test pins them to yang's tables
_YANG_PRESETS = ("3-3", "4-2", "5-1")
_FRAMES = ("feynman", "penrose")


# decimal digits of 2**MAX_CODE_BITS - 1, the largest code a set may have
_MAX_CODE_DIGITS = int(MAX_CODE_BITS * log10(2)) + 1


class CliError(ValueError):
    """Invalid input; maps to exit code 2, as every ValueError does."""


def _config(args) -> RunConfig:
    return RunConfig(seed=args.seed, mode=args.mode, tolerance=args.tolerance)


def _header(args, name: str) -> None:
    print(f"# qsetalg {name} | {_config(args).describe()}")


def _resolve_out(path: str) -> str:
    base = os.environ.get("QSETALG_OUT_DIR")
    if base and not os.path.dirname(path):
        return os.path.join(base, path)
    return path


def _read_mv(path: str):
    from .qset import mv_from_json

    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return mv_from_json(data)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read multivector from {path}: {e}") from None


def _print_mv(mv) -> None:
    from .qset import mv_to_json

    print(json.dumps(mv_to_json(mv)))


def _positive_int(text: str) -> int:
    """argparse type: a positive integer."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _eps(text: str) -> Fraction:
    """argparse type: a nonzero rational whose float, used by the refit
    check, is nonzero too. eps = 0 is the limit, printed without --eps."""
    try:
        eps = Fraction(text)
        if float(eps) != 0:
            return eps
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(
        f"must be a nonzero rational within float range, got {text!r} "
        "(the eps -> 0 limit prints without --eps)"
    )


def _print_matrix(m) -> None:
    for row in m:
        print("  [" + ", ".join(fmt_scalar(x) for x in row) + "]")


# ---------------------------------------------------------------------------
# algebra registry shared by structure/killing/contract


def _lookup_algebra(name: str):
    """(algebra, default weights, note) for one name; builds only that algebra."""
    from .liecore import CATALOG, catalog_entry

    if name in CATALOG:
        ent = catalog_entry(name)
        return ent.algebra, ent.weights, ent.note
    if name == "toy":
        from .yang import toy_frame

        return toy_frame(), None, "2x2 symmetric triple"
    preset = name.removeprefix("yang-")
    if name.startswith("yang-") and preset in _YANG_PRESETS:
        from .yang import build_yang

        fr = build_yang(preset)
        return fr.algebra, fr.weights, f"15 generators, six directions {fr.eta6}"
    names = [*CATALOG, "toy", *(f"yang-{p}" for p in _YANG_PRESETS)]
    raise CliError(f"unknown algebra {name!r}; available: {', '.join(sorted(names))}")


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit code)


def _cmd_sets(args) -> int:
    _header(args, "sets")
    op = args.op
    if op == "xor" or op == "or":
        if len(args.operands) != 2:
            raise CliError(f"sets {op} takes exactly two set texts")
        x = parse_set_text(args.operands[0])
        y = parse_set_text(args.operands[1])
        z = (x ^ y) if op == "xor" else (x | y)
        print("OM" if z is OM else format_set_text(z))
    elif op == "code":
        if len(args.operands) != 1:
            raise CliError("sets code takes one set text")
        print(fmt_scalar(parse_set_text(args.operands[0]).code))
    elif op == "decode":
        if len(args.operands) != 1:
            raise CliError("sets decode takes one integer")
        text = args.operands[0].strip()
        too_long = f"sets decode: the code passes the {MAX_CODE_BITS}-bit set limit"
        if len(text) > _MAX_CODE_DIGITS:
            raise CliError(too_long)
        try:
            n = parse_int(text)
        except ValueError:
            raise CliError("sets decode takes one integer") from None
        if n.bit_length() > MAX_CODE_BITS:
            raise CliError(too_long)
        print(format_set_text(decode(n)))
    elif op == "info":
        if len(args.operands) != 1:
            raise CliError("sets info takes one set text")
        x = parse_set_text(args.operands[0])
        print(f"code={fmt_scalar(x.code)} grade={x.grade} rank={x.rank}")
    elif op == "enumerate":
        if len(args.operands) != 1:
            raise CliError("sets enumerate takes a maximum rank")
        try:
            r = int(args.operands[0])
        except ValueError:
            raise CliError("rank must be an integer") from None
        for x in enumerate_rank(r, allow_large=args.allow_large):
            print(format_set_text(x))
    return 0


def _make_frame(args):
    from .qset import RankFrame

    return RankFrame(args.rank, metric=args.metric)


_QSET_INPUTS = {
    "embed": 1, "signature": 0, "grassmann": 2, "clifford": 2, "norm": 1, "beta": 2, "iota": 1,
}


def _cmd_qset(args) -> int:
    from .qset import berezin_norm, beta_form, clifford, embed, grassmann, iota_m, signature_report

    _header(args, "qset")
    op = args.op
    if len(args.inputs) != _QSET_INPUTS[op]:
        raise CliError(f"qset {op} takes {_QSET_INPUTS[op]} input(s), got {len(args.inputs)}")
    if op == "embed":
        _print_mv(embed(parse_set_text(args.inputs[0])))
        return 0
    if op == "signature":
        rep = signature_report(_make_frame(args))
        print(
            f"dimension={rep.dimension} plus={rep.n_plus} "
            f"minus={rep.n_minus} zero={rep.n_zero}"
        )
        return 0
    if op == "grassmann":
        a, b = (_read_mv(p) for p in args.inputs)
        _print_mv(grassmann(a, b))
        return 0
    if op == "clifford":
        a, b = (_read_mv(p) for p in args.inputs)
        _print_mv(clifford(a, b, _make_frame(args)))
        return 0
    if op == "norm":
        a = _read_mv(args.inputs[0])
        print(fmt_scalar(berezin_norm(a, _make_frame(args))))
        return 0
    if op == "beta":
        a, b = (_read_mv(p) for p in args.inputs)
        print(fmt_scalar(beta_form(a, b, _make_frame(args))))
        return 0
    a = _read_mv(args.inputs[0])  # iota
    img, frame_out = iota_m(a, args.grade, _make_frame(args))
    _print_mv(img)
    print(f"# output frame: rank {frame_out.r}, {frame_out.n} generators", file=sys.stderr)
    return 0


def _cmd_gamma(args) -> int:
    from .cliff import anticommutator_defect, build_gammas, entries_are_signs, gammas_to_json

    _header(args, "gamma")
    gs = build_gammas(args.p, args.q)
    defect = anticommutator_defect(gs)
    print(f"signature=({gs.p},{gs.q}) dim={gs.dim} eta={list(gs.eta)}")
    print(f"anticommutator defect={defect}")
    print(f"entries in -1,0,1: {entries_are_signs(gs)}")
    print(f"top element squares to {gs.top_square_sign():+d}")
    if args.json:
        path = _resolve_out(args.json)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gammas_to_json(gs), fh)
        print(f"matrices written to {path}")
    return 0 if defect == 0 else 1


def _cmd_structure(args) -> int:
    _header(args, "structure")
    algebra, _, note = _lookup_algebra(args.name)
    sc = algebra.structure_constants()
    print(f"{args.name}: dim={sc.dim} ({note})")
    print(f"labels: {' '.join(sc.labels)}")
    for i, j, k, c in sc.nonzero():
        print(f"[{sc.labels[i]},{sc.labels[j]}] -> {fmt_scalar(c)} {sc.labels[k]}")
    print(f"jacobi defect: {fmt_scalar(sc.jacobi_defect())}")
    print(f"classification: {sc.classify()}")
    return 0


def _cmd_killing(args) -> int:
    _header(args, "killing")
    algebra, _, _ = _lookup_algebra(args.name)
    sc = algebra.structure_constants()
    print(f"{args.name}: Killing form")
    _print_matrix(sc.killing_form())
    det = sc.killing_det()
    print(f"det = {fmt_scalar(det)}")
    print(f"semisimple: {det != 0}")
    return 0


def _cmd_contract(args) -> int:
    from .liecore import ContractionFamily, numeric_contraction_check

    _header(args, "contract")
    algebra, default_w, _ = _lookup_algebra(args.name)
    if args.weights:
        try:
            weights = tuple(Fraction(w) for w in args.weights.split(","))
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(f"bad weights: {e}") from None
    elif default_w is not None:
        weights = tuple(default_w)
    else:
        raise CliError(f"{args.name} has no default weights; pass --weights")
    fam = ContractionFamily(algebra.structure_constants(), weights)
    at = None if args.eps is None else fam.at(args.eps)
    try:
        rel = None if at is None else numeric_contraction_check(algebra, weights, float(args.eps))
    except (OverflowError, FloatingPointError):
        raise CliError(f"the float refit overflows at eps={float(args.eps):g}") from None
    print(f"weights: {', '.join(fmt_scalar(w) for w in weights)}")
    for li, lj, lk, c, e in fam.describe():
        tag = "survives" if e == 0 else f"decays as eps^{fmt_scalar(e)}"
        print(f"[{li},{lj}] -> {fmt_scalar(c)} {lk}: {tag}")
    lim = fam.limit()
    print(f"limit classification: {lim.classify()}")
    print(f"limit Killing det: {fmt_scalar(lim.killing_det())}")
    if at is None:
        return 0
    print(f"at eps={fmt_scalar(args.eps)}:")
    for i, j, k, c in at.nonzero():
        print(f"  [{at.labels[i]},{at.labels[j]}] -> {fmt_scalar(c)} {at.labels[k]}")
    ok = rel <= 1e-9
    print(f"float refit deviation: {fmt_scalar(rel)} ({'PASS' if ok else 'FAIL'} <= 1e-9)")
    return 0 if ok else 1


def _cmd_yang(args) -> int:
    from .yang import accumulate_preset, build_yang, contract_to_hp, gauge_defect, unit_tags

    _header(args, "yang")
    what = args.what
    if what == "units":
        for name, tag in sorted(unit_tags().items()):
            print(f"{name}: {tag}")
        return 0
    if what == "accumulate":
        results = accumulate_preset(args.frame, args.steps)
        for label in sorted(results):
            res = results[label]
            levels = ", ".join(f"{lvl}:{m}" for lvl, m in res.spectrum)
            print(f"{label} (square {res.square:+d}, unit {res.unit}): {levels}")
        return 0
    fr = build_yang(args.preset)
    if what == "table":
        sc = fr.structure_constants()
        print(f"preset {fr.preset}: directions eta={list(fr.eta6)}, mu signature {fr.mu_signature()}")
        print(f"labels: {' '.join(sc.labels)}")
        print(f"dim={sc.dim} killing det={fmt_scalar(sc.killing_det())} classification={sc.classify()}")
        return 0
    if what == "contract":
        _, target = contract_to_hp(fr)
        rows = [
            ("central charge", target.central_charge),
            ("coordinates commute", target.coordinates_commute),
            ("momenta commute", target.momenta_commute),
            ("canonical pairing", target.heisenberg_pairing),
            ("killing degenerate", target.killing_degenerate),
        ]
        for label, ok in rows:
            print(f"{label}: {'PASS' if ok else 'FAIL'}")
        print(f"limit classification: {target.constants.classify()}")
        return 0 if target.all_hold() else 1
    n = args.capacity  # defect
    root = isqrt(n)
    if root * root != n:
        raise CliError(f"capacity {n} must be a perfect square for exact scaling")
    rep = gauge_defect(fr, Fraction(1, root))
    print(f"eps = {fmt_scalar(rep.eps)}")
    for li, lj, m in rep.by_pair:
        print(f"|[{li},{lj}] - limit| = {fmt_scalar(m)}")
    print(f"worst defect: {fmt_scalar(rep.worst)} (~{fmt_scalar(float(rep.worst))})")
    return 0


def _cmd_palev(args) -> int:
    from .palev import REWRITE_PRESETS, NCPolynomial, PalevMode, carrier_triple, normal_order

    _header(args, "palev")
    what = args.what
    if what == "normal-order":
        if args.system not in REWRITE_PRESETS:
            raise CliError(
                f"unknown rewrite system {args.system!r}; "
                f"available: {', '.join(sorted(REWRITE_PRESETS))}"
            )
        word = tuple(w for w in args.word.split(",") if w)
        if not word:
            raise CliError("empty word")
        result = normal_order(NCPolynomial.word(*word), args.system)
        print(f"{'*'.join(word)} = {result}")
        return 0
    mode = PalevMode(args.capacity)
    if what == "ladder":
        diag = mode.ladder_commutator_diagonal()
        print(f"capacity {mode.two_j} (j = {fmt_scalar(mode.j)}), levels {mode.dim}")
        print("[a, adag] diagonal: " + ", ".join(fmt_scalar(d) for d in diag))
        return 0
    if what == "deviation":
        if args.level is not None and not 0 <= args.level <= mode.two_j:
            raise CliError(f"level must lie in 0..{mode.two_j}")
        levels = [args.level] if args.level is not None else list(range(mode.dim))
        print(f"capacity {mode.two_j} (j = {fmt_scalar(mode.j)})")
        for n in levels:
            print(f"level {n}: deviation {fmt_scalar(mode.bose_deviation(n))}")
        return 0
    if what == "exclusion":
        at_n, at_n1 = mode.exclusion_report()
        print(f"|adag^{mode.two_j}| = {fmt_scalar(at_n)}")
        print(f"|adag^{mode.two_j + 1}| = {fmt_scalar(at_n1)}")
        return 0 if (at_n > 0 and at_n1 == 0) else 1
    triple, checks = carrier_triple(mode, args.preset)  # carriers
    print(f"preset {triple.preset}: {triple.relations}")
    print(f"tags: q -> {triple.tags[0]}, p -> {triple.tags[1]}, r -> {triple.tags[2]}")
    ok = True
    for rel in sorted(checks):
        print(f"{rel}: {'PASS' if checks[rel] else 'FAIL'}")
        ok = ok and checks[rel]
    return 0 if ok else 1


def _cmd_net(args) -> int:
    import numpy as np

    from .vertexnet import VertexNetwork, dense_oracle

    _header(args, "net")
    try:
        net = VertexNetwork.load(args.file)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot load network: {e}") from None
    what = args.what
    if what == "parity":
        rep = net.parity_check()
        for f in rep.flags:
            print(f"FLAG vertex {f.vertex} ({f.kind}): {f.reason}")
        print(f"parity: {'PASS' if rep.ok else 'FAIL'} ({len(rep.flags)} flags)")
        return 0 if rep.ok else 1
    if what == "eval":
        arr = net.contract()
        print(f"open legs: {list(net.open_legs)}")
        print(json.dumps(arr.tolist()))
        rep = net.parity_check()
        print(f"parity flags: {len(rep.flags)}")
        return 0
    sparse = net.contract(dense_cutoff=0)  # check: sparse dicts throughout
    dense = net.contract(dense_cutoff=10**9)  # integer arrays throughout
    oracle = dense_oracle(net)
    ok = np.array_equal(sparse, dense) and np.array_equal(sparse.astype(float), oracle)
    print(f"contraction paths agree with dense einsum: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    from .verify import run_all

    report, ok = run_all(_config(args))
    sys.stdout.write(report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsetalg",
        description="finite set algebra, gamma frames, contractions, and "
        "truncated oscillator statistics",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    ap.add_argument(
        "--mode", choices=("exact", "float"), default="exact", help="scalar mode"
    )
    ap.add_argument(
        "--tolerance", type=float, default=1e-12, help="float comparison tolerance"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sets", help="hereditarily finite set operations")
    p.add_argument("op", choices=("xor", "or", "code", "decode", "info", "enumerate"))
    p.add_argument("operands", nargs="*")
    p.add_argument("--allow-large", action="store_true", help="permit rank 4 enumeration")
    p.set_defaults(fn=_cmd_sets)

    p = sub.add_parser("qset", help="multivector algebra over a rank frame")
    p.add_argument(
        "op",
        choices=("embed", "grassmann", "clifford", "norm", "beta", "signature", "iota"),
    )
    p.add_argument("inputs", nargs="*", help="set text or multivector JSON files")
    p.add_argument("--rank", type=int, default=2, help="frame rank r")
    p.add_argument(
        "--metric", default="berezin", help="zero | berezin | hyperbolic"
    )
    p.add_argument("--grade", type=int, default=1, help="grade selected by iota")
    p.set_defaults(fn=_cmd_qset)

    p = sub.add_parser("gamma", help="real gamma matrices for a signature")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", help="write matrices as JSON to this file")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("structure", help="structure constants of a named algebra")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("killing", help="Killing form of a named algebra")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_killing)

    p = sub.add_parser("contract", help="weighted contraction of a named algebra")
    p.add_argument("name")
    p.add_argument("--weights", help="comma-separated rational weights")
    p.add_argument("--eps", type=_eps, help="evaluate the family at this nonzero rational eps")
    p.set_defaults(fn=_cmd_contract)

    p = sub.add_parser("yang", help="six-direction frames and their limits")
    p.add_argument("what", choices=("table", "contract", "defect", "accumulate", "units"))
    p.add_argument("--preset", default="4-2", choices=_YANG_PRESETS)
    p.add_argument("--capacity", type=_positive_int, default=100, help="N for defect scaling")
    p.add_argument(
        "--frame",
        default="penrose",
        choices=_FRAMES,
        help="direction preset for accumulate",
    )
    p.add_argument("--steps", type=int, default=4, help="steps for accumulate")
    p.set_defaults(fn=_cmd_yang)

    p = sub.add_parser("palev", help="truncated oscillator modes")
    p.add_argument(
        "what", choices=("ladder", "deviation", "exclusion", "carriers", "normal-order")
    )
    p.add_argument("--capacity", type=_positive_int, default=4, help="2j, the quanta capacity")
    p.add_argument("--level", type=int, default=None, help="single level for deviation")
    p.add_argument("--preset", default="spin3", help="carrier preset")
    p.add_argument("--system", default="h1", help="rewrite system for normal-order")
    p.add_argument("--word", default="p,q", help="comma-separated generators")
    p.set_defaults(fn=_cmd_palev)

    p = sub.add_parser("net", help="vertex tensor networks")
    p.add_argument("what", choices=("eval", "parity", "check"))
    p.add_argument("file", help="network JSON file")
    p.set_defaults(fn=_cmd_net)

    p = sub.add_parser("verify-all", help="run the deterministic check registry")
    p.set_defaults(fn=_cmd_verify_all)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:  # CliError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
