import io
import json
import os
import subprocess
import sys
import warnings
from decimal import Context, Decimal
from math import factorial
from pathlib import Path

import pytest

import qsetalg
from qsetalg.cli import main
from qsetalg.cliff import build_gammas
from qsetalg.perfinite import decode
from qsetalg.qset import Multivector, mv_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_header_echoes_config(capsys):
    code, out, _ = run(capsys, "--seed", "5", "sets", "code", "{}")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("# qsetalg sets |")
    assert "seed=5" in first and "mode=exact" in first


def test_sets_operations(capsys):
    code, out, _ = run(capsys, "sets", "xor", "{{},{{}}}", "{{}}")
    assert code == 0
    assert out.splitlines()[1] == "{{{}}}"
    code, out, _ = run(capsys, "sets", "or", "{{}}", "{{}}")
    assert out.splitlines()[1] == "OM"
    code, out, _ = run(capsys, "sets", "decode", "11")
    assert out.splitlines()[1] == "{{},{{}},{{},{{}}}}"
    code, out, _ = run(capsys, "sets", "info", "{{},{{}}}")
    assert out.splitlines()[1] == "code=3 grade=2 rank=2"
    code, out, _ = run(capsys, "sets", "enumerate", "2")
    assert len(out.splitlines()) == 5


def test_sets_usage_errors(capsys):
    code, _, err = run(capsys, "sets", "xor", "{}")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "sets", "decode", "x")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sets", "code"], "sets code takes one set text"),
        (["sets", "code", "{}", "{}"], "sets code takes one set text"),
        (["sets", "decode"], "sets decode takes one integer"),
        (["sets", "decode", "1", "2"], "sets decode takes one integer"),
        (["sets", "info"], "sets info takes one set text"),
        (["sets", "info", "{}", "{}"], "sets info takes one set text"),
        (["sets", "enumerate"], "sets enumerate takes a maximum rank"),
        (["sets", "enumerate", "1", "2"], "sets enumerate takes a maximum rank"),
        (["sets", "enumerate", "x"], "rank must be an integer"),
        (["sets", "enumerate", "-1"], "rank is non-negative"),
        (["sets", "decode", "-1"], "codes are non-negative"),
        (["contract", "so3", "--weights", "1,2"], "one weight per basis element"),
        (
            ["contract", "so3", "--weights", "1/2,1/2,1/2", "--eps", "1/100"],
            "exponent 1/2 is not an integer; evaluate with a rational square root of eps instead",
        ),
        (["palev", "normal-order", "--word", ","], "empty word"),
    ],
)
def test_usage_errors_exit_two_with_one_error_line(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines() == [f"error: {message}"]


def test_qset_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "qset", "embed", "{{},{{}}}")
    assert code == 0
    payload = out.splitlines()[1]
    assert json.loads(payload) == [["{{},{{}}}", 1, 1]]
    a = tmp_path / "a.json"
    a.write_text(payload)
    code, out, _ = run(capsys, "qset", "grassmann", str(a), str(a))
    assert code == 0
    assert json.loads(out.splitlines()[1]) == []
    code, out, _ = run(
        capsys, "qset", "clifford", str(a), str(a), "--rank", "2",
        "--metric", "hyperbolic",
    )
    assert code == 0
    code, out, _ = run(capsys, "qset", "norm", str(a), "--rank", "2")
    assert out.splitlines()[1] == "0"
    code, out, _ = run(capsys, "qset", "signature", "--rank", "3")
    assert out.splitlines()[1] == "dimension=16 plus=4 minus=4 zero=8"


def test_qset_wrong_input_count(capsys):
    code, _, err = run(capsys, "qset", "embed")
    assert code == 2
    assert "qset embed takes 1 input(s), got 0" in err
    code, _, err = run(capsys, "qset", "grassmann", "a.json")
    assert code == 2


def test_qset_bad_file(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "qset", "norm", str(missing), "--rank", "2")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "blob, reason",
    [
        ([[[None], None, None]], "entry [[None], None, None] is not [set text, integer, nonzero integer]"),
        ([["{}", 1, 0]], "entry ['{}', 1, 0] is not [set text, integer, nonzero integer]"),
        ([["{}", 1e400, 1]], "entry ['{}', inf, 1] is not [set text, integer, nonzero integer]"),
        ([["{}", 1.5, 1]], "entry ['{}', 1.5, 1] is not [set text, integer, nonzero integer]"),
        ([["{}", True, 1]], "entry ['{}', True, 1] is not [set text, integer, nonzero integer]"),
        ([["{}", 1]], "entry ['{}', 1] is not [set text, integer, nonzero integer]"),
        ([["{", 1, 1]], "entry ['{', 1, 1]: expected '{' at position 1 in '{'"),
        ({}, "a multivector is a JSON list, not dict"),
        (5, "a multivector is a JSON list, not int"),
    ],
)
def test_qset_bad_multivector_exits_two_with_one_error_line(capsys, tmp_path, blob, reason):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(blob).replace("Infinity", "1e400"))
    code, out, err = run(capsys, "qset", "norm", str(f), "--rank", "2")
    assert code == 2
    assert err.splitlines() == [f"error: cannot read multivector from {f}: {reason}"]
    assert len(out.splitlines()) == 1  # the header only


@pytest.mark.parametrize(
    "text, reason",
    [("5", "a multivector is a JSON list, not int"), ("[", "Expecting value: line 1 column 2 (char 1)")],
)
def test_bad_multivector_on_stdin_exits_two_with_one_error_line(capsys, monkeypatch, text, reason):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "qset", "norm", "-", "--rank", "2")
    assert code == 2
    assert err.splitlines() == [f"error: cannot read multivector from -: {reason}"]
    assert len(out.splitlines()) == 1  # the header only


def test_gamma_and_out_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QSETALG_OUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "gamma", "2", "1", "--json", "g.json")
    assert code == 0
    assert "anticommutator defect=0" in out
    data = json.loads((tmp_path / "g.json").read_text())
    assert data["dim"] == 2
    assert data["eta"] == [1, 1, -1]
    assert data["gammas"] == [g.tolist() for g in build_gammas(2, 1).gammas]


def test_structure_killing_contract(capsys):
    code, out, _ = run(capsys, "structure", "so3")
    assert code == 0
    assert "classification: semisimple" in out
    code, out, _ = run(capsys, "killing", "so3")
    assert "det = -8" in out
    code, out, _ = run(capsys, "contract", "so21", "--eps", "1/100")
    assert code == 0
    assert "limit classification: nilpotent" in out
    assert "PASS" in out
    code, _, err = run(capsys, "structure", "nosuch")
    assert code == 2
    code, _, err = run(capsys, "contract", "so3")
    assert code == 2
    assert "no default weights" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["yang", "defect", "--capacity", "0"],
        ["yang", "defect", "--capacity", "-4"],
        ["palev", "exclusion", "--capacity", "0"],
        ["contract", "so21", "--eps", "0"],
        ["contract", "so21", "--eps=1/0"],
        ["contract", "so21", "--eps=1e400"],
    ],
)
def test_bad_capacity_or_eps_exits_two_before_output(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "error: argument --" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("name", ["so4", "yang-4-2"])
def test_eps_past_the_float_refit_exits_two_before_the_payload(capsys, name):
    # 1e300 is a float, but eps^2 in the refit is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "contract", name, "--eps", "1e300")
    assert code == 2
    assert out.startswith("# qsetalg contract |") and len(out.splitlines()) == 1
    assert err == "error: the float refit overflows at eps=1e+300\n"


@pytest.mark.parametrize("eps", ["1e-200", "1e-15", "1e-8", "1e15", "1e200"])
@pytest.mark.parametrize("name", ["so21", "so4", "yang-4-2"])
def test_the_float_refit_passes_or_refuses_never_fails(capsys, name, eps):
    # so21's weights spread by 1/2, so at 1e-8 its scaled basis has condition
    # number 1e4 and the refit resolves it; the others spread by 1, and so4's
    # commutators overflow at 1e200 before the solve
    code, out, err = run(capsys, "contract", name, "--eps", eps)
    if (name, eps) == ("so21", "1e-8"):
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith("(PASS <= 1e-9)")
        return
    assert code == 2
    assert out.startswith("# qsetalg contract |") and len(out.splitlines()) == 1
    if (name, eps) == ("so4", "1e200"):
        assert err == "error: the float refit overflows at eps=1e+200\n"
    else:
        assert err.startswith(f"error: the float refit cannot resolve eps={float(eps):g}: condition number ")
        assert err.endswith(" > 4.5e+06\n") and len(err.splitlines()) == 1


def test_bad_weights_and_negative_eps(capsys):
    code, _, err = run(capsys, "contract", "so3", "--weights", "1/0,1,1")
    assert code == 2
    assert "bad weights" in err
    code, out, _ = run(capsys, "contract", "so21", "--eps=-1/100")
    assert code == 0
    assert "PASS" in out


def test_unknown_algebra_lists_every_name(capsys):
    code, _, err = run(capsys, "killing", "nosuch")
    assert code == 2
    assert err.strip().endswith(
        "available: h1, so21, so3, so4, toy, yang-3-3, yang-4-2, yang-5-1"
    )


LAZY_SYMPY = """
import sys
import qsetalg.cli, qsetalg.palev, qsetalg.verify
from qsetalg.cli import main
assert "sympy" not in sys.modules, "sympy loaded on import"
main(["structure", "so3"])
main(["palev", "exclusion", "--capacity", "5"])
assert "sympy" not in sys.modules, "sympy loaded by structure or exclusion"
assert main(["verify-all"]) == 0
assert "sympy" not in sys.modules, "sympy loaded by verify-all"
assert main(["--mode", "float", "verify-all"]) == 0
assert "sympy" not in sys.modules, "sympy loaded by verify-all in float mode"
main(["palev", "normal-order", "--system", "h1", "--word", "p,q,q"])
assert "sympy" not in sys.modules, "sympy loaded by normal-order"
"""


def test_sympy_loads_only_where_a_coefficient_is_built():
    # a fresh interpreter: this test process has long imported sympy
    src = str(Path(qsetalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", LAZY_SYMPY], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "p*q*q = (-2*I*hbar)*q + (1)*q*q*p"


IMPORT_GRAPH = """
import sys
from qsetalg.cli import main

net, mv_a, mv_b = sys.argv[1:4]


def loaded(*names):
    return [n for n in names if n in sys.modules]


assert not loaded("numpy", "qsetalg.qset"), "numpy or qset loaded on import"
main("sets decode 11".split())
assert not loaded("numpy", "qsetalg.qset", "dataclasses"), f"{loaded('numpy', 'qsetalg.qset', 'dataclasses')} loaded by sets decode 11"
for argv in (
    "palev deviation --capacity 9",
    "palev exclusion --capacity 30",
    "palev ladder",
    "palev normal-order",
):
    main(argv.split())
    assert not loaded("numpy", "qsetalg.qset"), f"{loaded('numpy', 'qsetalg.qset')} loaded by {argv}"
for argv in (
    "qset signature --rank 3",
    f"qset grassmann {mv_a} {mv_b}",
    f"qset clifford {mv_a} {mv_b} --rank 3 --metric hyperbolic",
    f"qset norm {mv_a} --rank 3",
):
    main(argv.split())
    assert not loaded("numpy"), f"numpy loaded by {argv}"
layers = ("qsetalg.verify", "qsetalg.vertexnet", "qsetalg.yang")
for argv in ("gamma 4 4", "palev carriers"):
    main(argv.split())
    assert not loaded(*layers), f"{loaded(*layers)} loaded by {argv}"
for argv in ("structure so3", "killing toy", "contract so3", "yang table", f"net eval {net}"):
    main(argv.split())
    assert not loaded("qsetalg.verify"), f"qsetalg.verify loaded by {argv}"
assert main(["verify-all"]) == 0
assert loaded("qsetalg.verify")
"""


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    src = str(Path(qsetalg.__file__).resolve().parents[1])
    net = str(Path(__file__).parent / "oracles" / "net_ring3.json")
    mvs = []
    for name, codes in (("a.json", (0, 3, 6, 15)), ("b.json", (1, 5, 10, 12))):
        path = tmp_path / name
        path.write_text(json.dumps(mv_to_json(sum((Multivector.blade(decode(c), c + 1) for c in codes), Multivector.zero()))))
        mvs.append(str(path))
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, net, *mvs],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr


def test_yang_choices_match_the_yang_tables(capsys):
    from qsetalg import cli, yang

    assert cli._YANG_PRESETS == tuple(sorted(yang.PRESETS))
    assert cli._FRAMES == tuple(sorted(yang.ACCUMULATION_PRESETS))
    with pytest.raises(SystemExit) as done:
        main(["yang", "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "--preset {3-3,4-2,5-1}" in out
    assert "--frame {feynman,penrose}" in out
    with pytest.raises(SystemExit) as done:
        main(["yang", "table", "--preset", "9-9"])
    assert done.value.code == 2
    assert "invalid choice: '9-9'" in capsys.readouterr().err


def test_contract_custom_weights(capsys):
    code, out, _ = run(
        capsys, "contract", "so3", "--weights", "1/2,1/2,1"
    )
    assert code == 0
    assert "limit classification: nilpotent" in out


def test_yang_commands(capsys):
    code, out, _ = run(capsys, "yang", "table", "--preset", "3-3")
    assert code == 0
    assert "mu signature (3, 1)" in out
    code, out, _ = run(capsys, "yang", "contract")
    assert code == 0
    assert out.count("PASS") == 5
    code, out, _ = run(capsys, "yang", "defect", "--capacity", "100")
    assert code == 0
    assert "worst defect: 1/200" in out
    code, _, err = run(capsys, "yang", "defect", "--capacity", "99")
    assert code == 2
    code, out, _ = run(capsys, "yang", "units")
    assert "action: N^-1*ebar*xbar" in out
    code, out, _ = run(
        capsys, "yang", "accumulate", "--frame", "feynman", "--steps", "2"
    )
    assert code == 0
    assert "t (square -1, unit i*lstep)" in out


@pytest.mark.parametrize("level", ["99", "-1", "5"])
def test_palev_deviation_checks_level_before_any_payload(capsys, level):
    code, out, err = run(
        capsys, "palev", "deviation", "--capacity", "4", "--level", level
    )
    assert code == 2
    assert out.splitlines() == [out.splitlines()[0]]
    assert out.startswith("# qsetalg palev |")
    assert "level must lie in 0..4" in err
    assert "Traceback" not in err


def test_palev_commands(capsys):
    code, out, _ = run(capsys, "palev", "deviation", "--capacity", "4")
    assert code == 0
    assert "level 1: deviation 1/2" in out
    code, out, _ = run(capsys, "palev", "ladder", "--capacity", "3")
    assert "1, 1/3, -1/3, -1" in out
    code, out, _ = run(capsys, "palev", "exclusion", "--capacity", "6")
    assert code == 0
    assert "|adag^6| = 720" in out
    assert "|adag^7| = 0" in out
    code, out, _ = run(
        capsys, "palev", "carriers", "--capacity", "4", "--preset", "spin21"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "palev", "normal-order", "--system", "h1", "--word", "p,q,q"
    )
    assert code == 0
    assert "q*q*p" in out
    code, _, err = run(
        capsys, "palev", "normal-order", "--system", "nosuch", "--word", "p,q"
    )
    assert code == 2
    assert err.splitlines() == ["error: unknown rewrite system 'nosuch'; available: h1, spin21, spin3"]
    # normal_order's own ValueError reaches the one error path unwrapped
    code, _, err = run(capsys, "palev", "normal-order", "--system", "h1", "--word", "p,zz")
    assert code == 2
    assert err.splitlines() == ["error: generator 'zz' unknown to system 'h1'"]



def test_palev_exclusion_past_int64(capsys):
    code, out, _ = run(capsys, "palev", "exclusion", "--capacity", "32")
    assert code == 0
    assert f"|adag^32| = {factorial(32)}" in out
    assert "|adag^33| = 0" in out


def test_net_commands(capsys, tmp_path):
    from qsetalg.vertexnet import GammaVertex, IotaNode, VertexNetwork

    g = GammaVertex(2, 1)
    trace = VertexNetwork(
        [g], edges=[((0, "dual"), (0, "spinor"))], open_legs=[(0, "vector")]
    )
    f = tmp_path / "trace.json"
    f.write_text(json.dumps(trace.to_json()))
    code, out, _ = run(capsys, "net", "eval", str(f))
    assert code == 0
    assert "[0, 0, 0]" in out
    code, out, _ = run(capsys, "net", "check", str(f))
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "net", "parity", str(f))
    assert code == 0

    bad = VertexNetwork(
        [IotaNode(2, 2)], edges=[], open_legs=[(0, "out"), (0, "in")]
    )
    f2 = tmp_path / "iota.json"
    f2.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "net", "parity", str(f2))
    assert code == 1
    assert "FLAG" in out
    code, _, err = run(capsys, "net", "eval", str(tmp_path / "missing.json"))
    assert code == 2


GAMMA_21 = {"kind": "gamma", "p": 2, "q": 1}


@pytest.mark.parametrize("what", ["eval", "check", "parity"])
@pytest.mark.parametrize(
    "blob, reason",
    [
        ([1, 2], "a network is a JSON object, not list"),
        ("x", "a network is a JSON object, not str"),
        ({"vertices": [5]}, "a vertex is a JSON object, not 5"),
        (
            {"vertices": [{"kind": "gamma", "p": 2, "q": 1}], "edges": [[[0, "dual"], [0, "spinor"]]],
             "open": [[0, "vector"], [0, "vector"]]},
            "slot (0, 'vector') declared open twice",
        ),
        ({"vertices": [{"kind": "gamma", "p": 1.5, "q": 1}]}, "vertex field 'p' is not an integer: 1.5"),
        ({"vertices": [{"kind": "gamma", "p": 2, "q": "1"}]}, "vertex field 'q' is not an integer: '1'"),
        ({"vertices": [{"kind": "gamma", "p": True, "q": 1}]}, "vertex field 'p' is not an integer: True"),
        ({"vertices": [{"kind": "iota", "m": 1, "rank": 2.0}]}, "vertex field 'rank' is not an integer: 2.0"),
        ({"vertices": [{"kind": "gamma", "p": 2}]}, "gamma vertex has no field 'q'"),
        ({"vertices": [{"kind": ["gamma"], "p": 2, "q": 1}]}, "unknown vertex kind ['gamma']"),
        ({"vertices": 3}, "network field 'vertices' is not a list: 3"),
        ({"vertices": [], "edges": {}}, "network field 'edges' is not a list: {}"),
        ({"vertices": [], "open": "0"}, "network field 'open' is not a list: '0'"),
        (
            {"vertices": [GAMMA_21], "edges": [[[0.9, "dual"], [0, "spinor"]]], "open": [[0.5, "vector"]]},
            "edge [[0.9, 'dual'], [0, 'spinor']]: [0.9, 'dual'] is not [integer vertex index, slot name]",
        ),
        (
            {"vertices": [GAMMA_21], "edges": [[[0, "dual"], [0, "spinor"]]], "open": [[0.5, "vector"]]},
            "open leg: [0.5, 'vector'] is not [integer vertex index, slot name]",
        ),
        (
            {"vertices": [GAMMA_21], "edges": [[["0", "dual"], [0, "spinor"]]], "open": [[0, "vector"]]},
            "edge [['0', 'dual'], [0, 'spinor']]: ['0', 'dual'] is not [integer vertex index, slot name]",
        ),
        (
            {"vertices": [GAMMA_21] * 2, "edges": [[[0, "dual"], [0, "spinor"]]], "open": [[0, "vector"], [True, "vector"]]},
            "open leg: [True, 'vector'] is not [integer vertex index, slot name]",
        ),
        (
            {"vertices": [GAMMA_21], "edges": [[[0, "dual"], [0, 2]]], "open": [[0, "vector"]]},
            "edge [[0, 'dual'], [0, 2]]: [0, 2] is not [integer vertex index, slot name]",
        ),
        ({"vertices": [GAMMA_21], "edges": [[0, 1]]}, "edge [0, 1]: 0 is not [integer vertex index, slot name]"),
        ({"vertices": [GAMMA_21], "edges": [[[0, "dual"]]]}, "edge [[0, 'dual']] is not two [vertex, slot] pairs"),
        ({"vertices": [GAMMA_21], "open": [5]}, "open leg: 5 is not [integer vertex index, slot name]"),
        ({"vertices": [GAMMA_21], "open": [[1, "vector"]]}, "slot (1, 'vector') names no vertex; the network has 1"),
        ({"vertices": [GAMMA_21], "edges": [[[0, "dual"], [-1, "spinor"]]]}, "slot (-1, 'spinor') names no vertex; the network has 1"),
        (
            {"vertices": [GAMMA_21], "edges": [[[0, "dual"], [0, "dual"]]], "open": [[0, "vector"], [0, "spinor"]]},
            "slot (0, 'dual') wired to itself",
        ),
        (
            {"vertices": [GAMMA_21], "edges": [[[0, "dual"], [0, "spinor"]]], "open": [[0, "nope"]]},
            "vertex 0 (gamma) has no slot 'nope'",
        ),
    ],
)
def test_net_bad_network_json_exits_two_with_one_error_line(capsys, tmp_path, what, blob, reason):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(blob))
    code, out, err = run(capsys, "net", what, str(f))
    assert code == 2
    assert err.splitlines() == [f"error: cannot load network: {reason}"]
    assert len(out.splitlines()) == 1  # the header only


def test_net_check_past_52_wires_exits_two(capsys, tmp_path):
    # a paired 64-vertex (2, 1) ring has 64 + 31 + 2 = 97 wires: both
    # contractions run, and the einsum oracle refuses
    edges = [[[i, "spinor"], [(i + 1) % 64, "dual"]] for i in range(64)]
    edges += [[[v, "vector"], [v + 1, "vector"]] for v in range(2, 64, 2)]
    blob = {"vertices": [{"kind": "gamma", "p": 2, "q": 1}] * 64, "edges": edges,
            "open": [[0, "vector"], [1, "vector"]]}
    f = tmp_path / "ring64.json"
    f.write_text(json.dumps(blob))
    code, out, err = run(capsys, "net", "check", str(f))
    assert code == 2
    assert err.splitlines() == ["error: too many distinct wires for einsum subscripts"]
    assert len(out.splitlines()) == 1  # the header only
    code, out, _ = run(capsys, "net", "eval", str(f))
    assert code == 0


def test_verify_all_passes_and_repeats_bytewise(capsys):
    code, out1, _ = run(capsys, "verify-all")
    assert code == 0
    code, out2, _ = run(capsys, "verify-all")
    assert out1 == out2
    assert "result: 13/13 checks passed" in out1


def test_verify_all_float_mode(capsys):
    code, out, _ = run(
        capsys, "--mode", "float", "--tolerance", "1e-9", "verify-all"
    )
    assert code == 0
    assert "mode=float" in out


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


def test_bad_config_is_usage_error(capsys):
    code, out, err = run(capsys, "--mode", "exact", "--tolerance", "-3", "verify-all")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: tolerance must be positive"]
    code, out, err = run(capsys, "--tolerance", "-3", "sets", "code", "{}")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: tolerance must be positive"]


def test_sets_code_prints_past_the_int_str_digit_limit(capsys):
    # 2**65536 has 19729 digits, past str()'s default limit of 4300
    want = Context(prec=20000).power(Decimal(2), 65536)
    code, out, _ = run(capsys, "sets", "code", "{{{{{{{}}}}}}}")
    assert code == 0
    assert Decimal(out.splitlines()[1]) == want
    code, out, _ = run(capsys, "sets", "info", "{{{{{{{}}}}}}}")
    assert code == 0
    digits, rest = out.splitlines()[1].removeprefix("code=").split(" ", 1)
    assert Decimal(digits) == want and len(digits) == 19729
    assert rest == "grade=1 rank=6"


def test_sets_past_the_code_size_limit_exit_two(capsys):
    code, _, err = run(capsys, "sets", "xor", "{{{{{{{{}}}}}}}}", "{}")
    assert code == 2
    assert "not representable" in err


def test_sets_decode_reads_back_what_code_prints(capsys):
    code, out, _ = run(capsys, "sets", "code", "{{{{{{{}}}}}}}")
    digits = out.splitlines()[1]
    assert code == 0 and len(digits) == 19729
    code, out, _ = run(capsys, "sets", "decode", digits)
    assert code == 0
    assert out.splitlines()[1] == "{{{{{{{}}}}}}}"


def test_sets_decode_refuses_codes_past_the_set_limit(capsys):
    from qsetalg import cli

    # more digits than 2**(2**24) - 1 has: refused before conversion
    code, out, err = run(capsys, "sets", "decode", "1" * (cli._MAX_CODE_DIGITS + 1))
    assert code == 2
    assert "passes the 16777216-bit set limit" in err
    assert len(out.splitlines()) == 1  # the header only
    code, _, err = run(capsys, "sets", "decode", "1" * 5000 + "x")
    assert code == 2
    assert "takes one integer" in err


def test_net_eval_refuses_gamma_vertices_past_p_plus_q_12(capsys, tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({
        "vertices": [{"kind": "gamma", "p": 7, "q": 6}],
        "edges": [[[0, "spinor"], [0, "dual"]]],
        "open": [[0, "vector"]],
    }))
    code, _, err = run(capsys, "net", "eval", str(f))
    assert code == 2
    assert "gamma vertex limited to p + q <= 12" in err


def test_net_eval_and_check_on_a_closed_network(capsys, tmp_path):
    # two (2, 1) vertices, no open legs: sum_m tr(g_m g_m) = dim * sum_m eta_m = 2
    f = tmp_path / "closed.json"
    f.write_text(json.dumps({
        "vertices": [{"kind": "gamma", "p": 2, "q": 1}] * 2,
        "edges": [
            [[0, "spinor"], [1, "dual"]],
            [[1, "spinor"], [0, "dual"]],
            [[0, "vector"], [1, "vector"]],
        ],
        "open": [],
    }))
    code, out, _ = run(capsys, "net", "eval", str(f))
    assert code == 0
    assert out.splitlines()[1:] == ["open legs: []", "2", "parity flags: 0"]
    code, out, _ = run(capsys, "net", "check", str(f))
    assert code == 0
    assert out.splitlines()[-1].endswith("PASS")


@pytest.mark.parametrize("what", ["eval", "check"])
def test_net_with_no_vertices_is_the_unit_scalar(capsys, tmp_path, what):
    f = tmp_path / "empty.json"
    f.write_text("{}")
    code, out, _ = run(capsys, "net", what, str(f))
    assert code == 0
    want = ["open legs: []", "1", "parity flags: 0"] if what == "eval" else [
        "contraction paths agree with dense einsum: PASS"]
    assert out.splitlines()[1:] == want


def test_net_check_passes_on_a_16_ring(capsys):
    # 25 wires: the oracle's unoptimised einsum loop did not finish here
    ring = os.path.join(os.path.dirname(__file__), "oracles", "net_ring16.json")
    code, out, _ = run(capsys, "net", "check", ring)
    assert code == 0
    assert out.splitlines()[-1].endswith("PASS")


def test_gamma_through_twelve_is_exact(capsys):
    code, out, _ = run(capsys, "gamma", "0", "12")
    assert code == 0
    assert out.splitlines()[1:] == [
        "signature=(0,12) dim=512 eta=[" + ", ".join(["-1"] * 12) + "]",
        "anticommutator defect=0",
        "entries in -1,0,1: True",
        "top element squares to +1",
    ]
