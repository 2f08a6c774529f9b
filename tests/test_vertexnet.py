import json
import random
from itertools import combinations
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fit_int64, python_product
from qsetalg import vertexnet
from qsetalg.cliff import build_gammas
from qsetalg.vertexnet import (
    GammaVertex,
    IotaNode,
    VertexNetwork,
    dense_oracle,
)


def test_gamma_vertex_entries_match_matrices():
    v = GammaVertex(2, 1)
    gs = build_gammas(2, 1)
    ent = vertexnet._entries(v.array)
    for m in range(3):
        g = np.asarray(gs.gamma(m + 1))
        for y2 in range(gs.dim):
            for y1 in range(gs.dim):
                want = int(g[y2, y1])
                got = ent.get((y2, m, y1), 0)
                assert got == want


def test_gamma_vertex_slots():
    v = GammaVertex(3, 1)
    assert dict(v.slots) == {"dual": (0, 4, "dual"), "vector": (1, 4, "vector"), "spinor": (2, 4, "spinor")}
    assert v.parity == 0
    with pytest.raises(ValueError):
        GammaVertex(0, 0)
    # p + q = 13 is one past build_gammas' limit
    with pytest.raises(ValueError, match="p \\+ q <= 12"):
        GammaVertex(7, 6)
    # a float or bool equal to a built signature is refused all the same,
    # and so is a string, before any arithmetic on it
    GammaVertex(2, 1), GammaVertex(1, 1)
    for p, q in [(2.0, 1), (True, 1), (1, True), ("1", 0), (1, None), (np.int64(2), 1)]:
        with pytest.raises(ValueError, match="integers"):
            GammaVertex(p, q)


def test_iota_node_entries_are_a_grade_selector():
    node = IotaNode(1, 2)
    # two generators at rank 2: the grade-1 labels are codes 1 and 2
    assert dict(node.slots) == {"out": (0, 4, "monad-out"), "in": (1, 2, "blade-in")}
    ent = vertexnet._entries(node.array)
    assert ent == {(1, 0): 1, (2, 1): 1}


def test_iota_node_dims_follow_binomials():
    node = IotaNode(2, 3)
    assert node.slots["in"][1] == 6   # C(4, 2)
    assert node.slots["out"][1] == 16
    with pytest.raises(ValueError):
        IotaNode(5, 3)
    with pytest.raises(ValueError):
        IotaNode(1, 4)
    # True and 1.0 equal valid fields: they must not construct and write
    # `true` or `1.0` into to_json()
    for m, rank in [(1, True), (True, 2), (1.0, 2), (1, 2.0), ("1", 2), (1, np.int64(2))]:
        with pytest.raises(ValueError, match="grade and rank must be integers"):
            IotaNode(m, rank)


def test_network_rejects_incompatible_wiring():
    g = GammaVertex(2, 1)
    with pytest.raises(ValueError):
        VertexNetwork(
            [g],
            edges=[((0, "vector"), (0, "spinor"))],
            open_legs=[(0, "dual")],
        )


def test_network_rejects_dimension_mismatch():
    a = GammaVertex(2, 1)  # spinor dim 2
    b = GammaVertex(4, 4)  # dual dim 16
    with pytest.raises(ValueError):
        VertexNetwork(
            [a, b],
            edges=[((0, "spinor"), (1, "dual"))],
            open_legs=[
                (0, "dual"), (0, "vector"),
                (1, "vector"), (1, "spinor"),
            ],
        )


def test_network_requires_every_slot_exactly_once():
    g = GammaVertex(2, 1)
    with pytest.raises(ValueError):
        VertexNetwork([g], edges=[], open_legs=[(0, "vector")])
    with pytest.raises(ValueError, match="declared open twice"):
        VertexNetwork(
            [g],
            edges=[((0, "dual"), (0, "spinor"))],
            open_legs=[(0, "vector"), (0, "vector")],
        )
    with pytest.raises(ValueError, match="both wired and open"):
        VertexNetwork(
            [g],
            edges=[((0, "dual"), (0, "spinor"))],
            open_legs=[(0, "vector"), (0, "dual")],
        )
    with pytest.raises(ValueError, match="edges join exactly two slots"):
        VertexNetwork([g], edges=[((0, "dual"),)], open_legs=[(0, "vector"), (0, "spinor")])
    with pytest.raises(ValueError, match="used twice"):
        VertexNetwork(
            [g, GammaVertex(2, 1)],
            edges=[((0, "spinor"), (1, "dual")), ((0, "spinor"), (0, "dual"))],
            open_legs=[(0, "vector"), (1, "vector"), (1, "spinor")],
        )


_G, _H = GammaVertex(2, 1), GammaVertex(4, 4)


@pytest.mark.parametrize("vertices, edges, open_legs, message", [
    ([_G], [((0, "dual"), (0, "dual"))], [(0, "vector"), (0, "spinor")], "slot (0, 'dual') wired to itself"),
    ([_G], [((0, "vector"), (0, "spinor"))], [(0, "dual")],
     "incompatible slot kinds 'vector' and 'spinor' on edge ((0, 'vector'), (0, 'spinor'))"),
    ([_G, _H], [((0, "vector"), (1, "vector"))], [(0, "dual"), (0, "spinor"), (1, "dual"), (1, "spinor")],
     "dimension mismatch on edge ((0, 'vector'), (1, 'vector')): 3 vs 8"),
    ([_G, _G], [((0, "spinor"), (1, "dual")), ((1, "spinor"), (1, "dual"))], [(0, "dual"), (0, "vector"), (1, "vector")],
     "slot (1, 'dual') used twice"),
    ([_G], [((0, "spin"), (0, "dual"))], [(0, "vector")], "vertex 0 (gamma) has no slot 'spin'"),
    ([_G], [((-1, "spinor"), (0, "dual"))], [(0, "vector")], "slot (-1, 'spinor') names no vertex; the network has 1"),
    ([_G], [((0, "spinor"), (0, "dual"))], [(2, "vector")], "slot (2, 'vector') names no vertex; the network has 1"),
])
def test_wiring_errors_name_the_slot_or_edge(vertices, edges, open_legs, message):
    with pytest.raises(ValueError) as err:
        VertexNetwork(vertices, edges, open_legs)
    assert str(err.value) == message


@pytest.mark.parametrize("index", [True, False, np.int64(1), 1.0])
def test_network_refuses_a_vertex_index_that_is_not_an_int(index):
    # a bool is an int subclass: True must not read as vertex 1
    g = GammaVertex(2, 1)
    with pytest.raises(ValueError, match="names no vertex"):
        VertexNetwork(
            [g, g],
            edges=[((index, "spinor"), (0, "dual")), ((0, "spinor"), (1, "dual"))],
            open_legs=[(0, "vector"), (1, "vector")],
        )


def test_parity_passes_pure_gamma_networks():
    g = GammaVertex(2, 1)
    net = VertexNetwork(
        [g], edges=[((0, "dual"), (0, "spinor"))], open_legs=[(0, "vector")]
    )
    rep = net.parity_check()
    assert rep.ok
    assert rep.flags == ()


def test_parity_flags_even_grade_selector():
    node = IotaNode(2, 2)
    net = VertexNetwork([node], edges=[], open_legs=[(0, "out"), (0, "in")])
    rep = net.parity_check()
    assert not rep.ok
    assert len(rep.flags) == 1
    assert "parity sum" in rep.flags[0].reason


def test_parity_flags_odd_grade_selector_differently():
    node = IotaNode(1, 2)
    net = VertexNetwork([node], edges=[], open_legs=[(0, "out"), (0, "in")])
    rep = net.parity_check()
    assert not rep.ok
    assert "rank" in rep.flags[0].reason


def test_single_gamma_trace_is_zero():
    net = VertexNetwork(
        [GammaVertex(2, 1)],
        edges=[((0, "dual"), (0, "spinor"))],
        open_legs=[(0, "vector")],
    )
    arr = net.contract()
    assert arr.shape == (3,)
    assert np.array_equal(arr, np.zeros(3, dtype=arr.dtype))


def test_gamma_loop_recovers_the_direction_metric():
    g = GammaVertex(2, 1)
    net = VertexNetwork(
        [g, GammaVertex(2, 1)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(0, "vector"), (1, "vector")],
    )
    arr = net.contract()
    gs = build_gammas(2, 1)
    want = np.array(
        [[gs.dim * (gs.eta_entry(m + 1) if m == n else 0) for n in range(3)]
         for m in range(3)]
    )
    # tr(g_m g_n) = dim * eta_m delta_mn
    assert np.array_equal(arr, want)


def test_sparse_and_dense_paths_agree_with_einsum():
    g1 = GammaVertex(2, 2)
    g2 = GammaVertex(2, 2)
    net = VertexNetwork(
        [g1, g2],
        edges=[((0, "spinor"), (1, "dual")), ((0, "vector"), (1, "vector"))],
        open_legs=[(0, "dual"), (1, "spinor")],
    )
    dense = net.contract(dense_cutoff=10 ** 9)
    sparse = net.contract(dense_cutoff=0)
    oracle = dense_oracle(net)
    assert np.array_equal(dense, sparse)
    assert np.allclose(dense.astype(float), oracle)


def test_grade_selector_chain_contracts():
    lift = IotaNode(1, 2)    # blades of 2 generators -> monad space dim 4
    lift2 = IotaNode(1, 3)   # blades of 4 generators -> monad space dim 16
    net = VertexNetwork(
        [lift, lift2],
        edges=[((0, "out"), (1, "in"))],
        open_legs=[(0, "in"), (1, "out")],
    )
    arr = net.contract()
    assert arr.shape[0] * arr.shape[1] == 32
    oracle = dense_oracle(net)
    assert np.allclose(arr.astype(float), oracle)
    # one unit entry per source generator, nothing else
    assert sorted(arr.ravel().tolist()) == [0] * 30 + [1, 1]


def test_empty_network_is_the_unit_scalar():
    net = VertexNetwork([], edges=[], open_legs=[])
    arr = net.contract()
    assert arr.shape == ()
    assert arr == 1


def test_json_round_trip(tmp_path):
    g = GammaVertex(2, 1)
    net = VertexNetwork(
        [g, IotaNode(1, 2)],
        edges=[],
        open_legs=[
            (0, "dual"), (0, "vector"), (0, "spinor"),
            (1, "out"), (1, "in"),
        ],
    )
    blob = net.to_json()
    again = VertexNetwork.from_json(blob)
    assert again.open_legs == net.open_legs
    path = tmp_path / "net.json"
    path.write_text(json.dumps(blob))
    loaded = VertexNetwork.load(str(path))
    assert loaded.to_json() == blob


# -- planner -----------------------------------------------------------------


def _all_pairs_reduce(legs, keys, values, dense_cutoff, memo, log):
    """The greedy as a full rescan per step: merge the pair with the
    smallest (not sharing a wire, merged size), first pair on ties, and
    append the result after the untouched tensors. It ignores `memo`,
    computes every merge with the module's merge routines, given shared
    positions it works out the way the planner does, and works out and logs
    the legs of each itself, so it stays an independent reference."""
    tensors = [(l, values[k]) for l, k in zip(legs, keys)]
    while len(tensors) > 1:
        best = None
        wires = [set(l) for l, _ in tensors]
        sizes = [prod(v[0]) for _, v in tensors]
        for i, j in combinations(range(len(tensors)), 2):
            if wires[i].isdisjoint(wires[j]):
                key, shared = (True, sizes[i] * sizes[j]), ()  # an outer product
            else:
                (la, (da, *_)), lb = tensors[i], tensors[j][0]
                shared = tuple((x, lb.index(w)) for x, w in enumerate(la) if w in lb)
                key = (False, sizes[i] * sizes[j] // prod(da[x] ** 2 for x, _ in shared))
            if best is None or key < best[0]:
                best = (key, i, j, shared)
        (_, size), i, j, shared = best
        (la, va), (lb, vb) = tensors[i], tensors[j]
        log.append((la, lb))
        dense = max(prod(va[0]), prod(vb[0]), size) <= dense_cutoff
        dims, data = (vertexnet._merge_dense if dense else vertexnet._merge_sparse)(va, vb, shared)
        out = tuple([w for w in la if w not in lb] + [w for w in lb if w not in la])
        tensors = [t for k, t in enumerate(tensors) if k not in (i, j)] + [(out, (dims, data, vertexnet._peak(data)))]
    values.append(tensors[0][1])
    return tensors[0][0], len(values) - 1


def _merge_log(monkeypatch, net, reference=False):
    """(result, [(legs, legs) of every plan step]) of net.contract(), by
    the planner or by the all-pairs reference in its place. Every step of
    the planner, a memo hit or not, computes its result's legs in _kept."""
    log = []
    with monkeypatch.context() as m:
        if reference:
            m.setattr(vertexnet, "_reduce", lambda *args: _all_pairs_reduce(*args, log))
        else:
            real = vertexnet._kept
            m.setattr(vertexnet, "_kept", lambda la, lb: log.append((la, lb)) or real(la, lb))
        return net.contract(), log


def _ring(size, p, q, rng):
    """Gamma ring (spinor i -> dual i+1): two or three vector slots stay
    open, in a shuffled order, and the others pair up on neighbouring
    vertices at random places around the ring."""
    n_open = 2 if size % 2 == 0 else 3
    tokens = ["open"] * n_open + ["pair"] * ((size - n_open) // 2)
    rng.shuffle(tokens)
    open_legs, edges, v = [], [], 0
    for t in tokens:
        if t == "open":
            open_legs.append((v, "vector"))
            v += 1
        else:
            edges.append(((v, "vector"), (v + 1, "vector")))
            v += 2
    rng.shuffle(open_legs)
    edges += [((i, "spinor"), ((i + 1) % size, "dual")) for i in range(size)]
    return VertexNetwork([GammaVertex(p, q) for _ in range(size)], edges, open_legs)


def _paired_ring(size, p, q):
    # vertices 0 and 1 keep their vector legs open; 2-3, 4-5, ... pair up
    edges = [((i, "spinor"), ((i + 1) % size, "dual")) for i in range(size)]
    edges += [((v, "vector"), (v + 1, "vector")) for v in range(2, size, 2)]
    return VertexNetwork(
        [GammaVertex(p, q) for _ in range(size)], edges, [(0, "vector"), (1, "vector")]
    )


def _paired_ring_value(size, p, q):
    # each pair collapses to sum_m g_m g_m = (p - q) I: (p - q)^pairs tr(g_a g_b)
    gs = build_gammas(p, q)
    scale = (p - q) ** ((size - 2) // 2) * gs.dim
    return [[scale * gs.eta[a] if a == b else 0 for b in range(p + q)] for a in range(p + q)]


def _crossed_ring(size, rng):
    """(2, 1) ring whose vector slots pair up between random vertices, so
    merged tensors gain several wire neighbours."""
    slots = list(range(size))
    rng.shuffle(slots)
    edges = [((i, "spinor"), ((i + 1) % size, "dual")) for i in range(size)]
    edges += [((a, "vector"), (b, "vector")) for a, b in zip(slots[2::2], slots[3::2])]
    open_legs = [(slots[0], "vector"), (slots[1], "vector")]
    return VertexNetwork([GammaVertex(2, 1) for _ in range(size)], edges, open_legs)


def _iota_chain(nodes):
    edges = [((i, "out"), (i + 1, "in")) for i in range(len(nodes) - 1)]
    return VertexNetwork(
        [IotaNode(m, r) for m, r in nodes],
        edges,
        [(0, "in"), (len(nodes) - 1, "out")],
    )


def _self_loop_network():
    # vertex 0 traces its own spinor line; 1 and 2 form a loop
    return VertexNetwork(
        [GammaVertex(3, 1) for _ in range(3)],
        edges=[
            ((0, "spinor"), (0, "dual")),
            ((1, "spinor"), (2, "dual")),
            ((2, "spinor"), (1, "dual")),
        ],
        open_legs=[(1, "vector"), (0, "vector"), (2, "vector")],
    )


def _two_component_network():
    return VertexNetwork(
        [GammaVertex(2, 1) for _ in range(5)],
        edges=[
            ((0, "spinor"), (1, "dual")),
            ((1, "spinor"), (0, "dual")),
            ((2, "spinor"), (3, "dual")),
            ((3, "spinor"), (4, "dual")),
            ((4, "spinor"), (2, "dual")),
            ((2, "vector"), (4, "vector")),
        ],
        open_legs=[(3, "vector"), (0, "vector"), (1, "vector")],
    )


def _mixed_signature_network():
    # a (2, 1) loop and a (3, 1) loop: their merges share one pattern, but
    # not their vertex arrays, so the memo must tell them apart
    loops = [((v, "spinor"), (v + 1, "dual")) for v in (0, 2)]
    loops += [((v + 1, "spinor"), (v, "dual")) for v in (0, 2)]
    return VertexNetwork(
        [GammaVertex(p, q) for p, q in ((2, 1), (2, 1), (3, 1), (3, 1))],
        edges=loops,
        open_legs=[(v, "vector") for v in range(4)],
    )


def _closed_pair(p, q):
    # two (p, q) vertices wired spinor -> dual both ways and vector to
    # vector: no open legs, and one merge shares every wire
    return VertexNetwork(
        [GammaVertex(p, q), GammaVertex(p, q)],
        edges=[
            ((0, "spinor"), (1, "dual")),
            ((1, "spinor"), (0, "dual")),
            ((0, "vector"), (1, "vector")),
        ],
        open_legs=[],
    )


def _merge_shape_cases():
    """Networks whose merges take each shape: no shared wire (an outer
    product), every wire shared (a 0-d result), and shared wires in
    different leg orders on the two operands."""
    outer = VertexNetwork(
        [GammaVertex(2, 1), IotaNode(1, 2)],
        edges=[],
        open_legs=[(1, "in"), (0, "vector"), (1, "out"), (0, "spinor"), (0, "dual")],
    )
    # legs (x, a, y) and (y, b, x): the shared x and y come in opposite
    # orders, and each operand keeps its middle leg
    swapped = VertexNetwork(
        [GammaVertex(3, 1), GammaVertex(3, 1)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(1, "vector"), (0, "vector")],
    )
    return [("outer-product", outer), ("all-shared", _closed_pair(2, 1)), ("swapped-shared", swapped)]


def _oracle_cases():
    oracles = Path(__file__).parent / "oracles"
    return [(path.stem, VertexNetwork.load(str(path))) for path in sorted(oracles.glob("net_*.json"))]


def _planner_cases():
    rng = random.Random(20140915)
    cases = []
    for size in (2, 3, 5, 8, 13, 24, 33, 64):
        p, q = rng.choice([(2, 1), (3, 1), (2, 2), (4, 1), (2, 4)])
        cases.append((f"ring{size}-{p}{q}", _ring(size, p, q, rng)))
    cases.append(("crossed-ring", _crossed_ring(12, rng)))
    # the slowest bench rings: |p - q| <= 1 stays int64, |p - q| >= 2 merges
    # past 2^63 on Python ints
    for p, q in ((3, 2), (4, 1)):
        cases.append((f"ring128-{p}{q}", _ring(128, p, q, rng)))
    for nodes in ([(0, 1), (1, 2)], [(1, 1), (1, 2), (3, 3)], [(2, 2), (1, 3)]):
        cases.append((f"iota{nodes}", _iota_chain(nodes)))
    cases.append(("self-loop", _self_loop_network()))
    cases.append(("two-component", _two_component_network()))
    cases.append(("mixed-signatures", _mixed_signature_network()))
    return cases + _merge_shape_cases()


@pytest.mark.parametrize(
    "net", [pytest.param(n, id=k) for k, n in _planner_cases() + _oracle_cases()]
)
def test_planner_merges_like_the_all_pairs_greedy(monkeypatch, net):
    got, plan = _merge_log(monkeypatch, net)
    want, ref_plan = _merge_log(monkeypatch, net, reference=True)
    # one step per merge: a network of V vertices reduces in V - 1
    assert len(plan) == len(net.vertices) - 1
    assert plan == ref_plan
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("net", [pytest.param(n, id=k) for k, n in _merge_shape_cases()])
def test_merge_shapes_match_the_oracle(monkeypatch, net):
    paths = _merge_paths(monkeypatch)
    oracle = dense_oracle(net)
    for cutoff, path in ((0, "_merge_sparse"), (10**9, "_merge_dense")):
        paths.clear()
        arr = net.contract(dense_cutoff=cutoff)
        assert set(paths) == {path}
        assert arr.shape == np.shape(oracle) and arr.dtype == np.int64
        assert np.array_equal(arr.astype(float), oracle)


@pytest.mark.parametrize("p, q, want", [(2, 1, 2), (1, 0, 1), (4, 4, 0)])
def test_closed_networks_contract_to_a_0d_array(p, q, want):
    # sum_m tr(g_m g_m) = dim * sum_m eta_m
    net = _closed_pair(p, q)
    for cutoff in (0, 1 << 14, 10**9):
        arr = net.contract(dense_cutoff=cutoff)
        assert isinstance(arr, np.ndarray) and arr.shape == ()
        assert arr.dtype == np.int64 and arr == want
        assert arr.flags.writeable
    assert dense_oracle(net) == want


def test_planner_cost_is_linear_in_the_vertex_count(monkeypatch):
    # a full rescan per step would size ~V^3/6 pairs (1.8e8 here); the
    # planner sizes each pair it pushes once and works out legs only for
    # the V - 1 pairs it merges
    size = 1024
    kept, initial, pushed = [], [], []
    real_kept, real_heapify, real_push = vertexnet._kept, vertexnet.heapify, vertexnet.heappush
    monkeypatch.setattr(vertexnet, "_kept", lambda la, lb: kept.append(1) or real_kept(la, lb))
    monkeypatch.setattr(vertexnet, "heapify", lambda heap: initial.append(len(heap)) or real_heapify(heap))
    monkeypatch.setattr(vertexnet, "heappush", lambda heap, item: pushed.append(1) or real_push(heap, item))
    arr = _paired_ring(size, 2, 1).contract()
    # (p - q)^pairs * tr(g_a g_b) = 1 * dim * eta_a delta_ab
    assert arr.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, -2]]
    assert len(kept) == size - 1
    # one entry per neighbouring pair of the ring, then at most two new
    # neighbours per merge
    assert initial == [size] and len(pushed) <= 2 * (size - 1)


def test_a_long_ring_reads_each_peak_once_and_heaps_plain_ints(monkeypatch):
    # each stored value's max |entry| is read once, as it is made, and the
    # int64 bound of each distinct merge reads its operands' peaks from there;
    # the planner's heap holds ints, and its stale entries cost one pop each
    peaks, products, pushed, popped = [], [], [], []
    real_peak, real_matmul = vertexnet._peak, vertexnet.int_matmul
    real_push, real_pop = vertexnet.heappush, vertexnet.heappop
    monkeypatch.setattr(vertexnet, "_peak", lambda data: peaks.append(1) or real_peak(data))
    monkeypatch.setattr(vertexnet, "int_matmul", lambda a, b, p: products.append(p) or real_matmul(a, b, p))
    monkeypatch.setattr(vertexnet, "heappush", lambda heap, item: pushed.append(item) or real_push(heap, item))
    monkeypatch.setattr(vertexnet, "heappop", lambda heap: popped.append(1) or real_pop(heap))
    assert _paired_ring(1024, 2, 1).contract().tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, -2]]
    # one vertex value and 19 distinct merges: one peak each, and none
    # read inside int_matmul
    assert len(products) == 19 and None not in products
    assert len(peaks) == 1 + 19
    # 1023 merges, 1024 initial entries and 2043 pushed: 1011 pops drop a
    # stale entry
    assert all(type(item) is int for item in pushed)
    assert (len(pushed), len(popped)) == (2043, 2034)


def test_vertices_share_no_mutable_state():
    a, b = GammaVertex(3, 1), GammaVertex(3, 1)
    before = vertexnet._entries(b.array)
    with pytest.raises(TypeError):
        a.gamma_set.gammas[0][0][0] = 7
    with pytest.raises(TypeError):
        a.gamma_set.points[0][0] = 7
    with pytest.raises(TypeError):
        a.gamma_set.points[0] = a.gamma_set.points[1]
    assert vertexnet._entries(b.array) == before
    assert np.array_equal(b.gamma_set.gammas[0], build_gammas(3, 1).gammas[0])
    # the slot table is one shared read-only view
    assert a.slots is b.slots
    with pytest.raises(TypeError):
        a.slots["dual"] = (0, 7, "dual")
    with pytest.raises(TypeError):
        del a.slots["dual"]
    assert b.slots["dual"] == (0, 4, "dual")
    node = IotaNode(1, 2)
    with pytest.raises(TypeError):
        node.slots["in"] = (1, 3, "blade-in")
    assert IotaNode(1, 2).slots["in"] == (1, 2, "blade-in")


def test_a_network_contracts_the_same_twice():
    # the wiring is numbered once, as the network is built, and its
    # vertices, edges and open legs are tuples, so it cannot go stale
    net = _self_loop_network()
    first = net.contract()
    assert np.array_equal(first, net.contract()) and first.dtype == net.contract().dtype
    assert np.array_equal(net.contract(dense_cutoff=0), first)
    assert isinstance(net.vertices, tuple) and isinstance(net.edges, tuple)
    assert net.open_legs == ((1, "vector"), (0, "vector"), (2, "vector"))


# -- int_matmul, the merge kernel ----------------------------------------------


def _tier(seen):
    """The dtype of the single np.matmul call recorded by the spy."""
    (dtypes,) = seen
    assert len(set(dtypes)) == 1
    return dtypes[0]


# (a, b, tier): k * max|a| * max|b| just under and at 2^53, past which float64
# no longer holds every integer, and at the int64 edge 2^62, with entries
# chosen so the exact product is odd and near the bound
_EDGES = (
    # 6361 * 69431 * 20394401 == 2^53 - 1, and so is the product
    (np.full((1, 6361), 69431), np.full((6361, 1), 20394401), np.int64),
    # 2 * 2^26 * 2^26 == 2^53; the product is 2^53 - 2^27 + 1
    (np.array([[2 ** 26, 2 ** 26 - 1]]), np.array([[2 ** 26], [2 ** 26 - 1]]), np.int64),
    # (2^31 - 1) * (2^31 + 1) == 2^62 - 1, and so is the product
    (np.array([[2 ** 31 - 1]]), np.array([[2 ** 31 + 1]]), np.int64),
    # 2 * 2^30 * 2^31 == 2^62; the product is 2^62 - 3 * 2^30 + 1
    (np.array([[2 ** 30, 2 ** 30 - 1]]), np.array([[2 ** 31], [2 ** 31 - 1]]), object),
)


@pytest.mark.parametrize("a, b, tier", _EDGES)
def test_int_matmul_tier_edges(numpy_dtypes, a, b, tier):
    bound = a.shape[-1] * vertexnet._peak(a) * vertexnet._peak(b)
    assert bound in (2 ** 53 - 1, 2 ** 53, 2 ** 62 - 1, 2 ** 62)
    want = python_product(a, b)
    assert want[0, 0] % 2 == 1 and bound - want[0, 0] < 2 ** 33
    got = vertexnet.int_matmul(a, b)
    assert _tier(numpy_dtypes["matmul"]) == tier
    assert got.dtype == tier
    assert got.tolist() == want.tolist()
    assert vertexnet.int_matmul(-a, b).tolist() == (-want).tolist()


def test_int_matmul_matches_python_ints_on_seeded_stacks():
    rng = random.Random(20247)

    def rand(shape, bits):
        vals = [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(prod(shape))]
        return np.array(vals, dtype=np.int64 if bits < 63 else object).reshape(shape)

    for bits in (3, 20, 26, 31, 40, 70):
        for sa, sb in (((5, 7), (7, 4)), ((3, 6, 6), (3, 6, 6)), ((2, 1, 4, 5), (3, 5, 2))):
            a, b = rand(sa, bits), rand(sb, bits)
            got = vertexnet.int_matmul(a, b)
            assert got.shape == np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1])
            assert got.tolist() == python_product(a, b).tolist()


@pytest.mark.parametrize(
    "sa, sb", [((4,), (4,)), ((4,), (4, 3)), ((2, 4), (4,)), ((0, 3), (3, 2)), ((2, 0), (0, 3)), ((3, 2, 4), (4, 5))]
)
def test_int_matmul_follows_matmul_shapes(sa, sb):
    a = np.arange(1, prod(sa) + 1, dtype=np.int64).reshape(sa) - 2
    b = np.arange(prod(sb), dtype=np.int64).reshape(sb) * 3 - 5
    got = vertexnet.int_matmul(a, b)
    want = python_product(a, b)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    huge = vertexnet.int_matmul(a * 2 ** 40, b * 2 ** 40)
    assert np.array_equal(huge, want * 2 ** 80)


def test_int_matmul_takes_object_input_under_the_bound(numpy_dtypes):
    a = np.array([[3, -5], [2 ** 20, 7]], dtype=object)
    b = np.array([[1, 2 ** 21], [-4, 0]], dtype=object)
    got = vertexnet.int_matmul(a, b)
    assert _tier(numpy_dtypes["matmul"]) == np.int64
    assert got.dtype == np.int64
    assert got.tolist() == python_product(a, b).tolist()


@settings(max_examples=200)
@given(st.data())
def test_int_matmul_property(data):
    """int_matmul equals the product on Python ints, for entries up to 2^12,
    2^31, 2^62 and 2^80, int64 wherever they fit, as the package passes
    them."""
    top = data.draw(st.sampled_from([2 ** 12, 2 ** 31, 2 ** 62, 2 ** 80]), label="top")
    # a plain product, a stack multiplied pairwise, or the commutator table
    # stack[:, None] @ stack[None]
    kind = data.draw(st.sampled_from(["plain", "stacked", "table"]), label="kind")
    n, d, k = (data.draw(st.integers(1, 3), label=x) for x in "ndk")

    def array(shape):
        flat = data.draw(st.lists(st.integers(-top, top), min_size=prod(shape), max_size=prod(shape)))
        return fit_int64(np.array(flat, dtype=object).reshape(shape))

    if kind == "table":
        stack = array((n, d, d))
        a, b = stack[:, None], stack[None]
    else:
        lead = (n,) if kind == "stacked" else ()
        a, b = array(lead + (d, k)), array(lead + (k, d))
    got = vertexnet.int_matmul(a, b)
    assert got.dtype in (np.int64, object)
    assert got.tolist() == python_product(a, b).tolist()


def _float_free_cases():
    nets = [
        pytest.param(VertexNetwork.load(str(path)), id=path.stem)
        for path in sorted((Path(__file__).parent / "oracles").glob("net_*.json"))
    ]
    rng = random.Random(20251)
    return nets + [pytest.param(_ring(128, p, q, rng), id=f"ring128-{p}{q}") for p, q in ((4, 4), (4, 1))]


@pytest.mark.parametrize("net", _float_free_cases())
def test_contraction_never_hands_numpy_a_float(numpy_dtypes, net):
    # exact means integers: every merge and self-trace, on arrays within the
    # default cutoff and on arrays throughout, keeps integer operands
    assert np.array_equal(net.contract(), net.contract(dense_cutoff=10**9))
    seen = numpy_dtypes["matmul"] + numpy_dtypes["einsum"]
    assert seen or len(net.vertices) < 2
    assert not [dt for call in seen for dt in call if np.issubdtype(dt, np.inexact)]


# -- exactness past int64 ------------------------------------------------------


@pytest.mark.parametrize("p, q", [(3, 1), (4, 2)])
def test_long_ring_past_int64_is_exact(numpy_dtypes, p, q):
    arr = _paired_ring(128, p, q).contract()
    want = _paired_ring_value(128, p, q)
    assert abs(want[0][0]) >= 1 << 63
    # the fallback ran: the result keeps Python ints instead of wrapping
    assert arr.dtype == object
    assert arr.tolist() == want
    if (p, q) == (3, 1):
        # 4x4 merges go dense; their operands pass int64 and matmul ran on objects
        assert [object, object] in numpy_dtypes["matmul"]


def test_dense_merge_past_int64_falls_back(numpy_dtypes):
    big = 1 << 40
    # legs (0, 1) and (1, 2): wire 1 sits at position 1 of a and 0 of b
    a = ((2, 2), {(0, 0): big, (0, 1): big, (1, 1): -big}, big)
    b = ((2, 2), {(0, 0): big, (1, 0): big, (1, 1): big}, big)
    dense = vertexnet._merge_dense(a, b, ((1, 0),))
    sparse = vertexnet._merge_sparse(a, b, ((1, 0),))
    assert numpy_dtypes["matmul"] == [[object, object]]
    assert dense[0] == sparse[0] == (2, 2)
    assert vertexnet._entries(dense[1]) == sparse[1] == {
        (0, 0): 2 * big * big, (0, 1): big * big, (1, 0): -big * big, (1, 1): -big * big,
    }
    assert vertexnet._to_dense((0, 2), dense, (0, 2)).dtype == object


def test_results_that_fit_stay_int64():
    arr = vertexnet._to_dense((0,), ((2,), {(0,): (1 << 63) - 1, (1,): -(1 << 63)}), (0,))
    assert arr.dtype == np.int64
    assert arr.tolist() == [(1 << 63) - 1, -(1 << 63)]
    assert vertexnet._to_dense((0,), ((2,), {(0,): 1 << 63}), (0,)).dtype == object


def test_output_legs_must_match_the_remaining_legs():
    value = ((2, 1), np.ones((2, 1), dtype=np.int64))
    for order in ((0,), (0, 2), (0, 1, 1)):
        with pytest.raises(ValueError, match="output legs disagree"):
            vertexnet._to_dense((0, 1), value, order)
    assert vertexnet._to_dense((0, 1), value, (1, 0)).shape == (1, 2)


@pytest.mark.parametrize("edges, ok", [(2, True), (1, False)])
def test_dense_oracle_takes_at_most_52_wires(edges, ok):
    # eighteen (1, 0) vertices, every slot open but for `edges` spinor ->
    # dual edges: 54 - edges wires, all of dimension 1
    wired = [((i, "spinor"), (i + 1, "dual")) for i in range(edges)]
    ends = {end for e in wired for end in e}
    slots = [(v, s) for v in range(18) for s in ("dual", "vector", "spinor")]
    net = VertexNetwork([GammaVertex(1, 0) for _ in range(18)], wired, [s for s in slots if s not in ends])
    assert len(net.edges) + len(net.open_legs) == (52 if ok else 53)
    if ok:
        got = dense_oracle(net)
        assert got.shape == (1,) * 50 and got.item() == 1.0 == net.contract().item()
    else:
        with pytest.raises(ValueError, match="too many distinct wires for einsum subscripts"):
            dense_oracle(net)


# -- array and dict representations ---------------------------------------------


def _merge_paths(monkeypatch):
    """Names of the merge routines the contraction runs, in order."""
    seen = []
    for name in ("_merge_dense", "_merge_sparse"):
        real = getattr(vertexnet, name)

        def spy(va, vb, shared, real=real, name=name):
            seen.append(name)
            return real(va, vb, shared)

        monkeypatch.setattr(vertexnet, name, spy)
    return seen


@pytest.mark.parametrize("net", [pytest.param(n, id=k) for k, n in _planner_cases()])
def test_dict_and_array_paths_agree(monkeypatch, net):
    paths = _merge_paths(monkeypatch)
    dicts = net.contract(dense_cutoff=0)
    assert "_merge_dense" not in paths
    paths.clear()
    arrays = net.contract(dense_cutoff=10**9)
    assert "_merge_sparse" not in paths
    assert dicts.dtype == arrays.dtype == net.contract().dtype
    assert np.array_equal(dicts, arrays)


@pytest.mark.parametrize("p, q", [(4, 4), (2, 4), (4, 1)])
def test_long_rings_merge_arrays_only_at_the_default_cutoff(monkeypatch, p, q):
    paths = _merge_paths(monkeypatch)
    products = []
    real = vertexnet.int_matmul
    monkeypatch.setattr(vertexnet, "int_matmul", lambda a, b, peaks: products.append(1) or real(a, b, peaks))
    arr, plan = _merge_log(monkeypatch, _paired_ring(128, p, q))
    # all 127 plan steps run, and the memo computes the 13 distinct merges
    assert len(plan) == 127
    assert paths == ["_merge_dense"] * 13
    assert len(products) == 13  # one per distinct merge
    # (4, 4) sums to zero; (2, 4) and (4, 1) reach (-2)^63 * 8 and 3^63 * 4
    assert arr.dtype == (np.int64 if p == q else object)
    assert arr.tolist() == _paired_ring_value(128, p, q)


@pytest.mark.parametrize("net", [_paired_ring(24, 3, 1), _self_loop_network()])
def test_memoised_arrays_are_read_only(monkeypatch, net):
    made = []
    real = vertexnet._store

    def spy(memo, values, name, dims, data):
        made.append(data)
        return real(memo, values, name, dims, data)

    monkeypatch.setattr(vertexnet, "_store", spy)
    arr = net.contract()
    arrays = [data for data in made if not isinstance(data, dict)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    # the result is a fresh copy
    assert arr.flags.writeable


def test_sparse_vertices_are_converted_once_per_distinct_array(monkeypatch):
    net = VertexNetwork.load(str(Path(__file__).parent / "oracles" / "net_ring128.json"))
    calls = []
    real = vertexnet._entries
    monkeypatch.setattr(vertexnet, "_entries", lambda arr: calls.append(1) or real(arr))
    dicts = net.contract(dense_cutoff=0)
    distinct = len({id(v.array) for v in net.vertices})
    assert len(calls) == distinct < len(net.vertices)
    assert np.array_equal(dicts, net.contract(dense_cutoff=10**9))


def test_three_open_legs_merge_arrays_only_at_the_default_cutoff(monkeypatch):
    # two (16, 8, 16) vertices of a (4, 4) 3-ring merge to (16, 8, 8, 16):
    # 2^14 entries, within the default cutoff
    net = VertexNetwork(
        [GammaVertex(4, 4) for _ in range(3)],
        edges=[((i, "spinor"), ((i + 1) % 3, "dual")) for i in range(3)],
        open_legs=[(1, "vector"), (0, "vector"), (2, "vector")],
    )
    paths = _merge_paths(monkeypatch)
    arr = net.contract()
    assert paths == ["_merge_dense"] * 2
    dicts = net.contract(dense_cutoff=0)
    assert arr.dtype == dicts.dtype == np.int64
    assert np.array_equal(arr, dicts)


def test_object_fallback_trips_inside_the_array_path(monkeypatch, numpy_dtypes):
    # (4, 1): 3^63 * 4 passes 2^63 well inside the ring, on arrays
    paths = _merge_paths(monkeypatch)
    arr = _paired_ring(128, 4, 1).contract()
    assert set(paths) == {"_merge_dense"}
    # ring merges reach np.matmul only, and past int64 on Python ints
    assert numpy_dtypes["einsum"] == []
    assert [object, object] in numpy_dtypes["matmul"]
    assert arr.dtype == object
    want = _paired_ring_value(128, 4, 1)
    assert abs(want[0][0]) >= 1 << 63
    assert arr.tolist() == want


def test_array_results_that_fit_come_back_int64():
    # an object array (as int_matmul returns past its bound) whose entries fit
    big = np.array([(1 << 63) - 1, -(1 << 63)], dtype=object)
    arr = vertexnet._to_dense((0,), ((2,), big), (0,))
    assert arr.dtype == np.int64
    assert arr.tolist() == [(1 << 63) - 1, -(1 << 63)]
    over = np.array([1 << 63, 0], dtype=object)
    assert vertexnet._to_dense((0,), ((2,), over), (0,)).dtype == object
    # a single vertex hands back a fresh, writeable copy of its cached array
    net = VertexNetwork(
        [GammaVertex(2, 1)], edges=[], open_legs=[(0, "dual"), (0, "vector"), (0, "spinor")]
    )
    arr = net.contract()
    assert arr.dtype == np.int64 and arr.flags.writeable
    arr[...] = 0
    assert net.vertices[0].array.any()


@pytest.mark.parametrize("p, q", [(0, 12), (6, 6), (12, 0)])
def test_two_vertex_loops_up_to_p_plus_q_12(monkeypatch, p, q):
    paths = _merge_paths(monkeypatch)
    net = VertexNetwork(
        [GammaVertex(p, q), GammaVertex(p, q)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(0, "vector"), (1, "vector")],
    )
    arr = net.contract()
    # each vertex is 64 x 12 x 64, past the default cutoff: it starts as a dict
    assert paths == ["_merge_sparse"]
    gs = build_gammas(p, q)
    assert arr.tolist() == [
        [gs.dim * gs.eta[a] if a == b else 0 for b in range(12)] for a in range(12)
    ]


def test_merges_past_52_wires_stay_arrays(monkeypatch):
    # twenty (1, 0) vertices with every slot open: 60 legs of dimension 1,
    # more than einsum has letters for; a merge is a matrix product and
    # has no such limit
    paths = _merge_paths(monkeypatch)
    legs = [(v, s) for v in range(20) for s in ("dual", "vector", "spinor")]
    arr = VertexNetwork([GammaVertex(1, 0) for _ in range(20)], [], legs).contract()
    assert paths and "_merge_sparse" not in paths
    assert arr.shape == (1,) * 60
    assert arr.item() == 1


# seven small signatures: spinor dimensions 1, 2 and 4, vector dimensions 1-4
_SMALL_SIGNATURES = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (3, 1)]
_MAX_OPEN = 6


@st.composite
def gamma_networks(draw):
    """Up to seven gamma vertices, any pairing of compatible slots of equal
    dimension (a vertex's spinor on its own dual included), and the slots
    left unpaired, at most _MAX_OPEN, open in a drawn order."""
    verts = [GammaVertex(*s) for s in draw(st.lists(st.sampled_from(_SMALL_SIGNATURES), min_size=1, max_size=7))]

    def groups(slot):
        by_dim: dict = {}
        for i, v in enumerate(verts):
            by_dim.setdefault(v.slots[slot][1], []).append(i)
        return list(by_dim.values())

    vectors = groups("vector")
    budget = _MAX_OPEN - sum(len(ids) % 2 for ids in vectors)  # an odd vector group leaves one open
    edges, open_legs = [], []
    for ids in groups("spinor"):  # spinor slots and dual slots share their dimension
        spinors, duals = draw(st.permutations(ids)), draw(st.permutations(ids))
        left = draw(st.integers(0, min(len(ids), budget // 2)))
        budget -= 2 * left
        edges += [((a, "spinor"), (b, "dual")) for a, b in zip(spinors[left:], duals[left:])]
        open_legs += [(a, "spinor") for a in spinors[:left]] + [(b, "dual") for b in duals[:left]]
    for ids in vectors:
        order = draw(st.permutations(ids))
        left = len(ids) % 2 + 2 * draw(st.integers(0, min(len(ids) // 2, budget // 2)))
        budget -= left - len(ids) % 2
        edges += [((a, "vector"), (b, "vector")) for a, b in zip(order[left::2], order[left + 1::2])]
        open_legs += [(a, "vector") for a in order[:left]]
    return VertexNetwork(verts, edges, draw(st.permutations(open_legs)))


@settings(max_examples=150)
@given(gamma_networks())
def test_random_networks_agree_on_every_path(net):
    """contract() (arrays within the default cutoff), contract(dense_cutoff=0)
    (dicts throughout) and the float64 einsum oracle give one tensor."""
    assert len(net.open_legs) <= _MAX_OPEN
    arrays, dicts = net.contract(), net.contract(dense_cutoff=0)
    assert arrays.dtype == dicts.dtype == np.int64
    assert np.array_equal(arrays, dicts)
    assert np.array_equal(arrays.astype(float), dense_oracle(net))
