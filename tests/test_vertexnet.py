import json
import random
from itertools import combinations
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsetalg import vertexnet
from qsetalg.cliff import build_gammas
from qsetalg.vertexnet import (
    GammaVertex,
    IotaNode,
    VertexNetwork,
    dense_oracle,
    paths_agree,
)


def test_gamma_vertex_entries_match_matrices():
    v = GammaVertex(2, 1)
    gs = build_gammas(2, 1)
    dims, ent = v.tensor
    assert dims == (gs.dim, 3, gs.dim) and 0 not in ent.values()
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
    assert node.tensor == ((4, 2), {(1, 0): 1, (2, 1): 1})


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


def test_reversed_network_agrees_with_einsum():
    g1 = GammaVertex(2, 2)
    g2 = GammaVertex(2, 2)
    net = VertexNetwork(
        [g1, g2],
        edges=[((0, "spinor"), (1, "dual")), ((0, "vector"), (1, "vector"))],
        open_legs=[(0, "dual"), (1, "spinor")],
    )
    forward = net.contract()
    backward = vertexnet._reversed(net).contract()
    oracle = dense_oracle(net)
    assert np.array_equal(forward, backward)
    assert np.allclose(forward.astype(float), oracle)
    assert paths_agree(net)


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


def _all_pairs_reduce(legs, keys, values, memo, log):
    """The greedy as a full rescan per step: merge the pair with the
    smallest (not sharing a wire, merged size), first pair on ties, and
    append the result after the untouched tensors. It ignores `memo`,
    computes every merge with the module's join, given shared
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
        _, i, j, shared = best
        (la, va), (lb, vb) = tensors[i], tensors[j]
        log.append((la, lb))
        out = tuple([w for w in la if w not in lb] + [w for w in lb if w not in la])
        tensors = [t for k, t in enumerate(tensors) if k not in (i, j)] + [(out, vertexnet._merge(va, vb, shared))]
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
    joins = _joins(monkeypatch)
    oracle = dense_oracle(net)
    for again in (net, vertexnet._reversed(net)):
        joins.clear()
        arr = again.contract()
        assert len(joins) == len(net.vertices) - 1
        assert arr.shape == np.shape(oracle) and arr.dtype == np.int64
        assert np.array_equal(arr.astype(float), oracle)


@pytest.mark.parametrize("p, q, want", [(2, 1, 2), (1, 0, 1), (4, 4, 0)])
def test_closed_networks_contract_to_a_0d_array(p, q, want):
    # sum_m tr(g_m g_m) = dim * sum_m eta_m
    net = _closed_pair(p, q)
    for again in (net, vertexnet._reversed(net)):
        arr = again.contract()
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


def test_a_long_ring_joins_each_distinct_merge_once_and_heaps_plain_ints(monkeypatch):
    # the memo computes each distinct merge once; the planner's heap holds
    # ints, and its stale entries cost one pop each
    joins, stored, pushed, popped = _joins(monkeypatch), [], [], []
    real_store, real_push, real_pop = vertexnet._store, vertexnet.heappush, vertexnet.heappop
    monkeypatch.setattr(vertexnet, "_store", lambda *args: stored.append(1) or real_store(*args))
    monkeypatch.setattr(vertexnet, "heappush", lambda heap, item: pushed.append(item) or real_push(heap, item))
    monkeypatch.setattr(vertexnet, "heappop", lambda heap: popped.append(1) or real_pop(heap))
    assert _paired_ring(1024, 2, 1).contract().tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, -2]]
    # one vertex value and 19 distinct merges, each joined and stored once
    assert len(joins) == 19
    assert len(stored) == 1 + 19
    # 1023 merges, 1024 initial entries and 2043 pushed: 1011 pops drop a
    # stale entry
    assert all(type(item) is int for item in pushed)
    assert (len(pushed), len(popped)) == (2043, 2034)


def test_vertices_share_no_mutable_state():
    a, b = GammaVertex(3, 1), GammaVertex(3, 1)
    before = dict(b.tensor[1])
    with pytest.raises(TypeError):
        a.gamma_set.gammas[0][0][0] = 7
    with pytest.raises(TypeError):
        a.gamma_set.points[0][0] = 7
    with pytest.raises(TypeError):
        a.gamma_set.points[0] = a.gamma_set.points[1]
    assert dict(b.tensor[1]) == before
    assert np.array_equal(b.gamma_set.gammas[0], build_gammas(3, 1).gammas[0])
    # the tensor is one shared read-only view too
    assert a.tensor is b.tensor
    with pytest.raises(TypeError):
        a.tensor[1][0, 0, 0] = 7
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
    with pytest.raises(TypeError):
        node.tensor[1][0, 0] = 7
    assert IotaNode(1, 2).tensor[1] == {(1, 0): 1, (2, 1): 1}


def test_a_network_contracts_the_same_twice():
    # the wiring is numbered once, as the network is built, and its
    # vertices, edges and open legs are tuples, so it cannot go stale
    net = _self_loop_network()
    first = net.contract()
    assert np.array_equal(first, net.contract()) and first.dtype == net.contract().dtype
    assert np.array_equal(vertexnet._reversed(net).contract(), first)
    assert isinstance(net.vertices, tuple) and isinstance(net.edges, tuple)
    assert net.open_legs == ((1, "vector"), (0, "vector"), (2, "vector"))


# -- exactness past int64 ------------------------------------------------------


def _float_free_cases():
    nets = [
        pytest.param(VertexNetwork.load(str(path)), id=path.stem)
        for path in sorted((Path(__file__).parent / "oracles").glob("net_*.json"))
    ]
    rng = random.Random(20251)
    return nets + [pytest.param(_ring(128, p, q, rng), id=f"ring128-{p}{q}") for p, q in ((4, 4), (4, 1))]


@pytest.mark.parametrize("net", _float_free_cases())
def test_contraction_never_hands_numpy_a_float(numpy_dtypes, net):
    # exact means integers: every merge and self-trace is a join on Python
    # ints, so a contraction runs no numpy product at all
    arr = net.contract()
    assert numpy_dtypes == {"einsum": [], "matmul": []}
    assert arr.dtype in (np.int64, object)


@pytest.mark.parametrize("p, q", [(3, 1), (4, 2), (4, 1)])
def test_long_ring_past_int64_is_exact(p, q):
    arr = _paired_ring(128, p, q).contract()
    want = _paired_ring_value(128, p, q)
    assert abs(want[0][0]) >= 1 << 63
    # the result keeps Python ints instead of wrapping
    assert arr.dtype == object
    assert arr.tolist() == want


def test_merge_past_int64_is_exact():
    big = 1 << 40
    # legs (0, 1) and (1, 2): wire 1 sits at position 1 of a and 0 of b
    a = ((2, 2), {(0, 0): big, (0, 1): big, (1, 1): -big})
    b = ((2, 2), {(0, 0): big, (1, 0): big, (1, 1): big})
    merged = vertexnet._merge(a, b, ((1, 0),))
    assert merged == ((2, 2), {(0, 0): 2 * big * big, (0, 1): big * big, (1, 0): -big * big, (1, 1): -big * big})
    assert vertexnet._to_dense((0, 2), merged, (0, 2)).dtype == object


def _nested_loop_join(a, b, shared):
    """Reference merge: every pair of entries whose shared indices agree,
    keyed by a's kept indices then b's, summed, zeros dropped."""
    a_sh, b_sh = [i for i, _ in shared], [j for _, j in shared]
    out: dict = {}
    for ia, v in a[1].items():
        for ib, w in b[1].items():
            if all(ia[i] == ib[j] for i, j in shared):
                k = tuple(x for i, x in enumerate(ia) if i not in a_sh) + tuple(x for j, x in enumerate(ib) if j not in b_sh)
                out[k] = out.get(k, 0) + v * w
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200)
@given(st.data())
def test_merge_matches_a_nested_loop_join(data):
    """_merge equals the nested-loop join on Python ints, for entries up to
    2^12, 2^31, 2^62 and 2^80, with none to three shared legs in any
    order."""
    top = data.draw(st.sampled_from([2 ** 12, 2 ** 31, 2 ** 62, 2 ** 80]), label="top")
    da = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="da"))
    nb = data.draw(st.integers(1, 3), label="nb")
    count = data.draw(st.integers(0, min(len(da), nb)), label="shared")
    a_sh = data.draw(st.permutations(range(len(da))), label="a_sh")[:count]
    b_sh = data.draw(st.permutations(range(nb)), label="b_sh")[:count]
    shared = tuple(zip(a_sh, b_sh))
    b_dims = [data.draw(st.integers(1, 3)) for _ in range(nb)]
    for i, j in shared:
        b_dims[j] = da[i]
    db = tuple(b_dims)

    def entries(dims):
        index = st.tuples(*(st.integers(0, d - 1) for d in dims))
        return data.draw(st.dictionaries(index, st.integers(-top, top), max_size=12))

    a, b = (da, entries(da)), (db, entries(db))
    dims, got = vertexnet._merge(a, b, shared)
    kept_a = tuple(d for i, d in enumerate(da) if i not in a_sh)
    assert dims == kept_a + tuple(d for j, d in enumerate(db) if j not in b_sh)
    assert got == _nested_loop_join(a, b, shared)


def test_results_that_fit_stay_int64():
    arr = vertexnet._to_dense((0,), ((2,), {(0,): (1 << 63) - 1, (1,): -(1 << 63)}), (0,))
    assert arr.dtype == np.int64
    assert arr.tolist() == [(1 << 63) - 1, -(1 << 63)]
    assert vertexnet._to_dense((0,), ((2,), {(0,): 1 << 63}), (0,)).dtype == object
    assert vertexnet._to_dense((0,), ((2,), {(1,): -(1 << 63) - 1}), (0,)).dtype == object


def test_output_legs_must_match_the_remaining_legs():
    value = ((2, 1), {(0, 0): 1, (1, 0): 1})
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


# -- joins, self-traces and the second path ------------------------------------


def _joins(monkeypatch):
    """(dims of a, dims of b, shared) of every join the contraction runs, in
    order."""
    seen = []
    real = vertexnet._merge

    def spy(va, vb, shared):
        seen.append((va[0], vb[0], shared))
        return real(va, vb, shared)

    monkeypatch.setattr(vertexnet, "_merge", spy)
    return seen


def test_a_self_trace_keeps_only_the_diagonal_of_its_wire():
    # legs (w, v, w): the entries whose first and last index agree, summed
    # by the middle one; (1, 2, 0) lies off the diagonal
    entries = {(0, 0, 0): 5, (0, 0, 1): 7, (1, 0, 1): -2, (1, 2, 0): 4, (1, 2, 1): 1, (0, 1, 0): 3, (1, 1, 1): -3}
    assert vertexnet._trace((2, 3, 2), entries, (0, 1, 0), [1]) == ((3,), {(0,): 3, (2,): 1})


@pytest.mark.parametrize("pattern", [(0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1, 0), (0, 1, 2, 1)])
def test_self_traces_match_a_dense_reference(pattern):
    # every index of a seeded dense tensor, some entries zero: the trace
    # sums the diagonal of each repeated wire, by the wires seen once
    rng = random.Random(20260)
    wires = max(pattern) + 1
    wire_dims = [rng.randint(2, 3) for _ in range(wires)]
    dims = tuple(wire_dims[w] for w in pattern)
    entries = {idx: v for idx in np.ndindex(*dims) if (v := rng.randint(-4, 4))}
    keep = [i for i, w in enumerate(pattern) if pattern.count(w) == 1]
    want: dict = {}
    for idx, v in entries.items():
        at = {}
        if all(at.setdefault(w, x) == x for w, x in zip(pattern, idx)):
            k = tuple(idx[i] for i in keep)
            want[k] = want.get(k, 0) + v
    got = vertexnet._trace(dims, entries, pattern, keep)
    assert got == (tuple(dims[i] for i in keep), {k: v for k, v in want.items() if v})


def _verify_loop():
    # the two-vertex loop of verify-all's network check
    return VertexNetwork(
        [GammaVertex(2, 1), GammaVertex(2, 1)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(0, "vector"), (1, "vector")],
    )


@pytest.mark.parametrize("name", ["net_ring16", "net_self_loop", "verify-loop"])
def test_the_reversed_network_is_a_second_path(monkeypatch, name):
    oracles = Path(__file__).parent / "oracles"
    net = _verify_loop() if name == "verify-loop" else VertexNetwork.load(str(oracles / f"{name}.json"))
    joins = _joins(monkeypatch)
    got, plan = _merge_log(monkeypatch, net)
    forward = joins[:]
    joins.clear()
    again, replan = _merge_log(monkeypatch, vertexnet._reversed(net))
    # edges and open legs keep their order, so a wire id names the same
    # wire in both: every plan differs in which operands a step merges, or
    # in the order it takes them
    assert plan != replan
    # in the ring the joins differ too; in the other two every join takes
    # two operands of one species in a symmetric loop (or a traced vertex
    # and that loop), so swapping them makes the same call
    assert (joins != forward) == (name == "net_ring16")
    assert got.dtype == again.dtype and np.array_equal(got, again)
    assert paths_agree(net)


@pytest.mark.parametrize("fault", ["forward", "reversed", "dtype", "both"])
def test_paths_agree_flags_each_disagreement(monkeypatch, fault):
    # one contraction off by one entry, the reversed one handed back as
    # object, or both off alike, which only the einsum oracle sees
    net = _verify_loop()
    assert paths_agree(net)
    real = VertexNetwork.contract

    def faulty(self):
        arr = real(self)
        if fault == "dtype":
            return arr.astype(object) if self is not net else arr
        if fault == "both" or (self is net) == (fault == "forward"):
            arr.flat[0] += 1
        return arr

    monkeypatch.setattr(VertexNetwork, "contract", faulty)
    assert not paths_agree(net)


@pytest.mark.parametrize("net", [pytest.param(n, id=k) for k, n in _planner_cases()])
def test_reversed_networks_agree(net):
    forward, backward = net.contract(), vertexnet._reversed(net).contract()
    assert forward.dtype == backward.dtype
    assert np.array_equal(forward, backward)


@pytest.mark.parametrize("p, q", [(4, 4), (2, 4), (4, 1)])
def test_long_rings_join_each_distinct_merge_once(monkeypatch, p, q):
    joins = _joins(monkeypatch)
    arr, plan = _merge_log(monkeypatch, _paired_ring(128, p, q))
    # all 127 plan steps run, and the memo computes the 13 distinct merges
    assert len(plan) == 127
    assert len(joins) == 13
    # (4, 4) sums to zero; (2, 4) and (4, 1) reach (-2)^63 * 8 and 3^63 * 4
    assert arr.dtype == (np.int64 if p == q else object)
    assert arr.tolist() == _paired_ring_value(128, p, q)


@pytest.mark.parametrize("net", [
    _paired_ring(24, 3, 1), _self_loop_network(), VertexNetwork.load(str(Path(__file__).parent / "oracles" / "net_ring128.json")),
])
def test_untraced_vertices_enter_as_their_shared_entries(monkeypatch, net):
    stored = []
    real = vertexnet._store

    def spy(memo, values, name, dims, entries):
        stored.append((name, entries))
        return real(memo, values, name, dims, entries)

    monkeypatch.setattr(vertexnet, "_store", spy)
    arr = net.contract()
    # each species stores its read-only entries once, uncopied; a traced
    # vertex (named by its pattern too) and a merge store a fresh dict
    untraced = {id(v.slots): v.tensor[1] for vi, v in enumerate(net.vertices) if vi not in net._loops}
    entered = [(name, entries) for name, entries in stored if type(name) is int]
    assert len(entered) == len(untraced)
    assert all(entries is untraced[name] for name, entries in entered)
    # the result is a fresh array
    assert arr.flags.writeable


def test_a_three_ring_with_three_open_legs_joins_twice(monkeypatch):
    # two (16, 8, 16) vertices of a (4, 4) 3-ring join over one spinor line
    # to (16, 8, 8, 16); the third, the older operand, joins it over two
    net = VertexNetwork(
        [GammaVertex(4, 4) for _ in range(3)],
        edges=[((i, "spinor"), ((i + 1) % 3, "dual")) for i in range(3)],
        open_legs=[(1, "vector"), (0, "vector"), (2, "vector")],
    )
    joins = _joins(monkeypatch)
    arr = net.contract()
    assert [(da, db) for da, db, _ in joins] == [((16, 8, 16), (16, 8, 16)), ((16, 8, 16), (16, 8, 8, 16))]
    assert arr.dtype == np.int64 and arr.shape == (8, 8, 8)
    assert np.array_equal(arr.astype(float), dense_oracle(net))


def test_a_single_vertex_comes_back_as_a_fresh_array():
    net = VertexNetwork(
        [GammaVertex(2, 1)], edges=[], open_legs=[(0, "dual"), (0, "vector"), (0, "spinor")]
    )
    arr = net.contract()
    assert arr.dtype == np.int64 and arr.flags.writeable
    arr[...] = 0
    assert net.contract().any()


@pytest.mark.parametrize("p, q", [(0, 12), (6, 6), (12, 0)])
def test_two_vertex_loops_up_to_p_plus_q_12(monkeypatch, p, q):
    joins = _joins(monkeypatch)
    net = VertexNetwork(
        [GammaVertex(p, q), GammaVertex(p, q)],
        edges=[((0, "spinor"), (1, "dual")), ((1, "spinor"), (0, "dual"))],
        open_legs=[(0, "vector"), (1, "vector")],
    )
    arr = net.contract()
    # each vertex is dim x 12 x dim with 12 * dim nonzero entries: one join
    gs = build_gammas(p, q)
    assert joins == [((gs.dim, 12, gs.dim), (gs.dim, 12, gs.dim), ((0, 2), (2, 0)))]
    assert arr.tolist() == [
        [gs.dim * gs.eta[a] if a == b else 0 for b in range(12)] for a in range(12)
    ]


def test_joins_take_networks_past_52_wires(monkeypatch):
    # twenty (1, 0) vertices with every slot open: 60 legs of dimension 1,
    # more than einsum has letters for; a join has no such limit
    joins = _joins(monkeypatch)
    legs = [(v, s) for v in range(20) for s in ("dual", "vector", "spinor")]
    arr = VertexNetwork([GammaVertex(1, 0) for _ in range(20)], [], legs).contract()
    # 19 outer products, 5 of them distinct; the last makes all 60 legs
    assert len(joins) == 5 and max(len(da) + len(db) for da, db, _ in joins) == 60
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
    """contract(), the contraction of the network with its vertex list
    reversed and the float64 einsum oracle give one tensor."""
    assert len(net.open_legs) <= _MAX_OPEN
    forward, backward = net.contract(), vertexnet._reversed(net).contract()
    assert forward.dtype == backward.dtype == np.int64
    assert np.array_equal(forward, backward)
    assert np.array_equal(forward.astype(float), dense_oracle(net))
