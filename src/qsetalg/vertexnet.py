"""Small tensor networks over gamma vertices and rank-raising nodes.

Two node species:

    gamma vertex   slots (dual, vector, spinor) with dimensions
                   (rep, p+q, rep) and parities (1, 0, 1); the tensor entry at
                   (y2, m, y1) is gamma_m[y2][y1]. The parity sum is even, so
                   a gauge interaction conserves fermion-line parity. Any
                   signature build_gammas makes is accepted: 1 <= p+q <= 12.

    iota node      one rank-raising relabeling: grade-m blade labels of the
                   rank-r frame (C(n, m) of them, parity m mod 2) are sent to
                   single generators one rank up (2**n of them, parity 1).
                   The tensor is the 0/1 inclusion matrix, out index = the
                   label's own code.

Every vertex of one signature (or grade and rank) shares one read-only
table, built on first use: its array, its parity sum, and its slots, a
MappingProxyType from slot name to (position, dim, kind).

Edges join slots of compatible kind and equal dimension: spinor to dual,
vector to vector, and an iota's out to a higher iota's in (chaining). Open
slots become output axes in the declared order. One pass over the edges and
open legs checks them and numbers the wires as the network is built: edge k
is wire k, open leg j is wire E + j for E edges. A network's vertices, edges
and open legs are tuples, so that wiring never goes stale.

contract() runs a greedy pairwise reduction, joining the pair of tensors
whose merged result is smallest. A wire index keeps the candidates to pairs
that share a wire, so planning costs O(E log E) for E edges instead of an
all-pairs rescan per merge (O(V^3) for V vertices). A vertex that carries a
wire twice (a spinor line closed on itself) is traced on its own cached
array as it enters; its entries are -1, 0 or 1, so the trace stays int64. No
merge result carries a wire twice, so that is the only trace. Each value is
then held one of two ways, by its dense size (product of dimensions):

    array   within dense_cutoff: an integer ndarray. Vertices hand over their
            cached read-only arrays, and a merge of two arrays whose result
            fits too is a tensordot run as one linalg.int_matmul: the shared
            legs move to the inner dimension and the kept legs are flattened
            (float64 BLAS, int64 or Python ints, by its stated bound).
    dict    past it: index tuple -> nonzero entry, merged by an exact sparse
            hash-join on the shared indices.

dense_cutoff=0 keeps every tensor a dict. No entry wraps on either path; the
result is int64 when every entry fits and dtype=object otherwise. Tests
replay whole networks through float64 einsum as an independent oracle.

One contract() call computes each distinct merge and self-trace, and each
distinct vertex's dict, once. A tensor in flight is its legs (wire ids) and
a small integer key into the call's table of values; a value is a plain
(dims, data) pair, data an array or a dict. A vertex's key is named by its
cached array, which every vertex of one signature shares, and by the
pattern of its legs if it is traced, where pattern numbers the wires by
first appearance; a merge's is named by (key, key, shared), where shared
pairs the positions of each wire the two operands share, in the first
operand's order. shared describes the merge completely: the merge routines
read the summed positions and the result's leg order (the first operand's
kept legs, then the second's) from it alone and never see a wire id. The
representation (array or dict) follows from the keys' dims, the positions
and the cutoff, so equal keys mean equal dims and equal data. A plan step
that repeats a merge computes only the result's legs; stored arrays are
read-only and shared, never copied. In a paired 128-vertex ring, 13 of the
127 merges are distinct. The memo lives for one call only.

parity_check() is the bookkeeping pass: gauge vertices always balance; every
iota node gets flagged. An even-m node breaks the mod-2 grading outright
(even in, odd out), and an odd-m node, while parity-consistent, re-types a
grade-m object as grade-1 across the rank boundary, which is exactly the move
a parity-conservation argument has to notice before waving a network through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import prod
from types import MappingProxyType

import numpy as np

from .cliff import MAX_TOTAL, build_gammas
from .linalg import int_matmul
from .perfinite import enumerate_rank

# every intermediate of a ring with up to three open vector legs at
# p + q <= 8 fits: the largest, two (16, 8, 16) vertices of a (4, 4) 3-ring
# merged over one spinor line, is (16, 8, 8, 16) = 2^14 entries. A p + q = 12
# vertex (64, 12, 64) stays past it and enters as a dict.
_DENSE_CUTOFF = 1 << 14
_INT64 = 1 << 63

# the slot kind pairs an edge may join, in either order
_COMPATIBLE = frozenset({
    ("spinor", "dual"), ("dual", "spinor"), ("vector", "vector"),
    ("monad-out", "blade-in"), ("blade-in", "monad-out"),
})


def _slot_tables(names, dims, kinds, parities) -> tuple:
    """A species' shared slot tables: the parity sum mod 2, and each slot's
    (position, dim, kind) in a read-only map, which the wiring pass reads."""
    slots = {s: (i, d, k) for i, (s, d, k) in enumerate(zip(names, dims, kinds))}
    return sum(parities) % 2, MappingProxyType(slots)


class GammaVertex:
    """A (p, q) gamma vertex; `array` is its read-only int64 tensor
    (dual, vector, spinor). Every vertex of the signature shares it and
    its slot tables."""

    kind = "gamma"
    slot_names = ("dual", "vector", "spinor")

    def __init__(self, p: int, q: int):
        if p + q < 1:
            raise ValueError("gamma vertex needs at least one direction")
        if p + q > MAX_TOTAL:
            raise ValueError(f"gamma vertex limited to p + q <= {MAX_TOTAL}")
        self.p = p
        self.q = q
        self.gamma_set, self.array, self.parity, self.slots = _gamma_table(p, q)

    def to_json(self):
        return {"kind": "gamma", "p": self.p, "q": self.q}

    def __repr__(self):
        return f"GammaVertex(p={self.p}, q={self.q})"


@cache
def _gamma_table(p: int, q: int):
    """GammaSet, (dual, vector, spinor) stack and slot tables of a (p, q)
    vertex, built once per signature and shared by every vertex, all
    read-only."""
    gs = build_gammas(p, q)
    stack = np.stack(gs.gammas, axis=1)
    stack.flags.writeable = False
    names = GammaVertex.slot_names
    return gs, stack, *_slot_tables(names, (gs.dim, p + q, gs.dim), names, (1, 0, 1))


class IotaNode:
    """A grade-m selector of the rank frame; `array` is its read-only 0/1
    inclusion matrix (out, in). Every node of the grade and rank shares it
    and its slot tables."""

    kind = "iota"
    slot_names = ("out", "in")

    def __init__(self, m: int, rank: int):
        if rank not in (1, 2, 3):
            raise ValueError("iota nodes support input frame ranks 1..3")
        n = len(enumerate_rank(rank - 1))
        if not 0 <= m <= n:
            raise ValueError(f"grade {m} impossible with {n} generators")
        self.m = m
        self.rank = rank
        self.array, self.parity, self.slots = _iota_table(m, rank)

    def to_json(self):
        return {"kind": "iota", "m": self.m, "rank": self.rank}

    def __repr__(self):
        return f"IotaNode(m={self.m}, rank={self.rank})"


@cache
def _iota_table(m: int, rank: int):
    """Inclusion matrix and slot tables of a grade-m node: the grade-m
    labels of the rank frame, in ascending code, down the in axis; each
    label's code is exactly its out-side generator index."""
    codes = [x.code for x in enumerate_rank(rank) if x.grade == m]
    arr = np.zeros((1 << len(enumerate_rank(rank - 1)), len(codes)), dtype=np.int64)
    arr[codes, range(len(codes))] = 1
    arr.flags.writeable = False
    return arr, *_slot_tables(IotaNode.slot_names, arr.shape, ("monad-out", "blade-in"), (1, m % 2))


def _vertex_from_json(data):
    if not isinstance(data, dict):
        raise ValueError(f"a vertex is a JSON object, not {data!r}")
    kind = data.get("kind")
    if kind not in ("gamma", "iota"):
        raise ValueError(f"unknown vertex kind {kind!r}")
    cls, keys = (GammaVertex, ("p", "q")) if kind == "gamma" else (IotaNode, ("m", "rank"))
    for key in keys:
        if key not in data:
            raise ValueError(f"{kind} vertex has no field {key!r}")
        if type(data[key]) is not int:
            raise ValueError(f"vertex field {key!r} is not an integer: {data[key]!r}")
    return cls(*(data[key] for key in keys))


def _list(data: dict, key: str) -> list:
    """The JSON list data[key], empty when the key is absent."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"network field {key!r} is not a list: {value!r}")
    return value


def _end(item, where: str) -> tuple:
    """(vertex, slot) of the JSON pair [vertex index, slot name] in `where`."""
    v, s = item if isinstance(item, list) and len(item) == 2 else (None, None)
    if type(v) is not int or type(s) is not str:
        raise ValueError(f"{where}: {item!r} is not [integer vertex index, slot name]")
    return v, s


@dataclass(frozen=True)
class ParityFlag:
    vertex: int
    kind: str
    reason: str


@dataclass(frozen=True)
class ParityReport:
    ok: bool
    flags: tuple


class VertexNetwork:
    """Vertices plus a wiring of their slots into edges and open legs,
    checked and numbered into wires once, as the network is built."""

    def __init__(self, vertices, edges, open_legs):
        self.vertices = tuple(vertices)
        try:
            self.edges = tuple([(tuple(a), tuple(b)) for a, b in edges])
        except ValueError:
            raise ValueError("edges join exactly two slots") from None
        self.open_legs = tuple(map(tuple, open_legs))
        n = len(self.edges)
        legs = [[None] * len(v.slot_names) for v in self.vertices]
        loops = set()
        for w, e in enumerate(self.edges):
            a, b = e
            (pa, da, ka), (pb, db, kb) = self._slot(a), self._slot(b)
            if a == b:
                raise ValueError(f"slot {a} wired to itself")
            if (ka, kb) not in _COMPATIBLE:
                raise ValueError(f"incompatible slot kinds {ka!r} and {kb!r} on edge {e}")
            if da != db:
                raise ValueError(f"dimension mismatch on edge {e}: {da} vs {db}")
            for end, pos in ((a, pa), (b, pb)):
                if legs[end[0]][pos] is not None:
                    raise ValueError(f"slot {end} used twice")
                legs[end[0]][pos] = w
            if a[0] == b[0]:
                loops.add(a[0])
        for j, l in enumerate(self.open_legs):
            pos = self._slot(l)[0]
            held = legs[l[0]][pos]
            if held is not None:
                raise ValueError(f"slot {l} {'declared open twice' if held >= n else 'both wired and open'}")
            legs[l[0]][pos] = n + j
        for vi, ls in enumerate(legs):
            if None in ls:
                raise ValueError(
                    f"slot ({vi}, {self.vertices[vi].slot_names[ls.index(None)]!r}) is neither "
                    f"wired nor open; declare it open if it should remain free"
                )
        # each vertex's wire ids in slot order, the vertices that carry a
        # wire twice, and the open legs' wire ids in declared order
        self._legs = tuple(map(tuple, legs))
        self._loops = frozenset(loops)
        self._out = range(n, n + len(self.open_legs))

    def _slot(self, end):
        """(position, dim, kind) of the slot `end` = (vertex, slot name)."""
        v, s = end
        if not (type(v) is int and 0 <= v < len(self.vertices)):
            raise ValueError(f"slot {end!r} names no vertex; the network has {len(self.vertices)}")
        vert = self.vertices[v]
        slot = vert.slots.get(s)
        if slot is None:
            raise ValueError(f"vertex {v} ({vert.kind}) has no slot {s!r}")
        return slot

    def parity_check(self) -> ParityReport:
        """A flag for every iota node, its reason read from the node's
        parity sum (see the module docstring)."""
        flags = []
        for vi, vert in enumerate(self.vertices):
            if vert.kind != "iota":
                continue
            if vert.m % 2 == 0:
                reason = (f"grade {vert.m} input is even but the output is a "
                          f"single generator (odd): parity sum {vert.parity} != 0")
            else:
                reason = (f"grade {vert.m} blade of the rank-{vert.rank} frame re-typed as a "
                          f"grade-1 generator one rank up; parity bookkeeping does not "
                          f"transfer across the boundary")
            flags.append(ParityFlag(vi, "iota", reason))
        return ParityReport(not flags, tuple(flags))

    # -- contraction ---------------------------------------------------------

    def contract(self, dense_cutoff: int = _DENSE_CUTOFF) -> np.ndarray:
        """Contract all edges; result axes follow the declared open order.

        Pairwise greedy (see _reduce): always merge the pair with the
        smallest resulting dense size, preferring pairs that share a wire.
        A wire index finds those pairs, so planning costs O(E log E) for E
        edges rather than an all-pairs scan per merge.

        A vertex carrying a wire twice is traced on its own array first.
        dense_cutoff then picks the representation, never the plan. A vertex
        whose (traced) dense size is within it stays an integer array, and a
        merge whose operands and result are all within it is one exact
        integer matrix product producing an array. Larger vertices become
        sparse dicts, once per distinct vertex, and larger merges run the
        exact sparse hash-join. 0 keeps dicts throughout; a huge cutoff
        keeps arrays throughout.
        Entries stay exact integers either way: the result, a fresh ndarray
        (0-d for a network with no open legs), is int64 when every entry
        fits and dtype=object (Python ints) otherwise.

        A memo local to this call computes each distinct vertex value,
        merge and self-trace once (see the module docstring), so a plan
        step costs one memo lookup unless its merge is new. A value is a
        (dims, data) pair, and a merge is fully described by the planner's
        shared positions. The memo's invariant: equal keys mean equal dims
        and equal data.
        """
        if not self.vertices:
            return np.ones((), dtype=np.int64)
        memo: dict = {}
        values: list = []
        legs, keys = [], []
        for vi, (vert, ls) in enumerate(zip(self.vertices, self._legs)):
            ls, key = _enter(vert.array, ls, vi in self._loops, dense_cutoff, memo, values)
            legs.append(ls)
            keys.append(key)
        ls, key = _reduce(legs, keys, values, dense_cutoff, memo)
        return _to_dense(ls, values[key], self._out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "open": [list(l) for l in self.open_legs],
        }

    @classmethod
    def from_json(cls, data) -> "VertexNetwork":
        if not isinstance(data, dict):
            raise ValueError(f"a network is a JSON object, not {type(data).__name__}")
        vertices = [_vertex_from_json(v) for v in _list(data, "vertices")]
        edges = []
        for e in _list(data, "edges"):
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"edge {e!r} is not two [vertex, slot] pairs")
            edges.append(tuple(_end(end, f"edge {e!r}") for end in e))
        open_legs = [_end(l, "open leg") for l in _list(data, "open")]
        return cls(vertices, edges, open_legs)

    @classmethod
    def load(cls, path: str) -> "VertexNetwork":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return (
            f"VertexNetwork({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.open_legs)} open)"
        )


def _enter(arr, legs, traced: bool, dense_cutoff: int, memo: dict, values: list):
    """(legs, key) of a vertex entering the reduction: its array, traced
    over each wire it carries twice and held as a dict past dense_cutoff,
    computed once per distinct (array, pattern) in `memo`. Only a vertex can
    carry a wire twice: a merge keeps the wires it sees once."""
    name = (id(arr), _pattern(legs) if traced else None)
    key = memo.get(name)
    if traced:
        pattern = name[1]
        keep = _once(pattern)
        legs = tuple(legs[i] for i in keep)
    if key is None:
        if traced:
            arr = np.einsum(arr, list(pattern), [pattern[i] for i in keep])
        key = _store(memo, values, name, (arr.shape, _entries(arr) if arr.size > dense_cutoff else arr))
    return legs, key


def _reduce(legs: list, keys: list, values: list, dense_cutoff: int, memo: dict):
    """Merge tensors pairwise down to one and return its (legs, key). The
    state is flat per-id lists: legs (None once merged away) and key, with
    each key's dims and size; the values themselves are read only when a
    merge is new to `memo`.

    Each step merges the pair with the smallest (not sharing a wire,
    merged size, id_a, id_b): ids follow creation order and a merged tensor
    gets a fresh id, so this is the all-pairs greedy with its first-pair
    tie-break. Pairs that share a wire live in a heap of _pair entries; a
    wire index (wire -> ids of the live tensors carrying it, at most two)
    finds the new tensor's neighbours after each merge, and entries naming
    a merged-away tensor are dropped when they surface. When the heap runs
    dry the live tensors share no wire at all (one per connected
    component), and those few are scanned pairwise.
    """
    dims = [values[k][0] for k in keys]
    sizes = [prod(d) for d in dims]
    holders: dict = {}
    for i, ls in enumerate(legs):
        for w in ls:
            holders.setdefault(w, []).append(i)
    pairs = {tuple(ids) for ids in holders.values() if len(ids) == 2}
    heap = [_pair(a, b, legs, dims, sizes) for a, b in pairs]
    heapify(heap)
    for c in range(len(legs), 2 * len(legs) - 1):
        while heap:
            size, a, b, shared = heappop(heap)
            if legs[a] is not None and legs[b] is not None:
                break
        else:
            live = [i for i, ls in enumerate(legs) if ls is not None]
            size, a, b, shared = min(_pair(a, b, legs, dims, sizes) for a, b in combinations(live, 2))
        out = _kept(legs[a], legs[b])
        name = (keys[a], keys[b], shared)
        key = memo.get(name)
        if key is None:
            merge = _merge_dense if max(sizes[a], sizes[b], size) <= dense_cutoff else _merge_sparse
            key = _store(memo, values, name, merge(values[keys[a]], values[keys[b]], shared))
        legs[a] = legs[b] = None
        neighbours = set()
        for w in out:
            # a kept wire came from a or b and has at most one other holder
            ids = holders[w]
            if len(ids) == 2:
                n = ids[0] if legs[ids[1]] is None else ids[1]
                neighbours.add(n)
                holders[w] = [n, c]
            else:
                holders[w] = [c]
        legs.append(out)
        keys.append(key)
        dims.append(values[key][0])
        sizes.append(size)
        for n in neighbours:
            heappush(heap, _pair(n, c, legs, dims, sizes))
    return legs[-1], keys[-1]


def _pair(a: int, b: int, legs, dims, sizes) -> tuple:
    """(merged size, a, b, shared) of the pair of live tensors a < b: the
    dense size of their merge, and (position in a, position in b) of each
    wire they share, in a's order. Every pair-size evaluation runs here."""
    la, lb = legs[a], legs[b]
    shared = tuple([(i, lb.index(w)) for i, w in enumerate(la) if w in lb])
    size = sizes[a] * sizes[b]
    for i, _ in shared:
        size //= dims[a][i] ** 2
    return size, a, b, shared


def _kept(la, lb) -> tuple:
    """Legs of a merge result: the wires of la that lb lacks, then those
    of lb that la lacks, in order. Every plan step runs here once."""
    return tuple([w for w in la if w not in lb] + [w for w in lb if w not in la])


def _store(memo: dict, values: list, name, value: tuple) -> int:
    """Key of value, a (dims, data) pair computed once per `name` in one
    contract() call: the next free index into `values`. Its array is made
    read-only, so a repeat shares it uncopied."""
    if not isinstance(value[1], dict):
        value[1].flags.writeable = False
    memo[name] = len(values)
    values.append(value)
    return memo[name]


def _layout(da, db, shared) -> tuple:
    """Leg positions of a merge of operands with dims da and db: (kept in
    a, shared in a, kept in b, shared in b), the shared ones paired as in
    `shared`, and the result's dims, a's kept legs then b's."""
    a_sh, b_sh = (list(s) for s in zip(*shared)) if shared else ([], [])
    a_keep = [i for i in range(len(da)) if i not in a_sh]
    b_keep = [i for i in range(len(db)) if i not in b_sh]
    return a_keep, a_sh, b_keep, b_sh, tuple([da[i] for i in a_keep] + [db[i] for i in b_keep])


def _merge_sparse(va: tuple, vb: tuple, shared) -> tuple:
    """The merge of two (dims, data) values as an exact sparse hash-join on
    the shared indices: a (dims, dict) value."""
    a_keep, a_sh, b_keep, b_sh, dims = _layout(va[0], vb[0], shared)
    ea, eb = (d if isinstance(d, dict) else _entries(d) for _, d in (va, vb))
    buckets: dict = {}
    for idx, v in eb.items():
        right = tuple(idx[i] for i in b_keep)
        buckets.setdefault(tuple(idx[i] for i in b_sh), []).append((right, v))
    out: dict = {}
    for idx, v in ea.items():
        hits = buckets.get(tuple(idx[i] for i in a_sh))
        if not hits:
            continue
        left = tuple(idx[i] for i in a_keep)
        for right, w in hits:
            full = left + right
            out[full] = out.get(full, 0) + v * w
    return dims, {k: v for k, v in out.items() if v}  # drop entries that summed to 0


def _merge_dense(va: tuple, vb: tuple, shared) -> tuple:
    """The merge of two (dims, data) values as a tensordot run as one exact
    matrix product (linalg.int_matmul): each operand's shared legs move to
    the inner dimension and its kept legs are flattened. A (dims, array)
    value."""
    a_keep, a_sh, b_keep, b_sh, dims = _layout(va[0], vb[0], shared)
    a = _array(*va).transpose(a_keep + a_sh)
    b = _array(*vb).transpose(b_sh + b_keep)
    inner = prod(b.shape[:len(b_sh)])
    return dims, int_matmul(a.reshape(-1, inner), b.reshape(inner, -1)).reshape(dims)


def _to_dense(legs, value: tuple, order) -> np.ndarray:
    """A fresh array of the (dims, data) value with wire-id legs `legs`,
    axes in `order`: int64 when every entry fits, otherwise dtype=object
    holding the exact Python ints."""
    if set(order) != set(legs) or len(order) != len(legs):
        raise ValueError("output legs disagree with remaining legs")
    arr = _array(*value).transpose([legs.index(l) for l in order])
    fits = arr.dtype != object or -_INT64 <= arr.min(initial=0) <= arr.max(initial=0) < _INT64
    return arr.astype(np.int64 if fits else object)


def _entries(arr: np.ndarray) -> dict:
    """Sparse dict index tuple -> nonzero entry (a Python int) of an
    integer array."""
    if arr.ndim == 0:
        return {(): int(arr)} if arr else {}
    idx = np.nonzero(arr)
    return dict(zip(zip(*(i.tolist() for i in idx)), arr[idx].tolist()))


def _pattern(legs) -> tuple:
    """Each leg's wire numbered by first appearance: (5, 9, 9, 2) ->
    (0, 1, 1, 2). It names a vertex's self-trace up to relabelling the
    wires, and hands its numbers to np.einsum as subscripts."""
    first: dict = {}
    return tuple(first.setdefault(l, len(first)) for l in legs)


def _once(pattern) -> list:
    """Positions of the wires a pattern numbers once: the legs a
    contraction keeps, in order. Every other wire appears twice and is
    summed."""
    return [i for i, w in enumerate(pattern) if pattern.count(w) == 1]


def _array(dims, data) -> np.ndarray:
    """The data of a value as an array: an array itself, or a sparse dict
    as a dense dtype=object array holding its Python ints."""
    if not isinstance(data, dict):
        return data
    arr = np.zeros(dims, dtype=object)
    for idx, v in data.items():
        arr[idx] = v
    return arr


def dense_oracle(net: VertexNetwork) -> np.ndarray:
    """Independent reference: one float64 einsum over the whole network,
    contracted in the pairwise order numpy's own greedy path search picks
    (independent of _reduce's plan); unoptimised, its nested loop grows as
    the product of every wire dimension. Its subscripts are the network's
    own wire ids, which numpy takes in [0, 52): at most 52 wires."""
    if not net.vertices:
        return np.ones(())
    if len(net.edges) + len(net.open_legs) > 52:
        raise ValueError("too many distinct wires for einsum subscripts")
    ops = [vert.array.astype(np.float64) for vert in net.vertices]
    return np.einsum(*chain(*zip(ops, net._legs)), list(net._out), optimize="greedy")
