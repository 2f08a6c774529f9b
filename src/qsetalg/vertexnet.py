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
table: its parity sum, its slots (slot name -> (position, dim, kind)) and
its tensor, a (dims, entries) pair, entries mapping each index tuple to its
nonzero entry, built once from the mathematics.

Edges join slots of compatible kind and equal dimension: spinor to dual,
vector to vector, and an iota's out to a higher iota's in (chaining). Open
slots become output axes in the declared order. One pass over the edges and
open legs checks them and numbers the wires as the network is built: edge k
is wire k, open leg j is wire E + j for E edges. A network's vertices, edges
and open legs are tuples, so that wiring never goes stale.

contract() runs a greedy pairwise reduction, joining the pair of tensors
whose merged result is smallest. A wire index keeps the candidates to pairs
that share a wire, each sized once from per-wire dims and worked out in full
only if merged, so planning costs O(E log E) for E edges instead of an
all-pairs rescan per merge (O(V^3) for V vertices); an entry a merge strands
costs one pop (245-298 pops for a 128-vertex ring's 127 merges). A vertex
that carries a wire twice (a spinor line closed on itself) is traced as it
enters, and no merge result does, so that is the only trace. Entries are
Python ints throughout and every merge is one exact sparse hash-join on the
shared indices, so no entry wraps. The result is a fresh ndarray, int64 when
every entry fits and dtype=object otherwise: numpy is imported for that
conversion and for dense_oracle only, so building a network and its parity
audit load no numpy. Tests replay whole networks through dense_oracle, an
independent einsum.

One contract() call computes each distinct merge and self-trace once. A
tensor in flight is its legs (wire ids) and a small integer key into the
call's table of values; a value is a plain (dims, entries) pair. A vertex's
key is named by its slot table, which every vertex of one species shares,
and by the pattern of its legs if it is traced, where pattern numbers the
wires by first appearance; a merge's is named by (key, key, shared), where
shared pairs the positions of each wire the two operands share, in the first
operand's order. shared describes the merge completely: the join reads the
summed positions and the result's leg order (the first operand's kept legs,
then the second's) from it alone and never sees a wire id, so equal keys
mean equal values. A plan step that repeats a merge computes only the
result's legs; stored values are shared, never copied. In a paired
128-vertex ring, 13 of the 127 merges are distinct. The memo lives for one
call only.

parity_check() is the bookkeeping pass: gauge vertices always balance; every
iota node gets flagged. An even-m node breaks the mod-2 grading outright
(even in, odd out), and an odd-m node, while parity-consistent, re-types a
grade-m object as grade-1 across the rank boundary, which is exactly the move
a parity-conservation argument has to notice before waving a network through.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations
from math import prod
from operator import itemgetter
from types import MappingProxyType

from .cliff import MAX_TOTAL, build_gammas
from .perfinite import enumerate_rank

# the slot kind pairs an edge may join, in either order
_COMPATIBLE = frozenset({
    ("spinor", "dual"), ("dual", "spinor"), ("vector", "vector"),
    ("monad-out", "blade-in"), ("blade-in", "monad-out"),
})


def _species(names, dims, kinds, parities, entries) -> tuple:
    """A species' shared read-only tables: the parity sum mod 2; each slot's
    (position, dim, kind), which the wiring pass reads; and the tensor
    (dims, entries), which contract() reads."""
    slots = {s: (i, d, k) for i, (s, d, k) in enumerate(zip(names, dims, kinds))}
    return sum(parities) % 2, MappingProxyType(slots), (dims, MappingProxyType(entries))


class GammaVertex:
    """A (p, q) gamma vertex; `tensor` is its (dims, entries) pair over the
    slots (dual, vector, spinor). Every vertex of the signature shares it
    and its slot tables."""

    kind = "gamma"
    slot_names = ("dual", "vector", "spinor")

    def __init__(self, p: int, q: int):
        if type(p) is not int or type(q) is not int:
            raise ValueError("signature counts must be integers")
        if p + q < 1:
            raise ValueError("gamma vertex needs at least one direction")
        if p + q > MAX_TOTAL:
            raise ValueError(f"gamma vertex limited to p + q <= {MAX_TOTAL}")
        self.p = p
        self.q = q
        self.gamma_set, self.parity, self.slots, self.tensor = _gamma_table(p, q)

    def to_json(self):
        return {"kind": "gamma", "p": self.p, "q": self.q}

    def __repr__(self):
        return f"GammaVertex(p={self.p}, q={self.q})"


@lru_cache(maxsize=None, typed=True)
def _gamma_table(p: int, q: int):
    """GammaSet, slot tables and tensor of a (p, q) vertex, built once per
    signature and shared by every vertex, all read-only. Typed, so that 2.0
    or True reaches build_gammas's refusal instead of the entry for 2 or 1."""
    gs = build_gammas(p, q)
    d, names = gs.dim, GammaVertex.slot_names
    entries = {(r, m, x % d): 1 - 2 * (x >= d) for m, g in enumerate(gs.points) for r, x in enumerate(g[:d])}
    return gs, *_species(names, (d, p + q, d), names, (1, 0, 1), entries)


class IotaNode:
    """A grade-m selector of the rank frame; `tensor` is its (dims, entries)
    pair, the 0/1 inclusion matrix (out, in). Every node of the grade and
    rank shares it and its slot tables."""

    kind = "iota"
    slot_names = ("out", "in")

    def __init__(self, m: int, rank: int):
        if type(m) is not int or type(rank) is not int:
            raise ValueError("grade and rank must be integers")
        if rank not in (1, 2, 3):
            raise ValueError("iota nodes support input frame ranks 1..3")
        n = len(enumerate_rank(rank - 1))
        if not 0 <= m <= n:
            raise ValueError(f"grade {m} impossible with {n} generators")
        self.m = m
        self.rank = rank
        self.parity, self.slots, self.tensor = _iota_table(m, rank)

    def to_json(self):
        return {"kind": "iota", "m": self.m, "rank": self.rank}

    def __repr__(self):
        return f"IotaNode(m={self.m}, rank={self.rank})"


@lru_cache(maxsize=None, typed=True)
def _iota_table(m: int, rank: int):
    """Slot tables and tensor of a grade-m node: out has a place per
    generator one rank up, in one per grade-m label of the rank frame, in
    ascending code; each label's code is exactly its out-side generator
    index."""
    codes = [x.code for x in enumerate_rank(rank) if x.grade == m]
    dims = (1 << len(enumerate_rank(rank - 1)), len(codes))
    entries = {(c, j): 1 for j, c in enumerate(codes)}
    return _species(IotaNode.slot_names, dims, ("monad-out", "blade-in"), (1, m % 2), entries)


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


ParityFlag = namedtuple("ParityFlag", "vertex kind reason")
ParityReport = namedtuple("ParityReport", "ok flags")


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
            if a == b or da != db or (ka, kb) not in _COMPATIBLE:
                if a == b:
                    raise ValueError(f"slot {a} wired to itself")
                if (ka, kb) not in _COMPATIBLE:
                    raise ValueError(f"incompatible slot kinds {ka!r} and {kb!r} on edge {e}")
                raise ValueError(f"dimension mismatch on edge {e}: {da} vs {db}")
            la, lb = legs[a[0]], legs[b[0]]
            if la[pa] is not None or lb[pb] is not None:
                raise ValueError(f"slot {a if la[pa] is not None else b} used twice")
            la[pa] = lb[pb] = w
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
        """(position, dim, kind) of the slot `end` = (vertex, slot name),
        read by one lookup."""
        v, s = end
        if type(v) is int and v >= 0:
            try:
                return self.vertices[v].slots[s]
            except KeyError:
                raise ValueError(f"vertex {v} ({self.vertices[v].kind}) has no slot {s!r}") from None
            except IndexError:
                pass
        raise ValueError(f"slot {end!r} names no vertex; the network has {len(self.vertices)}")

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

    def contract(self):
        """Contract all edges; result axes follow the declared open order.

        Pairwise greedy (see _reduce): always merge the pair with the
        smallest resulting dense size, preferring pairs that share a wire.
        A wire index finds those pairs and sizes each once, so planning costs
        O(E log E) for E edges rather than an all-pairs scan per merge; an
        entry a merge strands costs one pop when it surfaces.

        A vertex carrying a wire twice is traced first, and every merge is
        the exact hash-join _merge. The result, a fresh ndarray (0-d for a
        network with no open legs), is int64 when every entry fits and
        dtype=object (Python ints) otherwise. A memo local to this call
        computes each distinct merge and self-trace once, so a plan step
        costs one memo lookup unless its merge is new.
        """
        if not self.vertices:
            return _to_dense((), ((), {(): 1}), ())
        memo: dict = {}
        values: list = []
        legs, keys = list(self._legs), []
        for vi, vert in enumerate(self.vertices):
            key = memo.get(id(vert.slots))  # an untraced vertex of a species already stored
            if key is None or vi in self._loops:
                legs[vi], key = _enter(vert, legs[vi], vi in self._loops, memo, values)
            keys.append(key)
        ls, key = _reduce(legs, keys, values, memo)
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
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return (
            f"VertexNetwork({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.open_legs)} open)"
        )


def _enter(vert, legs, traced: bool, memo: dict, values: list):
    """(legs, key) of a vertex entering the reduction: its tensor, traced
    over each wire it carries twice, computed once per distinct (slot
    table, pattern) in `memo`. Only a vertex can carry a wire twice: a merge
    keeps the wires it sees once."""
    if traced:
        # the wires numbered by first appearance, (5, 9, 9, 2) -> (0, 1, 1, 2),
        # name the self-trace up to relabelling
        first: dict = {}
        pattern = tuple(first.setdefault(l, len(first)) for l in legs)
        keep = [i for i, w in enumerate(pattern) if pattern.count(w) == 1]  # the legs seen once
        legs = tuple(legs[i] for i in keep)
    name = (id(vert.slots), pattern) if traced else id(vert.slots)
    key = memo.get(name)
    if key is None:
        key = _store(memo, values, name, *(_trace(*vert.tensor, pattern, keep) if traced else vert.tensor))
    return legs, key


def _trace(dims, entries, pattern, keep) -> tuple:
    """The (dims, entries) of a tensor traced over each wire it carries
    twice: its entries whose positions of one wire agree, summed by their
    indices at the positions `keep` of the wires seen once."""
    ties = [(i, pattern.index(w)) for i, w in enumerate(pattern) if pattern.index(w) < i]
    kept = _getter(keep)
    out: dict = {}
    for idx, v in entries.items():
        if all(idx[i] == idx[j] for i, j in ties):
            k = kept(idx)
            out[k] = out.get(k, 0) + v
    return tuple(dims[i] for i in keep), {k: v for k, v in out.items() if v}


def _reduce(legs: list, keys: list, values: list, memo: dict):
    """Merge tensors pairwise down to one and return its (legs, key). The
    state is flat per-id lists: legs (None once merged away), key and dense
    size; the values themselves are read only when a merge is new to `memo`.

    Each step merges the pair with the smallest (not sharing a wire,
    merged size, id_a, id_b): ids follow creation order and a merged tensor
    gets a fresh id, so this is the all-pairs greedy with its first-pair
    tie-break. Pairs that share a wire live in a heap of ints (size << bits |
    a) << bits | b, ordered as (size, a, b), size = sizes[a] * sizes[b] over
    the squared dims of the wires they share. A wire index (per wire: the
    first and second live ids carrying it, the second None for an open
    wire, and its squared dim), updated in place, gives each merge's
    neighbours and those wires. A stale entry costs one pop; shared
    positions and kept legs are worked out only for the live pair merged.
    When the heap runs dry the live tensors share no wire at all (one per
    connected component), and those few are scanned pairwise.
    """
    sizes = [prod(values[k][0]) for k in keys]
    first = [None] * (max(chain.from_iterable(legs), default=-1) + 1)
    second, square = first[:], first[:]
    over: dict = {}  # pair -> product of its shared wires' squared dims
    for i, (ls, k) in enumerate(zip(legs, keys)):
        for w, d in zip(ls, values[k][0]):
            j = first[w]
            if j is None:
                first[w], square[w] = i, d * d
            else:
                second[w] = i
                over[j, i] = over.get((j, i), 1) * square[w]
    bits = (2 * len(legs)).bit_length()
    mask = (1 << bits) - 1
    heap = [(sizes[a] * sizes[b] // d << bits | a) << bits | b for (a, b), d in over.items()]
    heapify(heap)
    for c in range(len(legs), 2 * len(legs) - 1):
        while heap:
            e = heappop(heap)
            a, b = e >> bits & mask, e & mask
            if legs[a] is not None and legs[b] is not None:
                size = e >> 2 * bits
                break
        else:
            live = [i for i, ls in enumerate(legs) if ls is not None]
            size, a, b = min((sizes[a] * sizes[b], a, b) for a, b in combinations(live, 2))
        out, shared = _kept(legs[a], legs[b])
        name = (keys[a], keys[b], shared)
        key = memo.get(name)
        if key is None:
            key = _store(memo, values, name, *_merge(values[keys[a]], values[keys[b]], shared))
        legs[a] = legs[b] = None
        over = {}  # neighbour -> product of the squared dims it shares with c
        for w in out:
            n = second[w]
            if n is not None:  # c takes over the end that a or b held
                if legs[n] is None:
                    second[w], n = c, first[w]
                else:
                    first[w] = c
                over[n] = over.get(n, 1) * square[w]
        legs.append(out)
        keys.append(key)
        sizes.append(size)
        for n, d in over.items():
            heappush(heap, (sizes[n] * size // d << bits | n) << bits | c)
    return legs[-1], keys[-1]


def _kept(la, lb) -> tuple:
    """(legs, shared) of merging la and lb: the wires of la that lb lacks,
    then those of lb that la lacks; and (position in la, position in lb) of
    each wire they share, in la's order. Every plan step runs here once, in
    plain loops, which cost less than comprehensions on legs this short."""
    out, shared = [], []
    for i, w in enumerate(la):
        if w in lb:
            shared.append((i, lb.index(w)))
        else:
            out.append(w)
    for w in lb:
        if w not in la:
            out.append(w)
    return tuple(out), tuple(shared)


def _store(memo: dict, values: list, name, dims, entries) -> int:
    """Key of the value (dims, entries), computed once per `name` in one
    contract() call: the next free index into `values`."""
    memo[name] = len(values)
    values.append((dims, entries))
    return memo[name]


def _getter(positions):
    """idx -> the tuple of idx's entries at `positions`: one itemgetter call
    for two or more positions, which it already returns as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda idx: (idx[i],)
    return lambda idx: ()


@lru_cache(maxsize=1024)
def _layout(da, db, shared) -> tuple:
    """Getters of a merge of operands with dims da and db, cached by shape
    alone: (kept of a, shared of a, kept of b, shared of b), each reading an
    index tuple's entries at those positions, the shared ones paired as in
    `shared` (a key that need only match between a and b, so a single one
    is read as a scalar); and the result's dims, a's kept legs then b's."""
    a_sh, b_sh = zip(*shared) if shared else ((), ())
    a_keep, b_keep = (tuple(i for i in range(len(d)) if i not in sh) for d, sh in ((da, a_sh), (db, b_sh)))
    a_key, b_key = (itemgetter(*sh) if shared else _getter(()) for sh in (a_sh, b_sh))
    dims = tuple(da[i] for i in a_keep) + tuple(db[i] for i in b_keep)
    return _getter(a_keep), a_key, _getter(b_keep), b_key, dims


def _merge(va: tuple, vb: tuple, shared) -> tuple:
    """The merge of two (dims, entries) values as an exact sparse hash-join
    on the shared indices: each entry of b is bucketed once by its shared
    indices, with its kept ones, and each entry of a reads its kept indices
    once and meets the bucket its shared indices name. (dims, entries)."""
    a_keep, a_sh, b_keep, b_sh, dims = _layout(va[0], vb[0], shared)
    buckets: dict = {}
    for idx, w in vb[1].items():
        k = b_sh(idx)
        hits = buckets.get(k)
        if hits is None:
            buckets[k] = [(b_keep(idx), w)]
        else:
            hits.append((b_keep(idx), w))
    out: dict = {}
    get = out.get
    for idx, v in va[1].items():
        hits = buckets.get(a_sh(idx))
        if hits:
            left = a_keep(idx)
            for right, w in hits:
                full = left + right
                out[full] = get(full, 0) + v * w
    return dims, {k: v for k, v in out.items() if v}  # drop entries that summed to 0


def _to_dense(legs, value: tuple, order):
    """A fresh ndarray of the value with wire-id legs `legs`, axes in
    `order`: int64 when every entry fits, otherwise dtype=object holding
    the exact Python ints."""
    if set(order) != set(legs) or len(order) != len(legs):
        raise ValueError("output legs disagree with remaining legs")
    import numpy as np

    dims, entries = value
    vals = list(entries.values())
    fits = -(1 << 63) <= min(vals, default=0) and max(vals, default=0) < 1 << 63
    kind = np.int64 if fits else object
    if not order:
        return np.array(entries.get((), 0), dtype=kind)
    perm = [legs.index(l) for l in order]
    arr = np.zeros([dims[i] for i in perm], dtype=kind)
    if vals:
        cols = list(zip(*entries))
        arr[tuple(cols[i] for i in perm)] = vals
    return arr


def _reversed(net: VertexNetwork) -> VertexNetwork:
    """The same network with its vertex list reversed, each end renumbered
    and the open legs in their declared order: the same tensor, reached by
    another greedy plan under other memo keys."""
    last = len(net.vertices) - 1
    edges = [[(last - v, s) for v, s in e] for e in net.edges]
    return VertexNetwork(net.vertices[::-1], edges, [(last - v, s) for v, s in net.open_legs])


def paths_agree(net: VertexNetwork) -> bool:
    """Whether net.contract() and the contraction of the network with its
    vertex list reversed are one array of one dtype, equal to dense_oracle's
    float einsum. dense_oracle runs first, so a network past its 52 wires
    is refused before any contraction."""
    import numpy as np

    oracle = dense_oracle(net)
    got, again = net.contract(), _reversed(net).contract()
    return got.dtype == again.dtype and np.array_equal(got, again) and np.array_equal(got.astype(float), oracle)


def dense_oracle(net: VertexNetwork):
    """Independent reference: one float64 einsum over the whole network,
    contracted in the pairwise order numpy's own greedy path search picks
    (independent of _reduce's plan); unoptimised, its nested loop grows as
    the product of every wire dimension. Its subscripts are the network's
    own wire ids, which numpy takes in [0, 52): at most 52 wires."""
    import numpy as np

    if not net.vertices:
        return np.ones(())
    if len(net.edges) + len(net.open_legs) > 52:
        raise ValueError("too many distinct wires for einsum subscripts")
    axes = [range(len(vert.slot_names)) for vert in net.vertices]
    ops = [_to_dense(ax, vert.tensor, ax).astype(np.float64) for ax, vert in zip(axes, net.vertices)]
    return np.einsum(*chain(*zip(ops, net._legs)), list(net._out), optimize="greedy")
