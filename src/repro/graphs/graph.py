"""Immutable simple undirected graph used throughout the reproduction.

The paper models a radio network as a simple undirected connected graph.  The
:class:`Graph` class below is the single substrate every other subsystem
(labeling schemes, round simulator, baselines, benchmarks) builds on.  It is
deliberately small, immutable after construction, and cheap to query:

* nodes are integers ``0..n-1`` (a separate :attr:`Graph.names` mapping keeps
  arbitrary user-facing identifiers when graphs are read from files);
* the primary form is CSR: an ``indptr``/``indices`` pair of ``int64``
  arrays with every neighbour list sorted (vectorised neighbourhood sweeps in
  the simulator hot loop).  It is built from canonical ``(lo, hi)`` edge
  arrays with one stable sort and ``np.bincount``, so building a graph does
  no per-edge work on Python objects;
* the per-node neighbour frozensets (exact set queries, used by the Section
  2.1 construction and by the BFS in :mod:`.traversal`) and
  :attr:`Graph.edge_set`, the frozenset of ``(u, v)`` tuples, are views built
  from the CSR arrays on first use and then cached.  Equality, hashing and
  :attr:`Graph.num_edges` read the arrays, so a sweep never builds the edge
  set;
* hashing/equality are structural so graphs can be deduplicated in sweeps.

The class intentionally does not support mutation: the labeling schemes of the
paper are functions of a *fixed* topology, and an immutable graph keeps every
experiment deterministic and side-effect free.  Use :class:`GraphBuilder` to
assemble a graph incrementally.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = ["Edge", "Graph", "GraphBuilder", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph constructions or queries."""


Edge = Tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) representation of an undirected edge."""
    if u == v:
        raise GraphError(f"self-loop {u!r} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


def _pair_arrays(pairs: Sequence) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The ``(u, v)`` int64 columns of a list of integer pairs, else ``None``."""
    if not pairs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    try:
        arr = np.asarray(pairs)
        if arr.dtype.kind not in "iu":  # e.g. NumPy and Python ints mixed
            arr = np.array([[operator.index(x) for x in pair] for pair in pairs])
    except (TypeError, ValueError, OverflowError):  # ragged or non-integer
        return None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        return None
    arr = arr.astype(np.int64, copy=False)
    return arr[:, 0], arr[:, 1]


def _valid(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """True iff every pair joins two distinct nodes of ``0..n-1``."""
    return not ((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)).any()


def _raise_invalid(n: int, pairs: Iterable) -> NoReturn:
    """Raise for the first invalid pair, checking range before self-loops."""
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
    raise GraphError("edges must be pairs of integer node indices")


def _check_sizes(n: int, names: Optional[Sequence[str]]) -> None:
    if n < 0:
        raise GraphError(f"node count must be non-negative, got {n}")
    if names is not None and len(names) != n:
        raise GraphError(f"names has {len(names)} entries but the graph has {n} nodes")


def _sort_unique(n: int, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Valid ``lo < hi`` pairs in row-major order with duplicates dropped."""
    return np.divmod(np.unique(lo * n + hi), max(n, 1))


def _csr(n: int, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the canonical row-major edge arrays ``lo < hi``."""
    src = np.concatenate((hi, lo))
    # Stable on src: node u's lower neighbours (first half, ascending because
    # the pairs are row-major) precede its higher ones (second half, also
    # ascending), so every neighbour list comes out sorted.
    indices = np.concatenate((lo, hi))[np.argsort(src, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, indices


class Graph:
    """A simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Must be non-negative.
    edge_set:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Duplicate edges (in either orientation) are collapsed; the
        :attr:`edge_set` attribute holds the canonical ``u < v`` pairs.
    names:
        Optional mapping from node index to an external name (used by the
        I/O helpers); purely cosmetic.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> g.degree(0)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    n: int
    names: Optional[Tuple[str, ...]]
    _csr_indptr: np.ndarray
    _csr_indices: np.ndarray

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __init__(
        self,
        n: int,
        edge_set: Iterable[Edge],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        _check_sizes(n, names)
        pairs = list(edge_set)
        arrays = _pair_arrays(pairs)
        if arrays is None or not _valid(n, *arrays):
            _raise_invalid(n, pairs)
        u, v = arrays
        lo, hi = _sort_unique(n, np.minimum(u, v), np.maximum(u, v))
        self._set_canonical(n, lo, hi, names)

    def _set_canonical(
        self, n: int, lo: np.ndarray, hi: np.ndarray, names: Optional[Sequence[str]]
    ) -> None:
        indptr, indices = _csr(n, lo, hi)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.__dict__.update(
            n=operator.index(n),
            names=tuple(names) if names is not None else None,
            _csr_indptr=indptr,
            _csr_indices=indices,
        )

    @classmethod
    def _from_canonical(
        cls,
        n: int,
        lo: np.ndarray,
        hi: np.ndarray,
        names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build from int64 edge arrays that are already canonical.

        ``lo[k] < hi[k] < n`` for every k, the pairs are distinct and in
        row-major order (sorted by ``lo``, then ``hi``).  Nothing is checked:
        this is the generators' path, which emits such arrays directly.
        """
        graph = cls.__new__(cls)
        graph._set_canonical(n, lo, hi, names)
        return graph

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the CSR arrays only; the cached views are rebuilt on demand.
        return {key: self.__dict__[key] for key in ("n", "names", "_csr_indptr", "_csr_indices")}

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from a node count and an edge iterable."""
        edges = list(edges)
        arrays = _pair_arrays(edges)
        if arrays is None:
            edge_set = frozenset(_normalise_edge(u, v) for u, v in edges)
            return cls(n=n, edge_set=edge_set, names=names)
        u, v = arrays
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise GraphError(f"self-loop {edges[loops[0]][0]!r} is not allowed in a simple graph")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _check_sizes(n, names)
        if not _valid(n, lo, hi):
            # Errors name the first invalid edge in edge-set iteration order.
            _raise_invalid(n, frozenset(zip(lo.tolist(), hi.tolist())))
        return cls._from_canonical(n, *_sort_unique(n, lo, hi), names)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "Graph":
        """Build a graph from an adjacency mapping ``{node: neighbours}``.

        The node set is ``0..max_node`` where ``max_node`` is the largest index
        mentioned either as a key or as a neighbour.
        """
        max_node = -1
        edges: List[Edge] = []
        for u, nbrs in adjacency.items():
            max_node = max(max_node, u)
            for v in nbrs:
                max_node = max(max_node, v)
                edges.append((u, v))
        return cls.from_edges(max_node + 1, edges)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Graph on ``n`` nodes with no edges."""
        return cls(n=n, edge_set=frozenset())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------ #
    # cached views of the CSR arrays
    # ------------------------------------------------------------------ #
    @cached_property
    def _adj(self) -> Tuple[FrozenSet[int], ...]:
        """Per-node neighbour frozensets, sliced from the CSR arrays."""
        flat = self._csr_indices.tolist()
        ptr = self._csr_indptr.tolist()
        return tuple(frozenset(flat[a:b]) for a, b in zip(ptr[:-1], ptr[1:]))

    @cached_property
    def edge_set(self) -> FrozenSet[Edge]:
        """The canonical ``(u, v)`` edges with ``u < v`` (built on first use)."""
        return frozenset(self.edges())

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self._csr_indptr.tobytes(), self._csr_indices.tobytes()))

    def _upper(self) -> Tuple[np.ndarray, np.ndarray]:
        """The canonical ``(lo, hi)`` edge arrays, row-major."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._csr_indptr))
        upper = self._csr_indices > rows
        return rows[upper], self._csr_indices[upper]

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return len(self._csr_indices) // 2

    def nodes(self) -> range:
        """Iterate over node indices ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v)`` edges with ``u < v`` in sorted order."""
        lo, hi = self._upper()
        return zip(lo.tolist(), hi.tolist())

    def has_node(self, u: int) -> bool:
        """Return ``True`` if ``u`` is a valid node index."""
        return 0 <= u < self.n

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``{u, v}`` exists."""
        if u == v or u not in self or v not in self:
            return False
        return int(v) in self._adj[int(u)]

    def neighbors(self, u: int) -> FrozenSet[int]:
        """Return the neighbour set of ``u`` as a frozenset."""
        self._check_node(u)
        return self._adj[u]

    def neighbors_array(self, u: int) -> np.ndarray:
        """Return the sorted neighbour indices of ``u`` as a NumPy view."""
        self._check_node(u)
        return self._csr_indices[self._csr_indptr[u] : self._csr_indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (``shape (n,)``)."""
        return np.diff(self._csr_indptr)

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def min_degree(self) -> int:
        """Minimum degree (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees().min(initial=0))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (``shape (n, n)``)."""
        mat = np.zeros((self.n, self.n), dtype=bool)
        rows = np.repeat(np.arange(self.n), np.diff(self._csr_indptr))
        mat[rows, self._csr_indices] = True
        return mat

    def adjacency_lists(self) -> Dict[int, List[int]]:
        """Plain-dict adjacency representation with sorted neighbour lists."""
        return {u: sorted(self._adj[u]) for u in range(self.n)}

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(indptr, indices)`` CSR arrays (read-only)."""
        return self._csr_indptr, self._csr_indices

    # ------------------------------------------------------------------ #
    # set-level neighbourhood queries (used by the Section 2.1 construction)
    # ------------------------------------------------------------------ #
    def neighborhood(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Return Γ(X): the set of nodes adjacent to at least one node of ``X``.

        Matches the paper's definition — note that Γ(X) may intersect X and
        does *not* automatically include X.
        """
        out: set = set()
        for u in nodes:
            out.update(self._adj[u])
        return frozenset(out)

    def closed_neighborhood(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Return Γ(X) ∪ X."""
        nodes = set(nodes)
        return frozenset(nodes | set(self.neighborhood(nodes)))

    def dominates(self, dominators: Iterable[int], targets: Iterable[int]) -> bool:
        """Return ``True`` if every node of ``targets`` has a neighbour in ``dominators``.

        This is the paper's domination relation (a node does not dominate
        itself unless it has a neighbour in the dominating set).
        """
        dom = set(dominators)
        return all(bool(self._adj[t] & dom) for t in targets)

    def count_neighbors_in(self, u: int, subset: Iterable[int]) -> int:
        """Number of neighbours of ``u`` that lie inside ``subset``."""
        self._check_node(u)
        return len(self._adj[u] & set(subset))

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new graph (with nodes relabelled ``0..len(nodes)-1`` in the
        order given) and the mapping from original index to new index.
        """
        nodes = list(dict.fromkeys(nodes))  # preserve order, dedupe
        for u in nodes:
            self._check_node(u)
        remap = {u: i for i, u in enumerate(nodes)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edge_set
            if u in remap and v in remap
        ]
        return Graph.from_edges(len(nodes), edges), remap

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Return an isomorphic graph where old node ``u`` becomes ``permutation[u]``."""
        if sorted(permutation) != list(range(self.n)):
            raise GraphError("permutation must be a bijection on 0..n-1")
        edges = [(permutation[u], permutation[v]) for u, v in self.edge_set]
        return Graph.from_edges(self.n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union: ``other``'s nodes are shifted by ``self.n``."""
        edges = list(self.edge_set) + [(u + self.n, v + self.n) for u, v in other.edge_set]
        return Graph.from_edges(self.n + other.n, edges)

    def add_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with additional edges (the original is unchanged)."""
        added: List[Edge] = []
        for u, v in extra:
            self._check_node(u)
            self._check_node(v)
            added.append(_normalise_edge(u, v))
        lo, hi = self._upper()
        new = np.array(added, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.concatenate((lo, new[:, 0])), np.concatenate((hi, new[:, 1]))
        return Graph._from_canonical(self.n, *_sort_unique(self.n, lo, hi), self.names)

    def remove_edges(self, gone: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with the listed edges removed."""
        removed = {_normalise_edge(u, v) for u, v in gone}
        return Graph(n=self.n, edge_set=frozenset(self.edge_set - removed), names=self.names)

    def complement(self) -> "Graph":
        """Complement graph (no self loops)."""
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edge_set
        ]
        return Graph.from_edges(self.n, edges)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def _check_node(self, u: int) -> None:
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self.n):
            raise GraphError(f"node {u!r} is not in 0..{self.n - 1}")

    def __contains__(self, u: object) -> bool:
        return isinstance(u, (int, np.integer)) and 0 <= int(u) < self.n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self.n == other.n
            and np.array_equal(self._csr_indptr, other._csr_indptr)
            and np.array_equal(self._csr_indices, other._csr_indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"Graph with {self.n} nodes, {self.num_edges} edges, "
            f"max degree {self.max_degree()}"
        )


class GraphBuilder:
    """Mutable helper for assembling a :class:`Graph` incrementally.

    Nodes may be added by arbitrary hashable keys; they are assigned dense
    integer indices in insertion order.  ``build()`` freezes the result.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> b.add_edge("a", "b")
    >>> b.add_edge("b", "c")
    >>> g = b.build()
    >>> g.num_nodes, g.num_edges
    (3, 2)
    """

    def __init__(self) -> None:
        self._index: Dict[object, int] = {}
        self._names: List[str] = []
        self._edges: List[Edge] = []

    def add_node(self, key: object) -> int:
        """Ensure ``key`` exists as a node; return its integer index."""
        if key not in self._index:
            self._index[key] = len(self._index)
            self._names.append(str(key))
        return self._index[key]

    def add_edge(self, a: object, b: object) -> None:
        """Add an undirected edge between the nodes keyed by ``a`` and ``b``."""
        u = self.add_node(a)
        v = self.add_node(b)
        self._edges.append(_normalise_edge(u, v))

    def add_edges(self, pairs: Iterable[Tuple[object, object]]) -> None:
        """Add several edges at once."""
        for a, b in pairs:
            self.add_edge(a, b)

    @property
    def num_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._index)

    def index_of(self, key: object) -> int:
        """Return the integer index previously assigned to ``key``."""
        return self._index[key]

    def build(self) -> Graph:
        """Freeze the accumulated nodes/edges into an immutable :class:`Graph`."""
        return Graph.from_edges(len(self._index), self._edges, names=self._names)
