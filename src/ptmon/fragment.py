"""Basis layouts and compiled min/max decoders over them.

A basis has one of two layouts, and each is one class with the same few
members (:attr:`~AtomicDictionary.dim`, :attr:`~AtomicDictionary.k_max`,
:attr:`~AtomicDictionary.basis_kind`, :attr:`~AtomicDictionary.key`,
:meth:`~AtomicDictionary.compile`, :meth:`~AtomicDictionary.basis` and
:attr:`~AtomicDictionary.predicts_steps`), so code that reads a basis asks
its layout and never which layout it has:

* an :class:`AtomicDictionary` fixes a finite set of window formulas
  (atoms). Any formula built from those atoms with ``&``/``|`` can be
  *decoded* — its robustness recovered exactly — from the vector of atom
  robustness values, because conjunction and disjunction act as
  coordinatewise min/max;
* a :class:`HistoryLayout` holds every predicate at every lag up to its
  depth; the same construction unrolls window operators into min/max over
  lagged coordinates, so one decoder type serves both layouts.

Decoders are trees of ``leaf`` / ``min`` / ``max`` nodes. They are monotone
in every coordinate and 1-Lipschitz for the sup norm, which is what makes
uniform lower bounds on the basis transfer to the decoded value. Each names
its layout by the layout's :attr:`~AtomicDictionary.key`, which holds no
layout, so certification can refuse a decoder of another layout of the same
dimension. On its first decode a decoder turns its tree into straight-line
Python, written by one walk of the tree: :attr:`Decoder.read` for one
basis vector, with the built-in ``min``/``max`` over a list of floats, and
:attr:`Decoder.read_series` for the columns of a row-major basis matrix,
which reduces each run of consecutive rows in one numpy call. The same
walk writes :attr:`Decoder.read_shifted`, which subtracts a shift passed as
a list from each coordinate it reads, for every restricted monitor.

Both compilers build their tree first over plain ``int`` leaves and
``(op, children)`` tuples, where flattening and dropping repeated children
cost C-level hashing and comparison; only the surviving nodes become
``Leaf``/``MinNode``/``MaxNode`` objects. A window over a predicate of the
layout unrolls in one step, into the ``range`` of coordinates it reads,
with no call per lag. ``Leaf`` objects are immutable values, so every tree
takes its leaves from one shared table, ``Leaf(i)`` made once per
coordinate ``i``: the table never outgrows the largest layout dimension
compiled for.

Formula nodes are interned (:mod:`ptmon.logic`), so the process keeps one
decoder per layout and node: :func:`compile_semantic_decoder` keeps its
decoders on the dictionary, keyed by node, and
:func:`compile_history_decoder` keeps its decoders on the node, keyed by
``(m, k_max)``. Each is compiled, checked and given its read-outs once, and
every monitor, copy and later calibration of that layout shares it. Neither
table is module-level: a decoder, and its read-outs, are freed by reference
counting once its node, or a semantic decoder's dictionary, is.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .logic import (
    Always,
    And,
    Eventually,
    Formula,
    NotInFragmentError,
    Or,
    Predicate,
    TimeInterval,
    format_formula,
    horizon,
    parse_formula,
)
from .robustness import (
    BasisKind,
    BasisVector,
    WindowLayout,
    _basis_rows,
    stack_lags,
    window_layout,
)


class HorizonExceededError(ValueError):
    """Formula reads further back than the configured history depth."""


class BasisMismatchError(ValueError):
    """A basis, decoder or buffer is read in a layout other than its own:
    another layout kind or dimension, another dictionary, or another
    history depth of the same dimension."""


@dataclass(frozen=True)
class AtomicDictionary:
    """The semantic layout: an ordered tuple of distinct atom formulas, one
    basis coordinate per atom.

    ``m`` is the number of predicates the atoms range over. The history depth
    ``K_max`` (also :attr:`k_max`) is derived as the largest atom horizon,
    ``window_layout`` tells semantic basis extraction which atoms share its
    one sliding-extremum pass, and each atom's coordinate is looked up in one
    index that every :func:`compile_semantic_decoder` call shares; all
    three are computed once per dictionary, and so is :attr:`key`, the
    ``(m, atoms)`` pair every decoder compiled for it carries. Equal
    dictionaries have equal keys. Atoms are interned nodes, so an
    atom lookup is an identity hit. The dictionary also keeps the semantic
    decoders compiled for it, weakly keyed by formula node and left out of
    its pickled state, so equal dictionaries built apart compile apart;
    :func:`dictionary_from_json` loads an equal dictionary as the live one.

    Its predictor emits the atom columns themselves (:attr:`predicts_steps`
    is false), and :meth:`basis` computes the true ones from margins.
    """

    atoms: tuple[Formula, ...]
    m: int

    basis_kind = BasisKind.SEMANTIC
    predicts_steps = False

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("dictionary needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("dictionary atoms must be pairwise structurally distinct")
        for atom in self.atoms:
            for k in _predicate_names(atom):
                if k < 0 or k >= self.m:
                    raise ValueError(f"atom uses predicate index {k} outside 0..{self.m - 1}")
        object.__setattr__(self, "k_max", self.K_max)
        # Never equal to a history key, whose second entry is an int.
        object.__setattr__(self, "key", (self.m, self.atoms))

    @functools.cached_property
    def K_max(self) -> int:
        return max(horizon(a) for a in self.atoms)

    @functools.cached_property
    def window_layout(self) -> WindowLayout:
        return window_layout(self.atoms)

    @functools.cached_property
    def _atom_index(self) -> dict[Formula, int]:
        return {atom: q for q, atom in enumerate(self.atoms)}

    @functools.cached_property
    def _decoders(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        # A weak table cannot be pickled, and its decoders are rebuilt on use.
        return {k: v for k, v in self.__dict__.items() if k != "_decoders"}

    @property
    def r(self) -> int:
        return len(self.atoms)

    dim = r

    def compile(self, f: Formula) -> "Decoder":
        return compile_semantic_decoder(f, self)

    def basis(self, mu: np.ndarray) -> np.ndarray:
        """The atoms' robustness at the times ``K_max .. n-1`` of ``(m, n)`` margins."""
        return _basis_rows(mu, self)

    @functools.cached_property
    def predicate_names(self) -> tuple[str, ...]:
        names = {}
        for atom in self.atoms:
            names.update(_predicate_names(atom))
        return tuple(names.get(k, f"p{k}") for k in range(self.m))


@dataclass(frozen=True)
class HistoryLayout:
    """The predicate-history layout: every one of ``m`` predicates at every
    lag up to ``k_max``, coordinate ``k * (k_max + 1) + j`` holding
    predicate ``k`` at lag ``j``.

    It has the members of :class:`AtomicDictionary` that read a basis. Its
    predictor emits per-step margins (:attr:`predicts_steps`), which
    :meth:`basis` stacks into history columns as it does true margins, and
    :attr:`key` is the ``(m, k_max)`` pair every decoder compiled for it
    carries.
    """

    m: int
    k_max: int

    basis_kind = BasisKind.PREDICATE_HISTORY
    predicts_steps = True

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.k_max, int) and self.m >= 1 and self.k_max >= 0):
            raise ValueError(f"need integers m >= 1 and k_max >= 0, got m={self.m!r}, k_max={self.k_max!r}")
        object.__setattr__(self, "key", (self.m, self.k_max))

    @property
    def dim(self) -> int:
        return self.m * (self.k_max + 1)

    def compile(self, f: Formula) -> "Decoder":
        return compile_history_decoder(f, self.m, self.k_max)

    def basis(self, mu: np.ndarray) -> np.ndarray:
        """History columns over the valid times of ``(m, n)`` per-step values."""
        return stack_lags(mu, self.k_max)


def _predicate_names(f: Formula) -> dict[int, str]:
    if isinstance(f, Predicate):
        return {f.index: f.name}
    if isinstance(f, (And, Or)):
        return {**_predicate_names(f.left), **_predicate_names(f.right)}
    return _predicate_names(f.child)


def build_depth1_dictionary(
    m: int,
    intervals: Sequence[TimeInterval | tuple[int, int]],
    predicate_names: Sequence[str] | None = None,
) -> AtomicDictionary:
    """All single-window atoms over ``m`` predicates and the given windows.

    Atoms are ordered predicate-major: for each predicate, for each interval
    in the given order, the ``G`` atom then the ``F`` atom. The result has
    ``2 * m * len(intervals)`` atoms. Duplicate intervals are rejected.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    ivs = [iv if isinstance(iv, TimeInterval) else TimeInterval(*iv) for iv in intervals]
    if not ivs:
        raise ValueError("intervals must be nonempty")
    if len(set(ivs)) != len(ivs):
        raise ValueError("duplicate interval in dictionary specification")
    if predicate_names is None:
        predicate_names = [f"p{k}" for k in range(m)]
    elif len(predicate_names) != m:
        raise ValueError("predicate_names length must equal m")
    atoms: list[Formula] = []
    for k in range(m):
        p = Predicate(predicate_names[k], k)
        for iv in ivs:
            atoms.append(Always(iv, p))
            atoms.append(Eventually(iv, p))
    return AtomicDictionary(tuple(atoms), m)


# ---------------------------------------------------------------------------
# Decoder trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class MinNode:
    children: tuple["DecoderNode", ...]


@dataclass(frozen=True)
class MaxNode:
    children: tuple["DecoderNode", ...]


DecoderNode = Union[Leaf, MinNode, MaxNode]


def _nodes(root: DecoderNode) -> Iterator[DecoderNode]:
    """Every node of a decoder tree, each parent before its children and
    siblings last to first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, Leaf):
            stack.extend(node.children)


@dataclass(frozen=True)
class Decoder:
    """A compiled min/max read-out over one basis layout.

    ``formula`` is the :func:`~ptmon.logic.format_formula` text of the
    formula it was compiled from and ``horizon`` that formula's horizon, so
    certification never walks the formula again. The tree is checked when
    the decoder is built: every leaf reads an ``int`` coordinate in
    ``0..dim-1`` and every min/max node has at least one child (a one-child
    node reads its child). The same walk fills ``support``, the
    ``frozenset`` of coordinates the leaves read, and ``support_index``,
    the same coordinates sorted once into a read-only ``np.intp`` array,
    which radius queries read the score cache's columns with. Both are
    set when the decoder is built, not on first use as the read-outs are:
    on CPython 3.11 a cached property makes every later attribute read of
    the decoder slower, and certification reads several per call.

    Decoding runs a function generated once per decoder on its first use:
    :attr:`read` with the built-in ``min``/``max`` over a list of floats
    (:func:`decode_values`, and streaming certification), its shifted twin
    :attr:`read_shifted` (restricted monitors), or :attr:`read_series` with
    ``np.minimum``/``np.maximum`` over the rows of a C-order ``(dim, n)``
    matrix (:func:`decode_series`). All three come from the same walk of
    the tree and give the same values; on a tie between
    ``0.0`` and ``-0.0`` the built-in ``min``/``max`` keep the first
    argument and numpy the later one. The compilers return one decoder per
    layout and formula node, so every monitor of that layout shares these
    read-outs.

    ``layout`` is the :attr:`~AtomicDictionary.key` of the layout the
    compilers built the decoder for: a key, not the layout, since a
    dictionary keeps its decoders. Certification compares it with the
    monitor's layout key. A hand-built decoder has none, and no monitor
    certifies with it.
    """

    root: DecoderNode
    basis_kind: BasisKind
    dim: int
    formula: str
    horizon: int
    layout: tuple | None = None

    def __post_init__(self) -> None:
        support, stack = set(), [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                # ``type`` rather than ``isinstance``: the index is written
                # into generated source, so it must print as a plain literal.
                if type(node.index) is not int or not 0 <= node.index < self.dim:
                    raise ValueError(f"leaf index {node.index!r} outside 0..{self.dim - 1}")
                support.add(node.index)
            elif node.children:
                stack.extend(node.children)
            else:
                raise ValueError(f"{type(node).__name__} needs at least one child")
        index = np.array(sorted(support), dtype=np.intp)
        index.flags.writeable = False
        object.__setattr__(self, "support", frozenset(support))
        object.__setattr__(self, "support_index", index)

    def __getstate__(self) -> dict:
        # The generated read-outs are functions without an importable name;
        # an unpickled decoder generates its own on first decode, and fills
        # its support in ``__setstate__``.
        derived = ("_sources", "read", "read_series", "read_shifted", "support", "support_index")
        return {k: v for k, v in self.__dict__.items() if k not in derived}

    def __setstate__(self, state: dict) -> None:
        # An unpickled decoder checks its tree and fills its support again:
        # numpy unpickles arrays writeable, so the index is sorted afresh.
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @functools.cached_property
    def _sources(self) -> tuple[str, str, str]:
        # The three read-outs' source, from one walk of the tree; each
        # read-out is compiled on its own first use.
        return _write_sources(self.root)

    @functools.cached_property
    def read(self) -> Callable:
        """The tree as one straight-line function ``read(v, lo, hi)``.

        Every min/max node of two or more children becomes one line
        ``t<k> = lo(...)`` (min) or ``t<k> = hi(...)`` (max) whose arguments
        are its children in tree order; a leaf is ``v[index]`` and a
        one-child node is its child. Children come before their parent, so
        no expression nests and the source holds nothing but ``int``
        indices, ``t<k>`` names and ``lo``/``hi``.
        """
        return _compiled(self._sources[0], "read")

    @functools.cached_property
    def read_series(self) -> Callable:
        """The tree as ``read_series(v, lo, hi, lo_run, hi_run)`` over the
        rows of a C-order ``(dim, n)`` matrix ``v``, from the same walk as
        :attr:`read`.

        Each maximal run of two or more consecutive leaf indices ``a .. b-1``
        among a node's children reads as one slab, ``lo_run(v[a:b])``; a
        node's arguments are then folded left to right in tree order, one
        binary ``lo``/``hi`` call per line. A one-leaf tree returns a row of
        ``v`` itself.
        """
        return _compiled(self._sources[1], "read_series")

    @functools.cached_property
    def read_shifted(self) -> Callable:
        """The tree as ``read(v, c, lo, hi)``: :attr:`read` of the floats
        ``v[i] - c[i]``, bit for bit, reading only :attr:`support`. It opens
        with one line ``s<i> = v[<i>] - c[<i>]`` per support coordinate, in
        ascending order, then reads leaf ``i`` as ``s<i>``; the shift ``c``
        is never written into the source, so ``-0.0``, ``inf`` and ``nan``
        need no literal.
        """
        return _compiled(self._sources[2], "read")


def _write_sources(root: DecoderNode) -> tuple[str, str, str]:
    """The source of :attr:`Decoder.read`, :attr:`Decoder.read_series` and
    :attr:`Decoder.read_shifted`, written in one walk of the tree."""
    lines: list[str] = []
    shifted: list[str] = []
    series: list[str] = []
    names: dict[int, str] = {}
    support: set[int] = set()

    def ref(node: DecoderNode, leaf: str = "v[{}]") -> str:
        return leaf.format(node.index) if isinstance(node, Leaf) else names[id(node)]

    def line(name: str, op: str, args: list[str]) -> str:
        expr = args[0] if len(args) == 1 else f"{op}({', '.join(args)})"
        return f"    {name} = {expr}\n"

    # Reversed, ``_nodes`` puts every child before its parent and
    # siblings first to last.
    for node in reversed(list(_nodes(root))):
        if isinstance(node, Leaf):
            support.add(node.index)
            continue
        op = "lo" if isinstance(node, MinNode) else "hi"
        names[id(node)] = name = f"t{len(lines)}"
        lines.append(line(name, op, [ref(c) for c in node.children]))
        shifted.append(line(name, op, [ref(c, "s{}") for c in node.children]))
        rows = []
        for _, run in itertools.groupby(enumerate(node.children), _run_key):
            run = [c for _, c in run]
            rows.append(ref(run[0]) if len(run) == 1 else f"{op}_run(v[{run[0].index}:{run[-1].index + 1}])")
        series.append(f"    {name} = {rows[0]}\n")
        series += [f"    {name} = {op}({name}, {row})\n" for row in rows[1:]]
    prologue = [f"    s{i} = v[{i}] - c[{i}]\n" for i in sorted(support)]
    return (
        "def read(v, lo, hi):\n" + "".join(lines) + f"    return {ref(root)}\n",
        "def read_series(v, lo, hi, lo_run, hi_run):\n" + "".join(series) + f"    return {ref(root)}\n",
        "def read(v, c, lo, hi):\n" + "".join(prologue + shifted) + f"    return {ref(root, 's{}')}\n",
    )


def _run_key(item: tuple[int, DecoderNode]):
    # Leaves whose indices grow by one from one child to the next share a
    # key; every other child has a key of its own.
    position, node = item
    return node.index - position if isinstance(node, Leaf) else item


def _compiled(source: str, name: str) -> Callable:
    # Popped, so that the function's ``__globals__`` does not hold the
    # function: a dropped read-out is freed by reference counting.
    namespace: dict = {}
    exec(source, namespace)
    return namespace.pop(name)


# The intermediate a compiler builds first: a leaf is its ``int``
# coordinate, a min/max node ``(op, children)`` with ``op`` one of
# ``_MIN``/``_MAX`` and a tuple of children. Two intermediates are equal
# exactly when the trees they stand for are, which ``_join`` relies on.
_MIN, _MAX = 0, 1


def _join(op: int, children: Iterable) -> int | tuple:
    # Flatten children of the same operator and drop repeated children,
    # keeping the first; both rewrites preserve the computed min/max in
    # value. A dropped child can change which of two tied zeros a fold
    # returns: ``(p0 & p1) & p0`` at ``p0 = 0.0, p1 = -0.0`` decodes in
    # batch to ``-0.0`` where ``robustness_series`` gives ``0.0``. The sign
    # of a zero is no contract here anyway: on a tie, ``min``/``max``
    # (streaming) keep the first argument and ``np.minimum``/``np.maximum``
    # (batch) the second, so ``p0 & p1`` at those margins reads ``0.0``
    # streamed and ``-0.0`` in batch (``TIE_VALUES`` in the fragment tests).
    # Repeats stay dropped.
    flat: list = []
    for child in children:
        if type(child) is tuple and child[0] == op:
            flat.extend(child[1])
        else:
            flat.append(child)
    kept = tuple(dict.fromkeys(flat))
    return kept[0] if len(kept) == 1 else (op, kept)


class _LeafTable(dict):
    """One ``Leaf`` per coordinate, made on the first compile that reads it
    and shared by every tree compiled after: a ``Leaf`` is an immutable
    value compared by value, so no tree can tell a shared one from its own.
    The table holds at most one leaf per coordinate below the largest
    layout dimension any decoder was compiled for."""

    def __missing__(self, index: int) -> Leaf:
        leaf = self[index] = Leaf(index)
        return leaf


_LEAVES = _LeafTable()


def _materialise(node: int | tuple) -> DecoderNode:
    """The ``Leaf``/``MinNode``/``MaxNode`` tree of an intermediate."""
    if type(node) is int:
        return _LEAVES[node]
    op, children = node
    return (MinNode if op == _MIN else MaxNode)(tuple(map(_materialise, children)))


def compile_semantic_decoder(f: Formula, dictionary: AtomicDictionary) -> Decoder:
    """Decoder reading the per-atom robustness vector of ``dictionary``.

    Membership is syntactic: walking down from the root, every node must
    either be a dictionary atom (the same interned node, window bounds
    included), which reads that atom's coordinate, or be an ``&``/``|``
    whose children compile in turn. Semantically equivalent rewrites (e.g. a
    wider window that happens to coincide on some data) do not count. On
    failure raises :class:`~ptmon.logic.NotInFragmentError` carrying the
    offending maximal subtree.

    The decoder is compiled on the first call for ``(dictionary, f)`` and
    kept on the dictionary while ``f`` lives; later calls return it.
    """
    table = dictionary._decoders
    d = table.get(f)
    if d is None:
        d = table[f] = _semantic_decoder(f, dictionary)
    return d


def _semantic_decoder(f: Formula, dictionary: AtomicDictionary) -> Decoder:
    atom_index = dictionary._atom_index

    def build(node: Formula) -> int | tuple:
        q = atom_index.get(node)
        if q is not None:
            return q
        if isinstance(node, (And, Or)):
            op = _MIN if isinstance(node, And) else _MAX
            return _join(op, (build(node.left), build(node.right)))
        raise NotInFragmentError(node)

    root = _materialise(build(f))
    return Decoder(root, BasisKind.SEMANTIC, dictionary.r, format_formula(f), horizon(f), dictionary.key)


def compile_history_decoder(f: Formula, m: int, k_max: int) -> Decoder:
    """Decoder reading the predicate-history vector of depth ``k_max``.

    Window operators unroll into min/max over their child shifted by every
    lag in the window; predicates at accumulated lag ``j`` read coordinate
    ``k*(k_max+1) + j``. Requires ``horizon(f) <= k_max``.

    A window ``[a,b]`` over a predicate ``k`` of the layout, at accumulated
    lag ``j``, unrolls in one step: with ``lo = k*(k_max+1) + j + a``, it is
    the leaf ``lo`` when ``a == b`` and otherwise the min/max over the
    consecutive coordinates ``lo .. lo+b-a``, the tree the per-lag
    recursion builds. Nested windows, ``&``/``|`` and predicates outside the
    layout recurse per lag, so an out-of-layout predicate raises where it
    always did, in tree order and after the horizon check.

    The decoder is compiled on the first call for ``(m, k_max)`` and kept on
    ``f``; later calls return it.
    """
    try:
        return f.__dict__["_decoders"][m, k_max]
    except KeyError:
        pass
    d = f.__dict__.setdefault("_decoders", {})[m, k_max] = _history_decoder(f, m, k_max)
    return d


def _history_decoder(f: Formula, m: int, k_max: int) -> Decoder:
    h = horizon(f)
    if h > k_max:
        raise HorizonExceededError(
            f"formula horizon {h} exceeds history depth {k_max}: {format_formula(f)}"
        )
    width = k_max + 1

    def build(node: Formula, lag: int) -> int | tuple:
        if isinstance(node, Predicate):
            if node.index < 0 or node.index >= m:
                raise ValueError(f"predicate index {node.index} outside 0..{m - 1}")
            return node.index * width + lag
        if isinstance(node, (And, Or)):
            op = _MIN if isinstance(node, And) else _MAX
            return _join(op, (build(node.left, lag), build(node.right, lag)))
        op, iv, child = _MIN if isinstance(node, Always) else _MAX, node.interval, node.child
        if isinstance(child, Predicate) and 0 <= child.index < m:
            # What ``_join`` makes of the per-lag list: distinct ``int``
            # leaves, consecutive coordinates in lag order.
            lo = child.index * width + lag + iv.a
            return lo if iv.a == iv.b else (op, tuple(range(lo, lo + iv.b - iv.a + 1)))
        return _join(op, [build(child, lag + d) for d in range(iv.a, iv.b + 1)])

    root = _materialise(build(f, 0))
    return Decoder(root, BasisKind.PREDICATE_HISTORY, m * width, format_formula(f), h, (m, k_max))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _run(op: np.ufunc) -> Callable[[np.ndarray], np.ndarray]:
    """``op`` reduced over the rows of a C-order slab, first to last.

    With two or more columns numpy runs an axis-0 ``reduce`` as one
    element-wise ``op(accumulator, row)`` per row, the left fold itself,
    which on a tie between ``0.0`` and ``-0.0`` keeps the later row. With
    one column the slab is contiguous along the axis, and numpy takes a
    vectorised reduction that may keep another of the tied zeros, so one
    column is folded row by row.
    """
    return lambda slab: op.reduce(slab, axis=0) if slab.shape[1] > 1 else functools.reduce(op, slab)


_RUN_MIN, _RUN_MAX = _run(np.minimum), _run(np.maximum)


def decode(d: Decoder, basis: BasisVector) -> float:
    """Read the decoder off a basis snapshot.

    The snapshot must carry the decoder's basis kind and dimension; a
    :class:`BasisMismatchError` is raised otherwise.
    """
    if basis.kind is not d.basis_kind:
        raise BasisMismatchError(f"decoder reads {d.basis_kind.value}, basis is {basis.kind.value}")
    return decode_values(d, basis.values)


def decode_values(d: Decoder, values: np.ndarray) -> float:
    """Like :func:`decode` for a bare vector (dimension still checked)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (d.dim,):
        raise BasisMismatchError(
            f"decoder expects dimension {d.dim}, got shape {values.shape}"
        )
    return d.read(values.tolist(), min, max)


def decode_series(d: Decoder, values: np.ndarray) -> np.ndarray:
    """Decode every column of a ``(dim, n)`` basis matrix at once.

    The matrix is read row-major (:attr:`Decoder.read_series`), copied to C
    order first unless it is already, and the result is a new array that
    holds no reference to it. Each column's value equals, bit for bit, the
    left fold of ``np.minimum``/``np.maximum`` over every node's children in
    tree order, whatever the input's layout (see :func:`_run`).
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != d.dim:
        raise BasisMismatchError(
            f"decoder expects ({d.dim}, n) columns, got shape {values.shape}"
        )
    out = d.read_series(values, np.minimum, np.maximum, _RUN_MIN, _RUN_MAX)
    # A one-leaf read-out is a row of ``values``.
    return out if out.base is None else out.copy()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def dictionary_to_json(dictionary: AtomicDictionary) -> dict:
    return {
        "m": dictionary.m,
        "predicate_names": list(dictionary.predicate_names),
        "atoms": [format_formula(a) for a in dictionary.atoms],
    }


# Every live dictionary that :func:`dictionary_from_json` built, by its key.
_LOADED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def dictionary_from_json(obj: dict) -> AtomicDictionary:
    """The dictionary :func:`dictionary_to_json` wrote. While one built
    here lives, an equal one loads as that same object, so every model
    loaded with it shares its semantic decoders and read-outs."""
    names = list(obj["predicate_names"])
    atoms = tuple(parse_formula(text, names) for text in obj["atoms"])
    m = int(obj["m"])
    d = _LOADED.get((m, atoms))
    if d is None:
        d = AtomicDictionary(atoms, m)
        _LOADED[d.key] = d
    return d
