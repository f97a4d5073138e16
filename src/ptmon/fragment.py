"""Atomic dictionaries and compiled min/max decoders over robustness bases.

A dictionary fixes a finite set of window formulas (atoms). Any formula built
from those atoms with ``&``/``|`` can be *decoded* — its robustness recovered
exactly — from the vector of atom robustness values, because conjunction and
disjunction act as coordinatewise min/max. The same construction unrolls
window operators into min/max over lagged predicate-history coordinates, so
one decoder type serves both basis layouts.

Decoders are trees of ``leaf`` / ``min`` / ``max`` nodes. They are monotone
in every coordinate and 1-Lipschitz for the sup norm, which is what makes
uniform lower bounds on the basis transfer to the decoded value. On its first
decode a decoder turns its tree into straight-line Python, written by one
walk of the tree: :attr:`Decoder.read` for one basis vector, with the
built-in ``min``/``max`` over a list of floats, and
:attr:`Decoder.read_series` for the columns of a row-major basis matrix,
which reduces each run of consecutive rows in one numpy call. The same
walk writes a monitor's shifted read-out of a decoder (:func:`_shifted_read`),
which subtracts the monitor's shift from each coordinate as it reads it.

Both compilers build their tree first over plain ``int`` leaves and
``(op, children)`` tuples, where flattening and dropping repeated children
cost C-level hashing and comparison; only the surviving nodes become
``Leaf``/``MinNode``/``MaxNode`` objects.
"""

from __future__ import annotations

import functools
import itertools
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
    window_layout,
)


class HorizonExceededError(ValueError):
    """Formula reads further back than the configured history depth."""


class BasisMismatchError(ValueError):
    """Basis vector and decoder disagree on layout kind or dimension."""


@dataclass(frozen=True)
class AtomicDictionary:
    """An ordered tuple of structurally distinct atom formulas.

    ``m`` is the number of predicates the atoms range over. The history depth
    ``K_max`` is derived as the largest atom horizon, ``window_layout``
    tells semantic basis extraction which atoms share its one
    sliding-extremum pass, and each atom's coordinate is looked up in one
    index that every :func:`compile_semantic_decoder` call shares; all
    three are computed once per dictionary.
    """

    atoms: tuple[Formula, ...]
    m: int

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("dictionary needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("dictionary atoms must be pairwise structurally distinct")
        for atom in self.atoms:
            for k in _predicate_names(atom):
                if k < 0 or k >= self.m:
                    raise ValueError(f"atom uses predicate index {k} outside 0..{self.m - 1}")

    @functools.cached_property
    def K_max(self) -> int:
        return max(horizon(a) for a in self.atoms)

    @functools.cached_property
    def window_layout(self) -> WindowLayout:
        return window_layout(self.atoms)

    @functools.cached_property
    def _atom_index(self) -> dict[Formula, int]:
        return {atom: q for q, atom in enumerate(self.atoms)}

    @property
    def r(self) -> int:
        return len(self.atoms)

    @functools.cached_property
    def predicate_names(self) -> tuple[str, ...]:
        names = {}
        for atom in self.atoms:
            names.update(_predicate_names(atom))
        return tuple(names.get(k, f"p{k}") for k in range(self.m))


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
    (:func:`decode_values`, and streaming certification), or
    :attr:`read_series` with ``np.minimum``/``np.maximum`` over the rows of
    a C-order ``(dim, n)`` matrix (:func:`decode_series`). Both come from
    the same walk of the tree and give the same values; on a tie between
    ``0.0`` and ``-0.0`` the built-in ``min``/``max`` keep the first
    argument and numpy the later one.
    """

    root: DecoderNode
    basis_kind: BasisKind
    dim: int
    formula: str
    horizon: int

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
        derived = ("_sources", "read", "read_series", "support", "support_index")
        return {k: v for k, v in self.__dict__.items() if k not in derived}

    def __setstate__(self, state: dict) -> None:
        # An unpickled decoder checks its tree and fills its support again:
        # numpy unpickles arrays writeable, so the index is sorted afresh.
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @functools.cached_property
    def _sources(self) -> tuple[str, str]:
        # Both read-outs' source, from one walk of the tree; each read-out
        # is compiled on its own first use.
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


def _write_sources(root: DecoderNode, shifted: bool = False) -> tuple[str, str]:
    """The source of :attr:`Decoder.read` and of :attr:`Decoder.read_series`,
    written in one walk of the tree.

    When ``shifted``, ``read`` opens with one line ``s<i> = v[<i>] - c<i>``
    per coordinate ``i`` its leaves read, in ascending order, and reads leaf
    ``i`` as ``s<i>``; the names ``c<i>`` are left for the caller to bind
    (see :func:`_shifted_read`). ``read_series`` is the same either way.
    """
    lines: list[str] = []
    series: list[str] = []
    names: dict[int, str] = {}
    support: set[int] = set()
    read_leaf = "s{}" if shifted else "v[{}]"

    def ref(node: DecoderNode, leaf: str = "v[{}]") -> str:
        return leaf.format(node.index) if isinstance(node, Leaf) else names[id(node)]

    # Reversed, ``_nodes`` puts every child before its parent and
    # siblings first to last.
    for node in reversed(list(_nodes(root))):
        if isinstance(node, Leaf):
            support.add(node.index)
            continue
        args = [ref(c, read_leaf) for c in node.children]
        op = "lo" if isinstance(node, MinNode) else "hi"
        expr = args[0] if len(args) == 1 else f"{op}({', '.join(args)})"
        names[id(node)] = name = f"t{len(lines)}"
        lines.append(f"    {name} = {expr}\n")
        rows = []
        for _, run in itertools.groupby(enumerate(node.children), _run_key):
            run = [c for _, c in run]
            rows.append(ref(run[0]) if len(run) == 1 else f"{op}_run(v[{run[0].index}:{run[-1].index + 1}])")
        series.append(f"    {name} = {rows[0]}\n")
        series += [f"    {name} = {op}({name}, {row})\n" for row in rows[1:]]
    prologue = [f"    s{i} = v[{i}] - c{i}\n" for i in sorted(support)] if shifted else []
    return (
        "def read(v, lo, hi):\n" + "".join(prologue + lines) + f"    return {ref(root, read_leaf)}\n",
        "def read_series(v, lo, hi, lo_run, hi_run):\n" + "".join(series) + f"    return {ref(root)}\n",
    )


def _shifted_read(d: Decoder, shift: Sequence[float]) -> Callable:
    """``d``'s :attr:`~Decoder.read` of ``v`` shrunk by ``shift``:
    ``_shifted_read(d, shift)(v, lo, hi)`` equals ``d.read(w, lo, hi)`` for
    ``w[i] = v[i] - shift[i]``, bit for bit, and reads only ``d.support``.

    Generated from the same walk of the tree as :attr:`Decoder.read`. Each
    coordinate's shift is bound as a Python float to the name ``c<i>`` of
    the function's namespace, never written into its source, so ``-0.0``
    keeps its sign and an infinite or NaN shift needs no literal.
    """
    namespace = {f"c{i}": float(shift[i]) for i in d.support}
    return _compiled(_write_sources(d.root, shifted=True)[0], "read", namespace)


def _run_key(item: tuple[int, DecoderNode]):
    # Leaves whose indices grow by one from one child to the next share a
    # key; every other child has a key of its own.
    position, node = item
    return node.index - position if isinstance(node, Leaf) else item


def _compiled(source: str, name: str, namespace: dict | None = None) -> Callable:
    # Popped, so that the function's ``__globals__`` does not hold the
    # function: a dropped read-out is freed by reference counting.
    namespace = {} if namespace is None else namespace
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


def _materialise(node: int | tuple) -> DecoderNode:
    """The ``Leaf``/``MinNode``/``MaxNode`` tree of an intermediate."""
    if type(node) is int:
        return Leaf(node)
    op, children = node
    return (MinNode if op == _MIN else MaxNode)(tuple(map(_materialise, children)))


def compile_semantic_decoder(f: Formula, dictionary: AtomicDictionary) -> Decoder:
    """Decoder reading the per-atom robustness vector of ``dictionary``.

    Membership is syntactic: walking down from the root, every node must
    either equal a dictionary atom node-for-node (window bounds included),
    which reads that atom's coordinate, or be an ``&``/``|`` whose children
    compile in turn. Semantically equivalent rewrites (e.g. a wider window
    that happens to coincide on some data) do not count. On failure raises
    :class:`~ptmon.logic.NotInFragmentError` carrying the offending maximal
    subtree.
    """
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
    return Decoder(root, BasisKind.SEMANTIC, dictionary.r, format_formula(f), horizon(f))


def compile_history_decoder(f: Formula, m: int, k_max: int) -> Decoder:
    """Decoder reading the predicate-history vector of depth ``k_max``.

    Window operators unroll into min/max over their child shifted by every
    lag in the window; predicates at accumulated lag ``j`` read coordinate
    ``k*(k_max+1) + j``. Requires ``horizon(f) <= k_max``.
    """
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
        return _join(op, [build(child, lag + d) for d in range(iv.a, iv.b + 1)])

    root = _materialise(build(f, 0))
    return Decoder(root, BasisKind.PREDICATE_HISTORY, m * width, format_formula(f), h)


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


def dictionary_from_json(obj: dict) -> AtomicDictionary:
    names = list(obj["predicate_names"])
    atoms = tuple(parse_formula(text, names) for text in obj["atoms"])
    return AtomicDictionary(atoms, int(obj["m"]))
