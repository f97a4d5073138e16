"""Atomic dictionaries and compiled min/max decoders over robustness bases.

A dictionary fixes a finite set of window formulas (atoms). Any formula built
from those atoms with ``&``/``|`` can be *decoded* — its robustness recovered
exactly — from the vector of atom robustness values, because conjunction and
disjunction act as coordinatewise min/max. The same construction unrolls
window operators into min/max over lagged predicate-history coordinates, so
one decoder type serves both basis layouts.

Decoders are plain trees of ``leaf`` / ``min`` / ``max`` nodes. They are
monotone in every coordinate and 1-Lipschitz for the sup norm, which is what
makes uniform lower bounds on the basis transfer to the decoded value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .logic import (
    Always,
    And,
    Decomposition,
    Eventually,
    Formula,
    Or,
    Predicate,
    TimeInterval,
    check_membership,
    format_formula,
    horizon,
    parse_formula,
)
from .robustness import BasisKind, BasisVector, predicate_history_series, semantic_basis_series


class HorizonExceededError(ValueError):
    """Formula reads further back than the configured history depth."""


class BasisMismatchError(ValueError):
    """Basis vector and decoder disagree on layout kind or dimension."""


@dataclass(frozen=True)
class AtomicDictionary:
    """An ordered tuple of structurally distinct atom formulas.

    ``m`` is the number of predicates the atoms range over. The history depth
    ``K_max`` is derived as the largest atom horizon.
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


@dataclass(frozen=True)
class Decoder:
    """A compiled min/max read-out over one basis layout.

    ``formula`` is the :func:`~ptmon.logic.format_formula` text of the
    formula it was compiled from and ``horizon`` that formula's horizon, so
    certification never walks the formula again.
    """

    root: DecoderNode
    basis_kind: BasisKind
    dim: int
    formula: str
    horizon: int

    @functools.cached_property
    def support(self) -> frozenset[int]:
        """The basis coordinates the decoder actually reads."""
        out: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.add(node.index)
            else:
                stack.extend(node.children)
        return frozenset(out)


def _combine(cls, children: Iterable[DecoderNode]) -> DecoderNode:
    # Flatten nested nodes of the same operator and drop duplicate children;
    # both rewrites preserve the computed min/max exactly.
    flat: list[DecoderNode] = []
    seen: set[DecoderNode] = set()
    for child in children:
        parts = child.children if isinstance(child, cls) else (child,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def compile_semantic_decoder(f: Formula, dictionary: AtomicDictionary) -> Decoder:
    """Decoder reading the per-atom robustness vector of ``dictionary``.

    Requires ``f`` to decompose into dictionary atoms (see
    :func:`ptmon.logic.check_membership`, whose error propagates).
    """
    decomposition = check_membership(f, dictionary)

    def build(d: Decomposition) -> DecoderNode:
        if d.op == "atom":
            return Leaf(d.index)
        cls = MinNode if d.op == "and" else MaxNode
        return _combine(cls, (build(c) for c in d.children))

    return Decoder(
        build(decomposition), BasisKind.SEMANTIC, dictionary.r, format_formula(f), horizon(f)
    )


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

    def build(node: Formula, lag: int) -> DecoderNode:
        if isinstance(node, Predicate):
            if node.index < 0 or node.index >= m:
                raise ValueError(f"predicate index {node.index} outside 0..{m - 1}")
            return Leaf(node.index * width + lag)
        if isinstance(node, (And, Or)):
            cls = MinNode if isinstance(node, And) else MaxNode
            return _combine(cls, (build(node.left, lag), build(node.right, lag)))
        iv = node.interval
        cls = MinNode if isinstance(node, Always) else MaxNode
        return _combine(cls, (build(node.child, lag + d) for d in range(iv.a, iv.b + 1)))

    return Decoder(build(f, 0), BasisKind.PREDICATE_HISTORY, m * width, format_formula(f), h)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_node(node: DecoderNode, values: np.ndarray) -> float:
    if isinstance(node, Leaf):
        return float(values[node.index])
    child_values = (_eval_node(c, values) for c in node.children)
    return min(child_values) if isinstance(node, MinNode) else max(child_values)


def _eval_series(node: DecoderNode, values: np.ndarray) -> np.ndarray:
    if isinstance(node, Leaf):
        return values[node.index]
    op = np.minimum if isinstance(node, MinNode) else np.maximum
    return functools.reduce(op, (_eval_series(c, values) for c in node.children))


def decode(d: Decoder, basis: BasisVector) -> float:
    """Read the decoder off a basis snapshot.

    The snapshot must carry the decoder's basis kind and dimension; a
    :class:`BasisMismatchError` is raised otherwise.
    """
    if basis.kind is not d.basis_kind:
        raise BasisMismatchError(f"decoder reads {d.basis_kind.value}, basis is {basis.kind.value}")
    if basis.values.shape != (d.dim,):
        raise BasisMismatchError(
            f"decoder expects dimension {d.dim}, basis has shape {basis.values.shape}"
        )
    return _eval_node(d.root, basis.values)


def decode_values(d: Decoder, values: np.ndarray) -> float:
    """Like :func:`decode` for a bare vector (dimension still checked)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (d.dim,):
        raise BasisMismatchError(
            f"decoder expects dimension {d.dim}, got shape {values.shape}"
        )
    return _eval_node(d.root, values)


def decode_series(d: Decoder, values: np.ndarray) -> np.ndarray:
    """Decode every column of a ``(dim, n)`` basis matrix at once."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != d.dim:
        raise BasisMismatchError(
            f"decoder expects ({d.dim}, n) columns, got shape {values.shape}"
        )
    return _eval_series(d.root, values)


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


# ---------------------------------------------------------------------------
# Cross-basis consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InformationOrderReport:
    """Result of checking that history vectors determine semantic vectors."""

    semantic_dim: int
    history_dim: int
    points_checked: int
    max_discrepancy: float


def information_order_check(dictionary: AtomicDictionary, episodes: Iterable) -> InformationOrderReport:
    """Recompute every atom's robustness from raw history and compare.

    For each episode and valid time, each atom's compiled history decoder is
    evaluated on the predicate-history vector and compared against the
    directly computed semantic vector. The maximum absolute discrepancy is
    reported and must be exactly zero; the report also carries the two basis
    dimensions for compactness accounting.
    """
    k_max = dictionary.K_max
    decoders = [compile_history_decoder(a, dictionary.m, k_max) for a in dictionary.atoms]
    max_disc = 0.0
    points = 0
    for ep in episodes:
        history = predicate_history_series(ep, k_max)
        semantic = semantic_basis_series(ep, dictionary)
        stacked = np.vstack([decode_series(d, history) for d in decoders])
        max_disc = max(max_disc, float(np.abs(stacked - semantic).max()))
        points += semantic.size
    return InformationOrderReport(
        semantic_dim=dictionary.r,
        history_dim=dictionary.m * (k_max + 1),
        points_checked=points,
        max_discrepancy=max_disc,
    )
