import functools
import gc
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TIE_VALUES,
    mixed_dictionary,
    naive_compile_history_decoder,
    naive_compile_semantic_decoder,
    naive_decode,
    naive_decode_series,
    naive_leaf_indices,
    naive_robustness,
    random_episode,
    random_fragment_formula,
    random_interval,
    random_pnf_formula,
    valid_time,
)
import ptmon.fragment as fragment
from ptmon.logic import (
    Always,
    And,
    Eventually,
    NotInFragmentError,
    Or,
    Predicate,
    TimeInterval,
    format_formula,
    horizon,
    parse_formula,
)
from ptmon.fragment import (
    AtomicDictionary,
    BasisMismatchError,
    Decoder,
    HistoryLayout,
    HorizonExceededError,
    Leaf,
    MaxNode,
    MinNode,
    build_depth1_dictionary,
    compile_history_decoder,
    compile_semantic_decoder,
    decode,
    decode_series,
    decode_values,
    dictionary_from_json,
    dictionary_to_json,
)
from ptmon.robustness import (
    BasisKind,
    BasisVector,
    predicate_history_basis,
    predicate_history_series,
    semantic_basis_series,
)


class TestDictionary:
    def test_depth1_ordering(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        assert d.r == 8
        texts = [format_formula(a) for a in d.atoms]
        assert texts == [
            "G[0,1] p0",
            "F[0,1] p0",
            "G[0,2] p0",
            "F[0,2] p0",
            "G[0,1] p1",
            "F[0,1] p1",
            "G[0,2] p1",
            "F[0,2] p1",
        ]

    def test_standard_dimensions(self, standard_dictionary):
        d = standard_dictionary
        assert d.r == 70
        assert d.K_max == 16
        assert d.m * (d.K_max + 1) == 119

    def test_duplicate_interval_rejected(self):
        with pytest.raises(ValueError):
            build_depth1_dictionary(2, ((0, 1), (0, 1)))

    def test_validation(self):
        p = Predicate("p0", 0)
        with pytest.raises(ValueError):
            AtomicDictionary(atoms=(), m=1)
        atom = parse_formula("G[0,1] p0", ("p0",))
        with pytest.raises(ValueError):
            AtomicDictionary(atoms=(atom, atom), m=1)
        with pytest.raises(ValueError):
            AtomicDictionary(atoms=(atom,), m=0)

    def test_custom_names_propagate(self):
        d = build_depth1_dictionary(2, ((0, 1),), ("left", "right"))
        assert d.predicate_names == ("left", "right")

    def test_atom_index_is_built_once(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        first = compile_semantic_decoder(parse_formula("G[0,1] p0", d.predicate_names), d)
        index = d._atom_index
        second = compile_semantic_decoder(parse_formula("G[0,1] p0 | F[0,2] p1", d.predicate_names), d)
        assert d._atom_index is index
        assert index == {atom: q for q, atom in enumerate(d.atoms)}
        assert (first.support, second.support) == ({0}, {0, 7})
        fresh = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        assert d == fresh and hash(d) == hash(fresh)

    def test_json_round_trip(self, standard_dictionary):
        blob = dictionary_to_json(standard_dictionary)
        back = dictionary_from_json(blob)
        assert back == standard_dictionary


class TestLayouts:
    """The two layouts answer the same members, and each decoder names the
    key of the layout it was compiled for."""

    def test_history_layout(self):
        layout = HistoryLayout(2, 3)
        f = parse_formula("G[0,3] p0 | F[1,2] p1", ("p0", "p1"))
        assert (layout.dim, layout.k_max, layout.basis_kind) == (8, 3, BasisKind.PREDICATE_HISTORY)
        assert layout.predicts_steps and layout.key == (2, 3) and layout.key is layout.key
        assert layout.compile(f) is compile_history_decoder(f, 2, 3)
        assert layout.compile(f).layout == layout.key == HistoryLayout(2, 3).key
        ep = random_episode(np.random.default_rng(3), 2, 9)
        assert layout.basis(ep.mu).tobytes() == predicate_history_series(ep, 3).tobytes()

    def test_dictionary_layout(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 4)))
        f = parse_formula("G[0,4] p0 & F[0,1] p1", d.predicate_names)
        assert (d.dim, d.k_max, d.basis_kind) == (d.r, d.K_max, BasisKind.SEMANTIC)
        assert not d.predicts_steps and d.key == (d.m, d.atoms) and d.key is d.key
        assert d.compile(f) is compile_semantic_decoder(f, d)
        twin = build_depth1_dictionary(2, ((0, 1), (0, 4)))
        assert twin.compile(f) is not d.compile(f) and twin.compile(f).layout == d.compile(f).layout == d.key
        ep = random_episode(np.random.default_rng(4), 2, 9)
        assert d.basis(ep.mu).tobytes() == semantic_basis_series(ep, d).tobytes()

    def test_keys_of_other_layouts_differ(self):
        # Same dimension, different layouts: no two keys are equal.
        layouts = [HistoryLayout(2, 5), HistoryLayout(3, 3), HistoryLayout(12, 0),
                   AtomicDictionary(tuple(Predicate(f"p{k}", k) for k in range(12)), 12),
                   AtomicDictionary(tuple(Eventually(TimeInterval(0, j), Predicate("p0", 0)) for j in range(12)), 1)]
        assert {layout.dim for layout in layouts} == {12}
        assert len({layout.key for layout in layouts}) == len(layouts)

    @pytest.mark.parametrize("m, k_max", [(0, 2), (2, -1), (None, 2), (2, None), (2.0, 2)])
    def test_history_layout_refuses_what_has_no_coordinates(self, m, k_max):
        with pytest.raises(ValueError, match="need integers m >= 1 and k_max >= 0"):
            HistoryLayout(m, k_max)


class TestDecoderStructure:
    def test_semantic_support_and_value(self):
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        f = parse_formula("G[0,1] p0 & F[0,2] p1", ("p0", "p1"))
        dec = compile_semantic_decoder(f, d)
        assert dec.basis_kind is BasisKind.SEMANTIC
        assert dec.support == {0, 7}
        vals = np.zeros(8)
        vals[0], vals[7] = 0.5, 0.2
        assert decode_values(dec, vals) == 0.2

    def test_same_operator_children_flatten(self):
        d = build_depth1_dictionary(1, ((0, 1), (0, 2), (0, 3)))
        names = d.predicate_names
        f = parse_formula("G[0,1] p0 & (G[0,2] p0 & G[0,3] p0)", names)
        dec = compile_semantic_decoder(f, d)
        assert isinstance(dec.root, MinNode)
        assert len(dec.root.children) == 3
        assert all(isinstance(c, Leaf) for c in dec.root.children)

    def test_duplicate_children_collapse(self):
        d = build_depth1_dictionary(1, ((0, 1),))
        f0 = d.atoms[0]
        dec = compile_semantic_decoder(And(f0, f0), d)
        assert dec.root == Leaf(0)

    def test_history_decoder_accumulates_lags(self):
        f = parse_formula("G[0,4] F[1,3] p0", ("p0",))
        dec = compile_history_decoder(f, 1, 7)
        assert dec.basis_kind is BasisKind.PREDICATE_HISTORY
        assert dec.support == set(range(1, 8))  # lags 1..7 of the only predicate

    def test_history_decoder_horizon_guard(self):
        f = parse_formula("G[0,4] p0", ("p0",))
        with pytest.raises(HorizonExceededError):
            compile_history_decoder(f, 1, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_history_decoder_carries_formula_and_horizon(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        dec = compile_history_decoder(f, 3, horizon(f) + int(rng.integers(0, 3)))
        assert dec.formula == format_formula(f)
        assert dec.horizon == horizon(f)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_semantic_decoder_carries_formula_and_horizon(self, seed):
        rng = np.random.default_rng(seed)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        f = random_fragment_formula(rng, d)
        dec = compile_semantic_decoder(f, d)
        assert dec.formula == format_formula(f)
        assert dec.horizon == horizon(f)


class TestDecodeExactness:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_semantic_equals_robustness(self, seed):
        rng = np.random.default_rng(seed)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        f = random_fragment_formula(rng, d)
        T = d.K_max + int(rng.integers(0, 6))
        ep = random_episode(rng, 2, T)
        t = int(rng.integers(d.K_max, T + 1))
        dec = compile_semantic_decoder(f, d)
        basis = BasisVector(BasisKind.SEMANTIC, semantic_basis_series(ep, d)[:, t - d.K_max], t)
        got = decode(dec, basis)
        assert got == naive_robustness(f, ep.mu, t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_history_equals_robustness(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        k_max = horizon(f) + int(rng.integers(0, 3))
        T = k_max + int(rng.integers(0, 6))
        ep = random_episode(rng, 3, T)
        t = int(rng.integers(k_max, T + 1))
        dec = compile_history_decoder(f, 3, k_max)
        got = decode(dec, predicate_history_basis(ep, k_max, t))
        assert got == naive_robustness(f, ep.mu, t)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_and_1_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        d = build_depth1_dictionary(2, ((0, 1), (0, 2)))
        f = random_fragment_formula(rng, d)
        dec = compile_semantic_decoder(f, d)
        x = rng.normal(size=d.r)
        bump = np.abs(rng.normal(size=d.r))
        lo, hi = decode_values(dec, x), decode_values(dec, x + bump)
        assert lo <= hi  # monotone
        assert hi - lo <= bump.max() + 1e-12  # 1-Lipschitz in sup norm

    def test_decode_series_matches_pointwise(self, standard_dictionary):
        rng = np.random.default_rng(3)
        ep = random_episode(rng, 7, 30, names=standard_dictionary.predicate_names)
        f = random_fragment_formula(rng, standard_dictionary)
        dec = compile_semantic_decoder(f, standard_dictionary)
        series = semantic_basis_series(ep, standard_dictionary)
        got = decode_series(dec, series)
        want = np.array([decode_values(dec, series[:, i]) for i in range(series.shape[1])])
        assert np.array_equal(got, want)


    def test_decode_series_keeps_no_reference_to_its_input(self):
        # A self-referencing evaluator closure would keep the input alive
        # until the cyclic collector runs.
        f = parse_formula("G[0,2] p0 | F[0,1] p1", ("p0", "p1"))
        dec = compile_history_decoder(f, 2, 2)
        x = np.random.default_rng(0).normal(size=(dec.dim, 5))
        ref = weakref.ref(x)
        gc.disable()
        try:
            out = decode_series(dec, x)
            del x
            alive = ref() is not None
        finally:
            gc.enable()
        assert not alive
        assert out.shape == (5,)


class TestDecodeGuards:
    def test_kind_mismatch(self):
        d = build_depth1_dictionary(1, ((0, 1),))
        dec = compile_semantic_decoder(d.atoms[0], d)
        wrong = BasisVector(BasisKind.PREDICATE_HISTORY, np.zeros(2), 1)
        with pytest.raises(BasisMismatchError):
            decode(dec, wrong)

    def test_dim_mismatch(self):
        d = build_depth1_dictionary(1, ((0, 1),))
        dec = compile_semantic_decoder(d.atoms[0], d)
        with pytest.raises(BasisMismatchError):
            decode_values(dec, np.zeros(5))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def hand_built_trees(dim: int):
    """Decoder trees as no compiler builds them: any nesting, children
    repeated, one-child min/max nodes and single-leaf roots."""
    leaves = st.builds(Leaf, st.integers(0, dim - 1))

    def node(children):
        kids = st.lists(children, min_size=1, max_size=4).map(tuple)
        return st.one_of(st.builds(MinNode, kids), st.builds(MaxNode, kids))

    return st.recursive(leaves, node, max_leaves=12)


@st.composite
def decoders(draw):
    kind = draw(st.sampled_from(("semantic", "history", "hand-built")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "semantic":
        d = build_depth1_dictionary(2, ((0, 1), (0, 3), (1, 2)))
        return compile_semantic_decoder(random_fragment_formula(rng, d), d)
    if kind == "history":
        f = random_pnf_formula(rng, 2, depth=3, max_b=3)
        return compile_history_decoder(f, 2, horizon(f) + int(rng.integers(0, 2)))
    return Decoder(draw(hand_built_trees(6)), BasisKind.SEMANTIC, 6, "hand-built", 0)


# Column counts on both sides of numpy's vector widths.
SERIES_WIDTHS = (1, 2, 7, 8, 17, 64, 300)


def long_window_decoder(rng, alone=False):
    """A history decoder of a window that unrolls into a run of 17 to 39
    rows, alone or beside a random formula."""
    a, width, k = int(rng.integers(0, 5)), int(rng.integers(17, 40)), int(rng.integers(2))
    f = (Always if rng.random() < 0.5 else Eventually)(TimeInterval(a, a + width - 1), Predicate(f"p{k}", k))
    if not alone:
        f = (And if rng.random() < 0.5 else Or)(f, random_pnf_formula(rng, 2, depth=3, max_b=12))
    return compile_history_decoder(f, 2, horizon(f) + int(rng.integers(0, 2)))


class TestReadOut:
    @settings(max_examples=150, deadline=None)
    @given(decoders(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_one_evaluator_matches_the_tree_walk(self, dec, n, seed):
        rng = np.random.default_rng(seed)
        shape = (dec.dim, n)
        matrix = np.where(rng.random(shape) < 0.5, rng.choice(TIE_VALUES, shape), rng.normal(size=shape))

        series = decode_series(dec, matrix)
        assert series.shape == (n,)
        assert bits(series) == naive_decode_series(dec.root, matrix).tobytes()
        for j in range(n):
            column = matrix[:, j]
            got = decode_values(dec, column)
            assert type(got) is float
            assert bits(got) == bits(naive_decode(dec.root, column))
            # The two reducer pairs agree in value; on a tie between 0.0 and
            # -0.0 the built-in min/max keep the first argument and numpy's
            # ufuncs the second, so only the sign of a zero may differ.
            assert series[j] == got

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", SERIES_WIDTHS)
    def test_series_read_out_is_the_fold_in_every_layout(self, n, layout):
        # Runs of consecutive rows are reduced in one numpy call each; the
        # result is the left fold, bit for bit, in C order, in F order and
        # on a view of every second column. The values are signed zeros,
        # all or most of them, so nearly every run ends in a tie.
        rng = np.random.default_rng(n)
        d = build_depth1_dictionary(2, ((0, 1), (0, 3), (1, 2)))
        for i in range(40):
            if i % 4 == 0:
                dec = compile_semantic_decoder(random_fragment_formula(rng, d), d)
            elif i % 4 == 1:
                dec = compile_history_decoder(random_pnf_formula(rng, 2, depth=4, max_b=6), 2, 30)
            else:
                # A lone window's read-out is one run, so its tie shows.
                dec = long_window_decoder(rng, alone=i % 4 == 2)
            shape = (dec.dim, 2 * n)
            for zeros in (1.0, 0.9):
                zero = rng.random(shape) < zeros
                matrix = np.where(zero, rng.choice([0.0, -0.0], shape), rng.choice(TIE_VALUES, shape))
                values = {"C": matrix[:, :n].copy(), "F": np.asfortranarray(matrix[:, :n]),
                          "strided": matrix[:, ::2]}[layout]
                series = decode_series(dec, values)
                assert series.shape == (n,) and series.flags.owndata
                assert series.tobytes() == naive_decode_series(dec.root, values).tobytes(), dec.formula

    def test_series_source_reads_runs_of_rows_as_slabs(self, monkeypatch):
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(fragment, "exec", recording, raising=False)
        tree = MaxNode((Leaf(4), Leaf(5), Leaf(6), MinNode((Leaf(0), Leaf(1))), Leaf(3), Leaf(2), Leaf(3)))
        dec = Decoder(tree, BasisKind.SEMANTIC, 7, "hand-built", 0)
        x = np.arange(14.0).reshape(7, 2)
        assert decode_series(dec, x).tolist() == [12.0, 13.0]
        assert sources == [
            "def read_series(v, lo, hi, lo_run, hi_run):\n"
            "    t0 = lo_run(v[0:2])\n"
            "    t1 = hi_run(v[4:7])\n"
            "    t1 = hi(t1, t0)\n"
            "    t1 = hi(t1, v[3])\n"
            "    t1 = hi(t1, hi_run(v[2:4]))\n"
            "    return t1\n"
        ]

    def test_source_is_straight_line(self, monkeypatch):
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(fragment, "exec", recording, raising=False)
        tree = MaxNode((MinNode((Leaf(2), Leaf(0))), MinNode((Leaf(1),)), Leaf(3)))
        dec = Decoder(tree, BasisKind.SEMANTIC, 4, "hand-built", 0)
        assert decode_values(dec, np.array([4.0, 1.0, 3.0, 2.0])) == 3.0
        assert sources == [
            "def read(v, lo, hi):\n"
            "    t0 = lo(v[2], v[0])\n"
            "    t1 = v[1]\n"
            "    t2 = hi(t0, t1, v[3])\n"
            "    return t2\n"
        ]

    def test_shifted_source_is_straight_line(self, monkeypatch):
        sources = []

        def recording(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(fragment, "exec", recording, raising=False)
        tree = MaxNode((MinNode((Leaf(2), Leaf(0))), MinNode((Leaf(1),)), Leaf(2)))
        dec = Decoder(tree, BasisKind.SEMANTIC, 4, "hand-built", 0)
        assert dec.read_shifted([4.0, 1.0, 3.0, 2.0], [1.0, 0.5, -1.0, 9.0], min, max) == 4.0
        assert sources == [
            "def read(v, c, lo, hi):\n"
            "    s0 = v[0] - c[0]\n"
            "    s1 = v[1] - c[1]\n"
            "    s2 = v[2] - c[2]\n"
            "    t0 = lo(s2, s0)\n"
            "    t1 = s1\n"
            "    t2 = hi(t0, t1, s2)\n"
            "    return t2\n"
        ]
        # A one-leaf tree returns its one shifted coordinate.
        leaf = Decoder(Leaf(3), BasisKind.SEMANTIC, 4, "hand-built", 0)
        assert leaf.read_shifted([0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.5], min, max) == 1.5
        assert sources[-1] == "def read(v, c, lo, hi):\n    s3 = v[3] - c[3]\n    return s3\n"

    @settings(max_examples=100, deadline=None)
    @given(decoders(), st.integers(0, 2**32 - 1))
    def test_shifted_read_out_is_the_read_of_the_shrunk_values(self, dec, seed):
        # ``read_shifted(v, c)`` is ``read`` of ``v[i] - c[i]``, bit for bit,
        # with signed zeros, subnormal, huge, infinite and NaN shifts read
        # as list items; the source holds no float literal.
        rng = np.random.default_rng(seed)
        edge = [0.0, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]
        v = rng.choice(TIE_VALUES, dec.dim).tolist()
        for c in (rng.choice(edge, dec.dim).tolist(), rng.choice(TIE_VALUES, dec.dim).tolist()):
            shrunk = [a - b for a, b in zip(v, c)]
            got = dec.read_shifted(v, c, min, max)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(naive_decode(dec.root, shrunk)).tobytes()
            assert np.float64(got).tobytes() == np.float64(dec.read(shrunk, min, max)).tobytes()
        source = dec._sources[2]
        assert not re.search(r"\d\.\d|\be\d|inf|nan", source)
        assert sorted(map(int, re.findall(r"- c\[(\d+)\]", source))) == sorted(dec.support)

    def test_pickling_drops_the_shifted_read_out(self):
        f = parse_formula("G[0,2] p0 | F[0,1] p1", ("p0", "p1"))
        dec = compile_history_decoder(f, 2, 2)
        x = np.random.default_rng(2).normal(size=dec.dim).tolist()
        c = [0.25] * dec.dim
        want = dec.read_shifted(x, c, min, max)
        assert "read_shifted" not in dec.__getstate__()
        back = pickle.loads(pickle.dumps(dec))
        assert "read_shifted" not in vars(back) and "_sources" not in vars(back)
        assert back.read_shifted(x, c, min, max) == want

    def test_pickles_after_decoding(self):
        f = parse_formula("G[0,2] p0 | F[0,1] p1", ("p0", "p1"))
        dec = compile_history_decoder(f, 2, 2)
        x = np.random.default_rng(1).normal(size=dec.dim)
        want, want_series = decode_values(dec, x), decode_series(dec, x[:, None])
        back = pickle.loads(pickle.dumps(dec))
        assert back == dec
        assert decode_values(back, x) == want
        assert decode_series(back, x[:, None]).tobytes() == want_series.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(decoders())
    def test_support_index_is_the_sorted_support(self, dec):
        index = dec.support_index
        assert index is dec.support_index
        assert index.dtype == np.intp and index.tolist() == sorted(dec.support)
        with pytest.raises(ValueError):
            index[0] = 0
        # Pickling drops the index; the copy sorts its own, read-only too.
        assert "support_index" not in dec.__getstate__()
        back = pickle.loads(pickle.dumps(dec))
        assert back.support_index.tolist() == index.tolist()
        assert not back.support_index.flags.writeable

    def test_both_read_outs_come_from_one_walk_of_the_tree(self, monkeypatch):
        walks = []
        write = fragment._write_sources
        monkeypatch.setattr(fragment, "_write_sources", lambda root: walks.append(root) or write(root))
        dec = compile_history_decoder(parse_formula("G[0,2] p0 | F[0,1] p1", ("p0", "p1")), 2, 2)
        x = np.random.default_rng(1).normal(size=dec.dim)
        decode_values(dec, x)
        decode_series(dec, x[:, None])
        dec.read_shifted(x.tolist(), [0.0] * dec.dim, min, max)
        decode_values(dec, x)
        assert walks == [dec.root]
        assert "_sources" not in dec.__getstate__()


class TestDecoderValidation:
    @pytest.mark.parametrize("index", [-1, 3, 1.0, True, np.int64(1)])
    def test_leaf_index_must_be_an_int_inside_the_basis(self, index):
        with pytest.raises(ValueError, match="leaf index"):
            Decoder(MinNode((Leaf(0), Leaf(index))), BasisKind.SEMANTIC, 3, "x", 0)

    @pytest.mark.parametrize("cls", [MinNode, MaxNode])
    def test_empty_node_rejected_when_built(self, cls):
        with pytest.raises(ValueError, match="at least one child"):
            Decoder(MaxNode((Leaf(0), cls(()))), BasisKind.SEMANTIC, 3, "x", 0)

    @settings(max_examples=150, deadline=None)
    @given(hand_built_trees(6))
    def test_support_is_the_leaf_walk(self, tree):
        assert Decoder(tree, BasisKind.SEMANTIC, 6, "hand-built", 0).support == naive_leaf_indices(tree)

    @pytest.mark.parametrize("tree, support", [
        (MinNode((Leaf(2), Leaf(2), MaxNode((Leaf(0),)))), {0, 2}),
        (MaxNode((MinNode((Leaf(1),)), Leaf(1), Leaf(1))), {1}),
        (MinNode((MinNode((MinNode((Leaf(0),)),)),)), {0}),
        (Leaf(2), {2}),
    ])
    def test_support_of_one_child_nodes_and_repeated_leaves(self, tree, support):
        assert Decoder(tree, BasisKind.SEMANTIC, 3, "x", 0).support == support

    @pytest.mark.parametrize("tree, message", [
        (MinNode((MaxNode((Leaf(5),)),)), "leaf index 5 outside 0..2"),
        (MaxNode((Leaf(0), Leaf(0), MinNode(()))), "MinNode needs at least one child"),
        (MinNode((Leaf(1), MaxNode((Leaf(1), Leaf(-1))), Leaf(1))), "leaf index -1 outside 0..2"),
        (MaxNode((MaxNode((MaxNode(()),)),)), "MaxNode needs at least one child"),
    ])
    def test_defect_under_one_child_nodes_and_repeated_leaves(self, tree, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Decoder(tree, BasisKind.SEMANTIC, 3, "x", 0)

    def test_one_child_node_reads_its_child(self):
        dec = Decoder(MinNode((MaxNode((Leaf(1),)),)), BasisKind.SEMANTIC, 3, "x", 0)
        x = np.array([[5.0, 0.0], [-2.0, -0.0], [7.0, 1.0]])
        assert dec.support == {1}
        assert bits(decode_values(dec, x[:, 1])) == bits(-0.0)
        assert bits(decode_series(dec, x)) == x[1].tobytes()


def nested_formula(rng, leaf, depth=3, windows=True):
    """A random formula over ``leaf()``: windows (``a > 0`` included, unless
    not ``windows``) nested up to ``depth``, long ``&``/``|`` chains folded
    either way, and repeated subformulas."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return leaf()
    if r < 0.45 and windows:
        op = Always if rng.random() < 0.5 else Eventually
        return op(random_interval(rng, max_b=3), nested_formula(rng, leaf, depth - 1))
    parts = [nested_formula(rng, leaf, depth - 1, windows) for _ in range(int(rng.integers(1, 5)))]
    parts += [parts[int(i)] for i in rng.integers(len(parts), size=int(rng.integers(1, 4)))]
    parts = [parts[int(i)] for i in rng.permutation(len(parts))]

    def join(a, b):
        return And(a, b) if rng.random() < 0.7 else Or(a, b)

    if rng.random() < 0.5:
        return functools.reduce(join, parts)
    return functools.reduce(lambda acc, x: join(x, acc), reversed(parts))


def outcome(compiler, *args):
    """A compiled decoder, or what identifies the error compiling raised:
    the offending subtree of a ``NotInFragmentError``, else type and text."""
    try:
        return compiler(*args)
    except NotInFragmentError as e:
        return ("NotInFragmentError", e.offending, str(e))
    except ValueError as e:
        return (type(e).__name__, str(e))


class TestCompilersMatchTheOracles:
    """Both compilers against recursive ones that build and compare decoder
    node objects directly: equal decoders, or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_decoders_and_errors_match(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        d = mixed_dictionary(rng, m)

        def leaf():
            r = rng.random()
            if r < 0.6:
                return d.atoms[int(rng.integers(d.r))]
            if r < 0.95:
                k = int(rng.integers(m))
                return Predicate(f"p{k}", k)
            return Predicate(f"p{m}", m)  # outside both layouts

        f = nested_formula(rng, leaf)
        k_max = max(0, horizon(f) + int(rng.integers(-1, 3)))
        pairs = [
            (outcome(compile_semantic_decoder, f, d), outcome(naive_compile_semantic_decoder, f, d)),
            (outcome(compile_history_decoder, f, m, k_max), outcome(naive_compile_history_decoder, f, m, k_max)),
        ]
        for got, want in pairs:
            assert type(got) is type(want)
            if not isinstance(want, Decoder):
                assert got == want
                continue
            assert (got.root, got.basis_kind, got.dim, got.formula, got.horizon) == (
                want.root, want.basis_kind, want.dim, want.formula, want.horizon)
            assert got.support == want.support == naive_leaf_indices(want.root)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_decoding_is_bit_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        d = mixed_dictionary(rng, m)
        atom = lambda: d.atoms[int(rng.integers(d.r))]
        f = nested_formula(rng, atom, windows=False)
        g = nested_formula(rng, lambda: atom() if rng.random() < 0.5 else random_pnf_formula(rng, m, depth=1))
        for got, want in [
            (compile_semantic_decoder(f, d), naive_compile_semantic_decoder(f, d)),
            (compile_history_decoder(g, m, horizon(g)), naive_compile_history_decoder(g, m, horizon(g))),
        ]:
            shape = (got.dim, n)
            matrix = np.where(rng.random(shape) < 0.7, rng.choice(TIE_VALUES, shape), rng.normal(size=shape))
            assert decode_series(got, matrix).tobytes() == decode_series(want, matrix).tobytes()
            for j in range(n):
                assert bits(decode_values(got, matrix[:, j])) == bits(decode_values(want, matrix[:, j]))


# Compiled as ``(text, m, k_max)`` over predicates ``p0``..``p3``: with
# ``m = 2``, ``p2`` and ``p3`` lie outside the history layout.
WINDOW_CASES = [
    ("G[3,3] p1", 2, 5),  # a == b, a > 0: one leaf
    ("F[0,0] p0", 2, 0),  # a == b == 0 == k_max
    ("G[2,5] p0", 2, 5),  # a > 0, b == k_max
    ("F[0,5] p1", 2, 5),  # b == k_max
    ("G[0,1] p1", 2, 3),  # two lags
    ("F[1,2] G[0,0] p1", 2, 2),  # over a width-1 window
    ("G[1,2] (p0 & p1)", 2, 3),
    ("F[0,3] (p0 | G[1,1] p1)", 2, 4),
    ("G[0,2] F[1,3] p0", 2, 5),
    ("F[1,2] F[0,2] p1", 2, 4),  # same operator: flattened, repeats dropped
    ("G[0,2] p0 & G[1,3] p0", 2, 3),  # overlapping windows under one join
    ("F[0,2] p0 | F[2,4] p0 | p0", 2, 4),
    ("G[0,1] p0 & F[0,1] p0 | G[2,2] p1", 2, 2),
    ("(G[0,2] p0 | F[1,1] p1) & G[0,2] p0", 2, 2),
    ("G[1,3] p2", 2, 3),  # outside the layout, inside a window
    ("G[0,1] p0 & F[1,2] p2", 2, 2),
    ("F[0,1] p3 | G[0,1] p2", 2, 1),  # the first in tree order is reported
    ("F[0,2] (p1 & p2)", 2, 2),
    ("G[0,4] p2", 2, 3),  # horizon checked before the layout
    ("G[2,2] p0", 2, 1),
    ("F[0,1] p0 | G[1,3] p3", 2, 2),
]


# The 20 formulas ``perfbench`` certifies (``formula_texts`` at its
# ``FORMULA_SEED``), over the crossroad dictionary.
PERFBENCH_FORMULAS = [
    "(G[0,4] p_front_margin | F[0,4] p_r | (G[0,2] p_clear | F[0,4] p_clear)) & (G[0,16] p_f & F[0,1] p_l)",
    "F[0,1] p_clear & G[0,1] p_speed | G[0,8] p_clear | F[0,4] p_clear & F[0,8] p_r",
    "F[0,8] p_front_margin | G[0,8] p_speed & F[0,4] p_front_margin",
    "(G[0,4] p_r & G[0,8] p_l | G[0,1] p_goal) & (F[0,16] p_l & F[0,1] p_l)",
    "(G[0,8] p_l | F[0,2] p_clear) & F[0,2] p_front_margin & (G[0,16] p_goal | F[0,4] p_clear)",
    "G[0,16] p_l & F[0,16] p_r",
    "(F[0,2] p_speed | G[0,1] p_l) & (G[0,1] p_front_margin | G[0,2] p_speed)",
    "F[0,2] p_r | F[0,16] p_l | F[0,2] p_f | (G[0,8] p_speed | (G[0,4] p_r | F[0,2] p_clear))",
    "G[0,16] p_clear | F[0,16] p_clear",
    "(G[0,1] p_speed | F[0,1] p_clear) & ((G[0,16] p_speed | F[0,4] p_clear) & (G[0,1] p_speed | G[0,16] p_clear))",
    "F[0,4] p_speed",
    "G[0,2] p_f & (F[0,2] p_front_margin | F[0,8] p_goal | F[0,1] p_goal & G[0,2] p_clear)",
    "F[0,4] p_f",
    "F[0,1] p_speed & (F[0,16] p_clear & F[0,8] p_speed)",
    "G[0,16] p_clear",
    "F[0,1] p_front_margin & (G[0,16] p_r & G[0,1] p_speed | G[0,8] p_goal) | G[0,1] p_l",
    "F[0,1] p_clear & (G[0,1] p_f & (F[0,16] p_goal & G[0,8] p_speed))",
    "F[0,4] p_l",
    "F[0,4] p_clear",
    "F[0,4] p_front_margin | G[0,8] p_r",
]


def both_compilers(f, d):
    """``(compiled, oracle-built)`` decoders of ``f`` on both layouts of
    ``d``, at its own history depth."""
    return [
        (compile_semantic_decoder(f, d), naive_compile_semantic_decoder(f, d)),
        (compile_history_decoder(f, d.m, d.K_max), naive_compile_history_decoder(f, d.m, d.K_max)),
    ]


class TestWindowsUnrolledInOneStep:
    """A window over a predicate of the layout unrolls in one step; every
    other window takes the recursive path. Either way the decoder, or the
    error, is the oracle's."""

    @pytest.mark.parametrize("text, m, k_max", WINDOW_CASES)
    def test_history_decoder_or_error_matches_the_oracle(self, text, m, k_max):
        f = parse_formula(text, ("p0", "p1", "p2", "p3"))
        got = outcome(compile_history_decoder, f, m, k_max)
        want = outcome(naive_compile_history_decoder, f, m, k_max)
        assert type(got) is type(want)
        if not isinstance(want, Decoder):
            assert got == want
            return
        assert (got.root, got.dim, got.formula, got.horizon, got.support) == (
            want.root, want.dim, want.formula, want.horizon, want.support)
        assert got._sources == want._sources


class TestSharedLeaves:
    """Compiled trees share one ``Leaf`` per coordinate; nothing downstream
    of the tree can tell."""

    @pytest.mark.parametrize("text", PERFBENCH_FORMULAS)
    def test_read_out_sources_equal_the_oracle_built_decoders(self, text, standard_dictionary):
        f = parse_formula(text, standard_dictionary.predicate_names)
        for got, want in both_compilers(f, standard_dictionary):
            assert got.root == want.root
            assert fragment._write_sources(got.root) == fragment._write_sources(want.root)

    @pytest.mark.parametrize("text", PERFBENCH_FORMULAS)
    def test_pickled_decoders_validate_again_and_read_alike(self, text, standard_dictionary, monkeypatch):
        f = parse_formula(text, standard_dictionary.predicate_names)
        for dec, _ in both_compilers(f, standard_dictionary):
            checked = []
            check = Decoder.__post_init__
            monkeypatch.setattr(Decoder, "__post_init__", lambda self: checked.append(self) or check(self))
            back = pickle.loads(pickle.dumps(dec))
            monkeypatch.undo()
            assert len(checked) == 1 and checked[0] is back and back is not dec
            assert back == dec and back.support == dec.support
            assert back.support_index.tobytes() == dec.support_index.tobytes()
            assert not back.support_index.flags.writeable
            assert back._sources == dec._sources

    def test_one_leaf_per_coordinate(self):
        f = parse_formula("G[0,3] p1 & (F[1,2] p1 | G[0,0] p0)", ("p0", "p1"))
        leaves = [n for n in fragment._nodes(compile_history_decoder(f, 2, 3).root) if isinstance(n, Leaf)]
        again = [n for n in fragment._nodes(compile_history_decoder(f, 2, 3).root) if isinstance(n, Leaf)]
        assert len(leaves) == 7 and len({n.index for n in leaves}) == len(set(map(id, leaves))) == 5
        assert [n.index for n in again] == [n.index for n in leaves]
        assert all(a is b for a, b in zip(again, leaves))


class TestInformationOrder:
    def test_semantic_basis_recoverable_from_history(self, standard_dictionary):
        """Each atom's compiled history decoder, run on the predicate-history
        vectors, recomputes the semantic basis with no discrepancy at all."""
        d = standard_dictionary
        rng = np.random.default_rng(5)
        eps = [random_episode(rng, 7, 22, names=d.predicate_names) for _ in range(3)]
        decoders = [compile_history_decoder(a, d.m, d.K_max) for a in d.atoms]
        max_discrepancy, points_checked = 0.0, 0
        for ep in eps:
            history = predicate_history_series(ep, d.K_max)
            semantic = semantic_basis_series(ep, d)
            recovered = np.vstack([decode_series(dec, history) for dec in decoders])
            max_discrepancy = max(max_discrepancy, float(np.abs(recovered - semantic).max()))
            points_checked += semantic.size
        assert semantic.shape[0] == 70
        assert history.shape[0] == 119
        assert max_discrepancy == 0.0
        assert points_checked > 0
