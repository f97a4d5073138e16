import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_robustness,
    random_episode,
    random_fragment_formula,
    random_pnf_formula,
    valid_time,
)
from ptmon.logic import And, Predicate, format_formula, horizon, parse_formula
from ptmon.fragment import (
    AtomicDictionary,
    BasisMismatchError,
    Decoder,
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
    information_order_check,
)
from ptmon.robustness import (
    BasisKind,
    BasisVector,
    predicate_history_basis,
    semantic_basis,
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

    def test_json_round_trip(self, standard_dictionary):
        blob = dictionary_to_json(standard_dictionary)
        back = dictionary_from_json(blob)
        assert back == standard_dictionary


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
        got = decode(dec, semantic_basis(ep, d, t))
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


class TestInformationOrder:
    def test_semantic_basis_recoverable_from_history(self, standard_dictionary):
        rng = np.random.default_rng(5)
        eps = [
            random_episode(rng, 7, 22, names=standard_dictionary.predicate_names)
            for _ in range(3)
        ]
        report = information_order_check(standard_dictionary, eps)
        assert report.semantic_dim == 70
        assert report.history_dim == 119
        assert report.max_discrepancy == 0.0
        assert report.points_checked > 0
