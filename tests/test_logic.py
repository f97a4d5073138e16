import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_robustness, random_pnf_formula
from ptmon.fragment import compile_semantic_decoder
from ptmon.logic import (
    Always,
    And,
    Decomposition,
    Eventually,
    FormulaSyntaxError,
    NotInFragmentError,
    Or,
    Predicate,
    PredicateLag,
    TimeInterval,
    UnknownPredicateError,
    check_membership,
    format_formula,
    horizon,
    parse_formula,
    predicate_lag_support,
)

P = ("p0", "p1", "p2")


class TestTimeInterval:
    def test_validation(self):
        TimeInterval(0, 0)
        TimeInterval(2, 5)
        with pytest.raises(ValueError):
            TimeInterval(-1, 2)
        with pytest.raises(ValueError):
            TimeInterval(3, 2)
        with pytest.raises(ValueError):
            TimeInterval(0.5, 2)  # type: ignore[arg-type]

    def test_str(self):
        assert str(TimeInterval(1, 3)) == "[1,3]"


class TestParser:
    def test_single_predicate(self):
        assert parse_formula("p1", P) == Predicate("p1", 1)

    def test_precedence_and_binds_tighter_than_or(self):
        f = parse_formula("p0 & p1 | p2", P)
        assert isinstance(f, Or)
        assert isinstance(f.left, And)

    def test_unary_binds_tighter_than_and(self):
        f = parse_formula("G[0,1] p0 & p1", P)
        assert isinstance(f, And)
        assert isinstance(f.left, Always)
        assert f.right == Predicate("p1", 1)

    def test_parentheses(self):
        f = parse_formula("G[0,2] (p0 | p1)", P)
        assert isinstance(f, Always)
        assert isinstance(f.child, Or)

    def test_nested_temporal(self):
        f = parse_formula("G[0,4] F[1,3] p0", P)
        assert f == Always(TimeInterval(0, 4), Eventually(TimeInterval(1, 3), Predicate("p0", 0)))

    def test_left_associativity(self):
        f = parse_formula("p0 & p1 & p2", P)
        assert isinstance(f.left, And)
        assert f.right == Predicate("p2", 2)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicateError) as ei:
            parse_formula("G[0,1] oops", P)
        assert "oops" in str(ei.value)

    def test_negation_rejected(self):
        for bad in ("!p0", "~p0", "¬p0"):
            with pytest.raises(FormulaSyntaxError) as ei:
                parse_formula(bad, P)
            assert "negation" in str(ei.value).lower()

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse_formula("p0 &", P)
        assert ei.value.line == 1
        assert ei.value.column == 5

    def test_reversed_interval(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("G[3,1] p0", P)

    def test_empty_and_trailing(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("", P)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p0 p1", P)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            parse_formula("p0", ("p0", "p0"))

    def test_g_and_f_usable_as_identifiers(self):
        # Only 'G[' / 'F[' start a temporal operator.
        f = parse_formula("G & F", ("G", "F"))
        assert f == And(Predicate("G", 0), Predicate("F", 1))


class TestFormatter:
    def test_plain(self):
        f = parse_formula("G[0,4] F[1,3] p0", P)
        assert format_formula(f) == "G[0,4] F[1,3] p0"

    def test_parenthesizes_or_under_and(self):
        f = And(Or(Predicate("p0", 0), Predicate("p1", 1)), Predicate("p2", 2))
        text = format_formula(f)
        assert text == "(p0 | p1) & p2"
        assert parse_formula(text, P) == f

    def test_parenthesizes_binary_under_temporal(self):
        f = Always(TimeInterval(0, 2), Or(Predicate("p0", 0), Predicate("p1", 1)))
        assert format_formula(f) == "G[0,2] (p0 | p1)"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random_asts(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        assert parse_formula(format_formula(f), P) == f


class TestHorizon:
    def test_predicate(self):
        assert horizon(Predicate("p0", 0)) == 0

    def test_nested_temporal_sums_upper_bounds(self):
        f = parse_formula("G[0,4] F[1,3] p0", P)
        assert horizon(f) == 7

    def test_binary_takes_max(self):
        f = parse_formula("G[0,4] p0 & F[0,2] p1", P)
        assert horizon(f) == 4

    def test_lag_seven_is_reachable(self):
        # A witness that the evaluation of G[0,4] F[1,3] p0 really can depend
        # on the sample seven steps back: vary only mu[0, t-7] and watch the
        # value change.
        f = parse_formula("G[0,4] F[1,3] p0", P)
        t = 7
        base = np.full((1, 8), -1.0)
        # lags 1..4 high so the F-window maxima at inner times t-0..t-3 are
        # controlled, lags 5,6 low so the window at inner time t-4 is decided
        # by lag 7 alone.
        for lag, val in ((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, -1.0), (6, -1.0)):
            base[0, t - lag] = val
        lo, hi = base.copy(), base.copy()
        lo[0, t - 7] = -5.0
        hi[0, t - 7] = 5.0
        assert naive_robustness(f, lo, t) != naive_robustness(f, hi, t)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4))
    def test_temporal_horizon_is_additive(self, seed, a, extra):
        rng = np.random.default_rng(seed)
        child = random_pnf_formula(rng, m=2, depth=2)
        iv = TimeInterval(a, a + extra)
        assert horizon(Always(iv, child)) == iv.b + horizon(child)
        assert horizon(Eventually(iv, child)) == iv.b + horizon(child)


class TestSupport:
    def test_oracle(self):
        f = parse_formula("G[0,1] p0 & F[0,1] p1", P)
        assert predicate_lag_support(f) == {
            PredicateLag(0, 0),
            PredicateLag(0, 1),
            PredicateLag(1, 0),
            PredicateLag(1, 1),
        }

    def test_nesting_shifts_lags(self):
        f = parse_formula("G[2,3] p1", P)
        assert predicate_lag_support(f) == {PredicateLag(1, 2), PredicateLag(1, 3)}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_max_lag_equals_horizon(self, seed):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        lags = {lag for _, lag in predicate_lag_support(f)}
        assert max(lags) == horizon(f)


class TestMembership:
    def test_atom_matches_itself(self, standard_dictionary):
        atom = standard_dictionary.atoms[7]
        dec = check_membership(atom, standard_dictionary)
        assert dec == Decomposition("atom", index=7)
        assert compile_semantic_decoder(atom, standard_dictionary).support == {7}

    def test_and_or_composition(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,4] p_f & (F[0,2] p_clear | G[0,1] p_goal)", names)
        dec = check_membership(f, standard_dictionary)
        assert (dec.op, [c.op for c in dec.children]) == ("and", ["atom", "or"])
        atoms = [
            parse_formula(text, names) for text in ("G[0,4] p_f", "F[0,2] p_clear", "G[0,1] p_goal")
        ]
        want = {standard_dictionary.atoms.index(a) for a in atoms}
        assert len(want) == 3
        assert compile_semantic_decoder(f, standard_dictionary).support == want

    def test_alien_interval_rejected(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,3] p_f", names)
        with pytest.raises(NotInFragmentError):
            check_membership(f, standard_dictionary)

    def test_bare_predicate_rejected_when_not_an_atom(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("p_f", names)
        with pytest.raises(NotInFragmentError):
            check_membership(f, standard_dictionary)

    def test_offending_subtree_reported(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,1] p_f & F[0,3] p_clear", names)
        with pytest.raises(NotInFragmentError) as ei:
            check_membership(f, standard_dictionary)
        assert format_formula(ei.value.offending) == "F[0,3] p_clear"
