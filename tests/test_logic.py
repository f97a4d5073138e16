import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_robustness, random_pnf_formula
import ptmon
import ptmon.logic as logic
from ptmon.fragment import (
    AtomicDictionary,
    Leaf,
    MaxNode,
    MinNode,
    compile_history_decoder,
    compile_semantic_decoder,
)
from ptmon.logic import (
    Always,
    And,
    Eventually,
    FormulaSyntaxError,
    NotInFragmentError,
    Or,
    Predicate,
    TimeInterval,
    UnknownPredicateError,
    format_formula,
    horizon,
    parse_formula,
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


def formula_nodes(f):
    """The distinct node objects of a formula tree."""
    out, stack = {}, [f]
    while stack:
        node = stack.pop()
        out[id(node)] = node
        if isinstance(node, (And, Or)):
            stack += [node.left, node.right]
        elif isinstance(node, (Always, Eventually)):
            stack.append(node.child)
    return list(out.values())


PICKLE_A_HASHED_FORMULA = """
import pickle, sys
from ptmon.logic import parse_formula
f = parse_formula("G[0,2] p0 & (F[0,1] p1 | p2)", ("p0", "p1", "p2"))
hash(f)
sys.stdout.buffer.write(pickle.dumps(f))
"""

LOOK_IT_UP = """
import pickle, sys
from ptmon.logic import parse_formula
f = pickle.loads(sys.stdin.buffer.read())
g = parse_formula("G[0,2] p0 & (F[0,1] p1 | p2)", ("p0", "p1", "p2"))
assert f == g
assert {g: 1}.get(f) == 1 and {f: 1}.get(g) == 1, "stale hash"
assert {g.left: 1}.get(f.left) == 1, "stale hash of a subformula"
"""


class TestHashing:
    def test_each_node_hashes_its_structure_once(self, monkeypatch):
        calls = []

        def counting(node, real=logic._structural_hash):
            calls.append(id(node))
            return real(node)

        monkeypatch.setattr(logic, "_structural_hash", counting)
        f = parse_formula("G[0,2] (p0 | F[1,3] p1) & (p2 | G[0,1] p0)", P)
        nodes = formula_nodes(f)
        h = hash(f)
        assert hash(f) == h
        assert {f: 1}[f] == 1
        assert sorted(calls) == sorted(id(n) for n in nodes)

    def test_hash_is_the_structural_one(self):
        # The value a plain frozen dataclass would give, so the iteration
        # order of sets of formulas does not change.
        f = parse_formula("G[0,2] (p0 | F[1,3] p1) & p2", P)
        for node in formula_nodes(f):
            assert hash(node) == hash(tuple(getattr(node, k) for k in node.__dataclass_fields__))

    def test_pickled_formula_keys_a_dict_under_another_hash_seed(self):
        src = str(Path(ptmon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        dumped = subprocess.run(
            [sys.executable, "-c", PICKLE_A_HASHED_FORMULA],
            env={**env, "PYTHONHASHSEED": "1"}, capture_output=True, check=True,
        ).stdout
        looked_up = subprocess.run(
            [sys.executable, "-c", LOOK_IT_UP],
            env={**env, "PYTHONHASHSEED": "2"}, input=dumped, capture_output=True,
        )
        assert looked_up.returncode == 0, looked_up.stderr.decode()


class TestKeptPerNode:
    """A formula object computes its text and its horizon once; compiling
    it again, for another monitor, walks it no more."""

    def test_text_and_horizon_walk_the_formula_once(self, monkeypatch):
        f = parse_formula("G[0,2] (p0 | F[1,3] p1) & (p2 | G[0,1] p0)", P)
        text, h = format_formula(f), horizon(f)
        calls = []

        def counting(node, real=logic.horizon):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(logic, "_fmt", None)  # a second render would fail
        monkeypatch.setattr(logic, "horizon", counting)
        for _ in range(3):
            assert (format_formula(f), logic.horizon(f)) == (text, h)
        assert all(node is f for node in calls)

    def test_kept_values_stay_out_of_the_pickled_state(self):
        f = parse_formula("G[0,2] p0 & F[1,3] p1", P)
        hash(f), format_formula(f), horizon(f)
        for node in formula_nodes(f):
            assert set(node.__getstate__()) == set(node.__dataclass_fields__)


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


def respaced(rng, f):
    """``f``'s text with a random run of spaces, tabs and newlines (perhaps
    empty) before every token and at the end; also its tokens and their
    start indices."""
    tokens = re.findall(r"\w+|\S", format_formula(f))

    def gap():
        return "".join(rng.choice([" ", "\t", "\n"], size=int(rng.integers(0, 4))))

    text, starts = "", []
    for tok in tokens:
        text += gap()
        starts.append(len(text))
        text += tok
    return text + gap(), tokens, starts


def position(text, i):
    """The 1-based (line, column) of index ``i`` of ``text``."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


class TestErrorPositions:
    @pytest.mark.parametrize("text, line, column, message", [
        ("p0 &", 1, 5, "expected a subformula, found 'end of input'"),
        ("p0 &  ", 1, 7, "expected a subformula, found 'end of input'"),
        ("p0 &\n  ", 2, 3, "expected a subformula, found 'end of input'"),
        ("G[0,1]\n  p0 \u00e9", 2, 6, "unexpected character '\u00e9'"),
        ("(p0", 1, 4, "expected ')', found 'end of input'"),
        ("p0 &\t(p1 | G[0,", 1, 16, "expected an integer bound, found 'end of input'"),
    ])
    def test_pinned_messages_and_positions(self, text, line, column, message):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse_formula(text, P)
        assert (ei.value.line, ei.value.column) == (line, column)
        assert str(ei.value) == f"line {line}, column {column}: {message}"

    @pytest.mark.parametrize("ch", ["!", "~", "\u00ac"])
    def test_pinned_negation_message(self, ch):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse_formula(f"p0 &\n {ch}p1", P)
        assert str(ei.value) == (
            f"line 2, column 2: negation ({ch!r}) is not part of the grammar: formulas are kept in "
            "positive normal form, so express a negated measurement as its own predicate"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_positions_on_respaced_texts(self, seed):
        """An illegal character inserted at index ``i`` is reported at
        ``i``'s position; a text cut after a token that needs a successor is
        reported at the end of the text."""
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        text, tokens, starts = respaced(rng, f)
        assert parse_formula(text, P) == f

        i = int(rng.integers(0, len(text) + 1))
        bad = "$#?\u00e9\x00!~\u00ac"[int(rng.integers(8))]
        with pytest.raises(FormulaSyntaxError) as ei:
            parse_formula(text[:i] + bad + text[i:], P)
        assert (ei.value.line, ei.value.column) == position(text, i)

        # Every token but an identifier or ")" needs one after it.
        cuts = [k for k, tok in enumerate(tokens) if tok != ")" and not tok[0].isalpha()]
        if cuts:
            k = cuts[int(rng.integers(len(cuts)))]
            cut = text[: starts[k] + len(tokens[k])] + ["", " ", "\t\n", "\n "][int(rng.integers(4))]
            with pytest.raises(FormulaSyntaxError, match="end of input") as ei:
                parse_formula(cut, P)
            assert (ei.value.line, ei.value.column) == position(cut, len(cut))


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
    """The history coordinates a compiled history decoder reads: predicate
    ``k`` at lag ``j`` is coordinate ``k*(k_max+1) + j``."""

    def test_oracle(self):
        f = parse_formula("G[0,1] p0 & F[0,1] p1", P)
        # k_max=3: p0 at lags 0, 1 and p1 at lags 0, 1.
        assert compile_history_decoder(f, 3, 3).support == {0, 1, 4, 5}

    def test_nesting_shifts_lags(self):
        f = parse_formula("G[2,3] p1", P)
        assert compile_history_decoder(f, 3, 3).support == {6, 7}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_max_lag_equals_horizon(self, seed, slack):
        rng = np.random.default_rng(seed)
        f = random_pnf_formula(rng, m=3)
        k_max = horizon(f) + slack
        lags = {c % (k_max + 1) for c in compile_history_decoder(f, 3, k_max).support}
        assert max(lags) == horizon(f)


class TestMembership:
    def test_atom_matches_itself(self, standard_dictionary):
        atom = standard_dictionary.atoms[7]
        dec = compile_semantic_decoder(atom, standard_dictionary)
        assert dec.root == Leaf(7)
        assert dec.support == {7}

    def test_and_or_composition(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,4] p_f & (F[0,2] p_clear | G[0,1] p_goal)", names)
        a, b, c = (
            standard_dictionary.atoms.index(parse_formula(text, names))
            for text in ("G[0,4] p_f", "F[0,2] p_clear", "G[0,1] p_goal")
        )
        assert len({a, b, c}) == 3
        dec = compile_semantic_decoder(f, standard_dictionary)
        assert dec.root == MinNode((Leaf(a), MaxNode((Leaf(b), Leaf(c)))))
        assert dec.support == {a, b, c}

    def test_alien_interval_rejected(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,3] p_f", names)
        with pytest.raises(NotInFragmentError) as ei:
            compile_semantic_decoder(f, standard_dictionary)
        assert ei.value.offending == f

    def test_bare_predicate_rejected_when_not_an_atom(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("p_f", names)
        with pytest.raises(NotInFragmentError) as ei:
            compile_semantic_decoder(f, standard_dictionary)
        assert ei.value.offending == f

    def test_offending_subtree_reported(self, standard_dictionary):
        names = standard_dictionary.predicate_names
        f = parse_formula("G[0,1] p_f & F[0,3] p_clear", names)
        with pytest.raises(NotInFragmentError) as ei:
            compile_semantic_decoder(f, standard_dictionary)
        assert format_formula(ei.value.offending) == "F[0,3] p_clear"
        assert str(ei.value) == "subformula not in dictionary: F[0,3] p_clear"

    def test_boolean_atom_is_one_leaf(self):
        names = ("a0", "a1")
        a0, a1, both = (parse_formula(text, names) for text in ("a0", "a1", "a0 & a1"))
        d = AtomicDictionary((a0, a1, both), m=2)
        assert compile_semantic_decoder(both, d).root == Leaf(2)
        assert compile_semantic_decoder(And(both, a0), d).root == MinNode((Leaf(2), Leaf(0)))
        # Membership is syntactic: the swapped conjunction is not the atom.
        assert compile_semantic_decoder(And(a1, a0), d).root == MinNode((Leaf(1), Leaf(0)))
