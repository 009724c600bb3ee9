"""The engine registry and the cross-engine differential suite.

Every registered engine must agree on acceptance over one shared corpus —
including after incremental edits — and the tree-building engines must
agree on the exact derivations.  This is the contract that lets callers
treat ``engine="..."`` as a pure performance knob.
"""

import pytest

from repro.api import Language, create_engine, engines
from tests.conftest import AMBIGUOUS_EXPR, BOOLEANS, EPSILON, EXPR

ALL_ENGINES = ("lazy", "gss", "earley")

#: engines whose ``parse`` builds derivation trees
TREE_ENGINES = ("lazy", "gss")

#: (grammar text, accepted sentences, rejected sentences)
CORPUS = [
    (
        BOOLEANS,
        ["true", "true or false", "true and false or true"],
        ["or", "true and", "banana", "true true"],
    ),
    (
        EXPR,
        ["n", "n + n * n", "( n + n ) * n"],
        ["n +", "( n", "+ n", "n n"],
    ),
    (
        AMBIGUOUS_EXPR,
        ["n", "n + n", "n + n + n + n"],
        ["+", "n n", "n + + n"],
    ),
    (
        EPSILON,
        ["b", "a b", "b c", "a b c"],
        ["a", "c b", "a a b"],
    ),
]


class TestRegistry:
    def test_five_engines_registered(self):
        assert engines() == ALL_ENGINES

    def test_descriptions_cover_every_engine(self):
        described = engines(detail=True)
        for name in engines():
            assert described[name]["summary"]

    def test_unknown_engine_rejected(self):
        lang = Language.from_text(BOOLEANS)
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("yacc++", lang)
        with pytest.raises(ValueError, match="unknown engine"):
            lang.parse("true", engine="yacc++")

    def test_engine_instances_are_cached(self):
        lang = Language.from_text(BOOLEANS)
        assert lang.engine("gss") is lang.engine("gss")
        assert lang.engine() is lang.engine("gss")

    def test_detail_reports_capability_flags(self):
        detail = engines(detail=True)
        assert tuple(detail) == ALL_ENGINES
        for name in TREE_ENGINES:
            assert detail[name]["supports_trees"] is True
            assert detail[name]["supports_ambiguity"] is True
        assert detail["earley"]["supports_trees"] is False
        assert detail["earley"]["supports_ambiguity"] is False
        # gss answers reparse natively; the others fall back to a full
        # parse through Language.reparse.
        assert detail["gss"]["supports_reparse"] is True
        for name in ("lazy", "earley"):
            assert detail[name]["supports_reparse"] is False
        for record in detail.values():
            assert record["summary"]


class TestDifferential:
    @pytest.mark.parametrize("grammar_text,accepted,rejected", CORPUS)
    def test_acceptance_agrees_across_registry(
        self, grammar_text, accepted, rejected
    ):
        lang = Language.from_text(grammar_text)
        for sentence in accepted:
            verdicts = {
                name: lang.recognize(sentence, engine=name).accepted
                for name in engines()
            }
            assert all(verdicts.values()), (sentence, verdicts)
        for sentence in rejected:
            verdicts = {
                name: lang.recognize(sentence, engine=name).accepted
                for name in engines()
            }
            assert not any(verdicts.values()), (sentence, verdicts)

    @pytest.mark.parametrize("grammar_text,accepted,rejected", CORPUS)
    def test_trees_agree_across_tree_engines(
        self, grammar_text, accepted, rejected
    ):
        lang = Language.from_text(grammar_text)
        for sentence in accepted:
            brackets = {
                name: lang.parse(sentence, engine=name).brackets()
                for name in TREE_ENGINES
            }
            reference = brackets[TREE_ENGINES[0]]
            assert reference, sentence
            assert all(b == reference for b in brackets.values()), (
                sentence,
                brackets,
            )

    def test_agreement_survives_interleaved_edits(self):
        lang = Language.from_text(BOOLEANS)
        script = [
            ("add", "B ::= B xor B", "true xor false", True),
            ("add", "B ::= not B", "not true xor not false", True),
            ("delete", "B ::= B xor B", "true xor false", False),
            ("add", "B ::= maybe", "not maybe or true", True),
            ("delete", "B ::= not B", "not true", False),
        ]
        for action, rule, sentence, should_accept in script:
            if action == "add":
                assert lang.add_rule(rule)
            else:
                assert lang.delete_rule(rule)
            for name in engines():
                outcome = lang.recognize(sentence, engine=name)
                assert outcome.accepted is should_accept, (
                    name,
                    sentence,
                    outcome,
                )

    def test_ambiguity_counts_agree(self):
        lang = Language.from_text(AMBIGUOUS_EXPR)
        # Catalan numbers: 1, 2, 5 derivations.
        for sentence, count in [("n + n", 1), ("n + n + n", 2),
                                ("n + n + n + n", 5)]:
            for name in TREE_ENGINES:
                assert lang.parse(sentence, engine=name).ambiguity == count


def boolean_sentence(operands):
    """``true and true or ...`` with ``operands`` operands (bench sizes)."""
    words = ["true"]
    for index in range(operands - 1):
        words.append("and" if index % 2 == 0 else "or")
        words.append("true")
    return " ".join(words)


class TestGssAtScale:
    """The merged-stack engine at every §7 booleans input size.

    The linear-stack pool engines are exponential on the medium/large
    sentences, so the differential reference shrinks as the input grows:
    trees vs ``lazy`` on small inputs, self-consistent acceptance and
    counting beyond the pool's reach.
    """

    SIZES = {"tiny": 3, "small": 10, "medium": 40, "large": 120}

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_acceptance_at_every_size(self, size):
        lang = Language.from_text(BOOLEANS)
        sentence = boolean_sentence(self.SIZES[size])
        assert lang.recognize(sentence, engine="gss").accepted
        truncated = boolean_sentence(self.SIZES[size])[: -len(" true")]
        assert not lang.recognize(truncated, engine="gss").accepted

    def test_small_sizes_agree_with_lazy(self):
        lang = Language.from_text(BOOLEANS)
        for operands in (3, 10):
            sentence = boolean_sentence(operands)
            gss = lang.parse(sentence, engine="gss")
            lazy = lang.parse(sentence, engine="lazy")
            assert gss.accepted and lazy.accepted
            assert gss.ambiguity == lazy.ambiguity
            assert gss.brackets() == lazy.brackets()

    def test_forest_counts_catalan_beyond_enumeration(self):
        # 40 operands have far more derivations than anyone enumerates;
        # the packed forest counts them without unpacking.
        lang = Language.from_text(BOOLEANS)
        outcome = lang.parse(boolean_sentence(40), engine="gss")
        assert outcome.accepted
        assert outcome.forest is not None
        assert outcome.is_ambiguous
        assert outcome.forest.tree_count() > 10**6
        first = list(outcome.forest.trees(3))
        assert len(first) == 3

    def test_tree_agreement_with_lazy_survives_edits(self):
        lang = Language.from_text(AMBIGUOUS_EXPR)
        script = [
            ("add", "E ::= E * E", "n * n + n"),
            ("add", "E ::= ( E )", "( n + n ) * n"),
            ("delete", "E ::= E * E", "n + n + n"),
        ]
        for action, rule, sentence in script:
            if action == "add":
                assert lang.add_rule(rule)
            else:
                assert lang.delete_rule(rule)
            gss = lang.parse(sentence, engine="gss")
            lazy = lang.parse(sentence, engine="lazy")
            assert gss.accepted and lazy.accepted, (sentence, gss, lazy)
            assert gss.ambiguity == lazy.ambiguity
            assert gss.brackets() == lazy.brackets()


class TestRightRecursion:
    """``L ::= x L`` unwinds n stacked reduces at the end-marker.

    FOLLOW(L) = {$}, so the compiled step cells shift every ``x`` instead
    of forking a dead ``L ::= x`` reduce, and gss's stretch does not count
    the stack-shrinking ``L ::= x L`` reduces against its cycle budget:
    the unwinding stays in the stretch.  Before, each ``x`` forked a
    branch that reduced the whole right spine (about n²/2 reduces), and
    the unwinding bailed into the general sweep.
    """

    TOKENS = 2000

    @pytest.mark.parametrize("build_trees", [False, True])
    def test_work_is_linear_in_the_input(self, build_trees):
        lang = Language.from_text("START ::= L\nL ::= x\nL ::= x L")
        sentence = " ".join(["x"] * self.TOKENS)
        run = lang.parse if build_trees else lang.recognize
        gss = run(sentence, engine="gss")
        assert gss.accepted
        assert gss.stats["reductions_applied"] <= 2 * self.TOKENS
        assert gss.stats["general_sweeps"] == 0


class TestEngineBehaviour:
    def test_earley_parse_is_a_capability_error(self):
        from repro.api import CapabilityError

        lang = Language.from_text(BOOLEANS)
        with pytest.raises(CapabilityError, match="builds no trees"):
            lang.parse("true", engine="earley")
        outcome = lang.recognize("true", engine="earley")
        assert outcome.accepted
        assert outcome.trees_built is False

    def test_lazy_and_compiled_share_one_graph(self):
        # gss runs over the compiled control, which wraps lazy's graph.
        lang = Language.from_text(BOOLEANS)
        lang.recognize("true or false", engine="lazy")
        states_after_lazy = len(lang.graph)
        lang.recognize("true or false", engine="gss")
        assert len(lang.graph) == states_after_lazy

    def test_explicit_token_sequences_accepted(self, toks):
        lang = Language.from_text(BOOLEANS)
        for name in engines():
            assert lang.recognize(toks("true and false"), engine=name).accepted
