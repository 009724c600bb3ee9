"""The independent correctness check: table-free Earley verdicts plus
structural checks on every rendered tree.

Nothing here shares code with the LR engines the service runs: verdicts
come from ``repro.baselines.earley`` over a grammar rebuilt from its text,
and rendered trees are re-read from their bracketed text.  The checks do
not assume any particular ``max_trees`` default: they only require that
the rendering agrees with the response's own ``ambiguity`` object.
"""

from __future__ import annotations

import re
import sys
from math import comb
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.earley import EarleyParser
from repro.grammar.builders import grammar_from_text
from repro.grammar.symbols import Terminal
from repro.lr.serialize import grammar_to_dict
from repro.sdf.corpus import sdf_grammar

#: The ambiguous Fig. 4.1 booleans grammar.
BOOLEANS_TEXT = """\
B ::= true
B ::= false
B ::= B or B
B ::= B and B
START ::= B
"""

#: The rule the booleans sessions toggle (the paper's MODIFY).
MAYBE_RULE = "B ::= maybe"

#: The section 7 modification, as ``add-rule`` text.
SDF_MODIFICATION = "CF-ELEM ::= ( CF-ELEM+ )?"


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class Oracle:
    """Memoized Earley verdicts for the two grammar states of each
    workload (base, and with the toggled rule)."""

    def __init__(self) -> None:
        self._parsers: Dict[Tuple[str, bool], EarleyParser] = {}
        self._verdicts: Dict[Tuple[str, bool, Tuple[str, ...]], bool] = {}
        sdf = grammar_to_dict(sdf_grammar())
        #: what the benchmark opens sessions and corpora with
        self.sdf_text: str = sdf["text"]
        self.sdf_sorts: List[str] = sdf["sorts"]
        self.sdf_nonterminals = frozenset(self.sdf_sorts)

    def _parser(self, grammar: str, state: bool) -> EarleyParser:
        parser = self._parsers.get((grammar, state))
        if parser is None:
            if grammar == "booleans":
                text, sorts = BOOLEANS_TEXT, ()
                extra = MAYBE_RULE
            else:
                text, sorts = self.sdf_text, self.sdf_sorts
                extra = SDF_MODIFICATION
            parser = EarleyParser(
                grammar_from_text(text + ("\n" + extra if state else ""),
                                  sorts=sorts)
            )
            self._parsers[(grammar, state)] = parser
        return parser

    def accepts(self, grammar: str, state: bool, tokens: Sequence[str]) -> bool:
        key = (grammar, state, tuple(tokens))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._parser(
                grammar, state
            ).recognize([Terminal(t) for t in tokens])
        return verdict

    def sdf_accepts(self, tokens: Sequence[str], state: bool) -> bool:
        return self.accepts("sdf", state, tokens)


# -- rendered trees ---------------------------------------------------------


def _leaf_yield_matches(
    text: str, expected: Sequence[str], nonterminal_re: "re.Pattern[str]"
) -> bool:
    """Whether bracketed ``text`` (``A(b C(d))``) has leaf yield
    ``expected``.

    Terminal names may themselves be brackets (SDF's ``(`` and ``)?``), so
    the text is read nondeterministically against the expected yield; the
    search explores alternatives only where a terminal looks like a
    closing bracket.
    """
    n, end = len(expected), len(text)

    def child(pos: int, k: int):
        match = nonterminal_re.match(text, pos)
        if match is not None:
            yield from body(match.end(), k)
        if k < n and text.startswith(expected[k], pos):
            yield pos + len(expected[k]), k + 1

    def body(pos: int, k: int):
        if text.startswith(")", pos):
            yield pos + 1, k  # an epsilon node
        for after, kk in child(pos, k):
            yield from rest(after, kk)

    def rest(pos: int, k: int):
        if text.startswith(")", pos):
            yield pos + 1, k
        if text.startswith(" ", pos):
            for after, kk in child(pos + 1, k):
                yield from rest(after, kk)

    return any(pos == end and k == n for pos, k in child(0, 0))


def nonterminal_pattern(names) -> "re.Pattern[str]":
    alternatives = "|".join(
        re.escape(name) for name in sorted(names, key=len, reverse=True)
    )
    return re.compile(f"(?:{alternatives})\\(")


def check_parse_payload(
    response: Dict[str, Any],
    tokens: Sequence[str],
    accepted: bool,
    max_trees: Optional[int],
    tree_count: Optional[int],
    nonterminal_re: "re.Pattern[str]",
) -> Optional[str]:
    """``None`` when a tree-mode parse response is right, else why not.

    ``tree_count`` is the derivation count the grammar implies (Catalan
    for booleans, 1 for SDF); ``None`` skips that check.
    """
    if response.get("accepted") is not accepted:
        return f"accepted={response.get('accepted')}, oracle says {accepted}"
    trees = response.get("trees")
    ambiguity = response.get("ambiguity")
    if not isinstance(trees, list) or not isinstance(ambiguity, dict):
        return "tree-mode response without trees or ambiguity"
    if not accepted:
        return None if not trees else "rejected input with trees"
    count = ambiguity.get("tree_count")
    enumerated = ambiguity.get("enumerated")
    if tree_count is not None and count != tree_count:
        return f"tree_count {count}, expected {tree_count}"
    if response.get("tree_count") != count:
        return "top-level tree_count disagrees with ambiguity"
    if len(trees) != enumerated or not 1 <= enumerated <= count:
        return f"{len(trees)} trees rendered, ambiguity says {ambiguity}"
    if max_trees is not None and enumerated > max_trees:
        return f"{enumerated} trees rendered over max_trees={max_trees}"
    if ambiguity.get("truncated") is not (enumerated < count):
        return f"truncated flag wrong in {ambiguity}"
    if len(set(trees)) != len(trees):
        return "duplicate rendered trees"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20 * len(tokens) + 1000))
    try:
        for tree in trees:
            if not _leaf_yield_matches(tree, tokens, nonterminal_re):
                return f"tree yield differs from the input: {tree[:120]}"
    finally:
        sys.setrecursionlimit(limit)
    return None
