"""repro — a reproduction of Heering, Klint & Rekers,
*Incremental Generation of Parsers* (PLDI 1989 / CWI report CS-R8822).

The package implements the paper's system IPG — a lazy and incremental
LR(0) parse-table generator driving a Tomita-style parallel LR parser —
together with every substrate and baseline its evaluation relies on:

========================  ====================================================
``repro.api``             **the public surface**: Language, the engine
                          registry, ParseOutcome/Diagnostic, tokenizers
``repro.grammar``         symbols, rules, mutable grammars, FIRST/FOLLOW
``repro.lr``              item sets, CLOSURE/EXPAND, PG, SLR(1), LALR(1)
``repro.runtime``         LR-PARSE, PAR-PARSE (pool), GSS GLR, parse forests
``repro.core``            lazy generation, incremental MODIFY, GC
``repro.baselines``       Earley, Cigale-style trie, OBJ-style backtracking
                          recursive descent, LL(1)
``repro.sdf``             the SDF front end and the section-7 corpus
``repro.lexing``          ISG: regex → NFA → lazy DFA incremental scanner
``repro.bench``           the Fig. 7.1 measurement harness
``repro.service``         the multi-session parse service (workspace,
                          JSON protocol, result cache, snapshots)
========================  ====================================================

Quickstart::

    from repro import Language

    lang = Language.from_text('''
        B ::= true
        B ::= false
        B ::= B or B
        B ::= B and B
        START ::= B
    ''')
    outcome = lang.parse("true or false")
    assert outcome.accepted

:class:`Language` is the one front door: the REPL, the parse service's
sessions and the bench harness all hold one.
"""

from .api import Diagnostic, Language, ParseOutcome, engines
from .grammar import (
    Grammar,
    GrammarBuilder,
    NonTerminal,
    Rule,
    Terminal,
    grammar_from_text,
)

__version__ = "1.2.0"

__all__ = [
    "Diagnostic",
    "Grammar",
    "GrammarBuilder",
    "Language",
    "NonTerminal",
    "ParseOutcome",
    "Rule",
    "Terminal",
    "engines",
    "grammar_from_text",
    "__version__",
]
