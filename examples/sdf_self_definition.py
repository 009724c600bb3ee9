#!/usr/bin/env python3
"""The paper's own experiment: SDF described in SDF, parsed by IPG.

Reproduces the full section-7 pipeline interactively:

* the SDF grammar is obtained by parsing the SDF definition of SDF
  (Appendix B) and normalizing it;
* the ISG scanner for SDF is generated from the same definition's lexical
  syntax — scanner and parser both come from one source document;
* the four corpus files are scanned and parsed; the §5.2 statistic (how
  much of the parse table was generated) is printed per file;
* the section-7 grammar modification is applied incrementally and the
  corpus is re-parsed.

Run:  python examples/sdf_self_definition.py
"""

from repro import Language
from repro.grammar.symbols import Terminal
from repro.lexing import scanner_from_sdf
from repro.sdf import (
    CORPUS,
    modification_rule,
    sdf_definition,
    sdf_grammar,
)


def lexeme_terminal(lexeme) -> Terminal:
    if lexeme.sort.startswith("lit:"):
        return Terminal(lexeme.sort[4:])
    return Terminal(lexeme.sort)


def main() -> None:
    definition = sdf_definition()
    print(f"parsed module {definition.name!r}:")
    print(f"  lexical functions:      {len(definition.lexical.functions)}")
    print(f"  context-free functions: {len(definition.contextfree.functions)}")

    grammar = sdf_grammar()
    print(f"\nnormalized grammar: {len(grammar)} rules, "
          f"{len(grammar.terminals)} terminals, "
          f"{len(grammar.nonterminals)} non-terminals")

    scanner = scanner_from_sdf(definition)
    lang = Language(grammar)

    print("\nscanning + parsing the corpus (table generated on the fly):")
    for name, text in CORPUS.items():
        lexemes = scanner.scan(text)
        tokens = [lexeme_terminal(l) for l in lexemes]
        result = lang.parse(tokens)
        assert result.accepted and result.ambiguity == 1
        print(
            f"  {name:10s} {len(tokens):4d} tokens -> accepted; "
            f"table now {lang.table_fraction():5.0%} generated"
        )

    print("\nscanner laziness:", scanner.stats())

    print("\napplying the section-7 modification: "
          '"(" CF-ELEM+ ")?" -> CF-ELEM')
    rule = modification_rule(grammar)
    lang.add_rule(rule)
    summary = lang.summary()
    print(f"  after MODIFY: {summary['dirty']} dirty states, "
          f"{summary['complete']} still complete")

    for name, text in CORPUS.items():
        tokens = [lexeme_terminal(l) for l in scanner.scan(text)]
        assert lang.parse(tokens).accepted
    print("  corpus re-parsed successfully (affected states re-expanded "
          "by need)")


if __name__ == "__main__":
    main()
