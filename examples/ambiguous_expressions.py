#!/usr/bin/env python3
"""Arbitrary context-free grammars: ambiguity as a feature.

IPG's runtime is a parallel LR parser, so — unlike Yacc — ambiguous
grammars are not an error.  Every parse of an ambiguous sentence comes
back as a tree; shared sub-derivations are represented once (hash-consed
forest, the paper's B. Lang footnote).

The classic ``E ::= E + E | n`` grammar yields Catalan-many parses, and
the user-defined-syntax languages of section 1 (OBJ, ASF/SDF) rely on
exactly this tolerance.

Run:  python examples/ambiguous_expressions.py
"""

from repro import Language
from repro.runtime.forest import bracketed, node_count


def catalan(n: int) -> int:
    result = 1
    for i in range(n):
        result = result * 2 * (2 * i + 1) // (i + 2)
    return result


def main() -> None:
    lang = Language.from_text(
        """
        E ::= n
        E ::= E + E
        START ::= E
        """
    )

    print("all parses of n + n + n:")
    for tree in lang.parse("n + n + n").brackets():
        print("  ", tree)

    print("\nparse counts follow the Catalan numbers (the paper's parser pool):")
    for operators in range(1, 8):
        sentence = " ".join(["n"] + ["+ n"] * operators)
        result = lang.parse(sentence, engine="lazy")
        expected = catalan(operators)
        print(
            f"  {operators} operators: {result.ambiguity:4d} parses "
            f"(Catalan {expected}), "
            f"max parallel parsers {result.stats['max_live_parsers']}"
        )
        assert result.ambiguity == expected

    print("\nforest sharing (5 operators):")
    trees = list(lang.parse("n + n + n + n + n + n").forest.trees())
    seen = set()
    shared_nodes = sum(node_count(t, seen) for t in trees)
    unshared_nodes = sum(node_count(t) for t in trees)
    print(f"  nodes if each tree were private: {unshared_nodes}")
    print(f"  nodes actually allocated:        {shared_nodes}")

    print("\ndisambiguating by grammar refinement (left-associative):")
    lang.delete_rule("E ::= E + E")
    lang.add_rule("T ::= n")
    lang.add_rule("E ::= E + T")
    lang.add_rule("E ::= T")
    lang.delete_rule("E ::= n")
    result = lang.parse("n + n + n")
    print(f"  'n + n + n' now has {result.ambiguity} parse:")
    print("  ", bracketed(result.tree))


if __name__ == "__main__":
    main()
