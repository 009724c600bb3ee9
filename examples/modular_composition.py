#!/usr/bin/env python3
"""Modular composition of parsers — the paper's future-work item, built.

Section 8: *"Although it would be possible to use the incremental
modification capability of IPG by adding the grammar of one module to the
grammar of the other..."*  — that is exactly what this example does: each
module is a rule set; importing a module streams its rules through
ADD-RULE, so the composed parser's table reuses everything already
generated for the importer.

The scenario mirrors the OBJ/ASF+SDF motivation (section 1): a base
expression language, a booleans module, and a lists module, each defining
its own syntax; importing a module extends the syntax of the importing
module.

Run:  python examples/modular_composition.py
"""

from repro import Language
from repro.grammar.builders import GrammarBuilder


def module(name, build):
    """A 'module' is just a named rule set."""
    builder = GrammarBuilder()
    build(builder)
    return name, builder.build_rules()


NUMBERS = module(
    "Numbers",
    lambda b: (
        b.sort("EXPR")
        .rule("EXPR", ["num"])
        .rule("EXPR", ["EXPR", "plus", "EXPR"])
    ),
)

BOOLEANS = module(
    "Booleans",
    lambda b: (
        b.sort("EXPR")
        .rule("EXPR", ["tt"])
        .rule("EXPR", ["ff"])
        .rule("EXPR", ["EXPR", "eq", "EXPR"])
        .rule("EXPR", ["if", "EXPR", "then", "EXPR", "else", "EXPR"])
    ),
)

LISTS = module(
    "Lists",
    lambda b: (
        b.sort("EXPR")
        .rule("EXPR", ["nil"])
        .rule("EXPR", ["cons", "EXPR", "EXPR"])
        .rule("EXPR", ["head", "EXPR"])
    ),
)


def import_module(lang: Language, mod) -> None:
    name, rules = mod
    expansions_before = lang.summary()["expansions"]
    added = sum(1 for rule in rules if lang.add_rule(rule))
    print(f"  import {name}: {added} rules added "
          f"(no regeneration — expansions still "
          f"{lang.summary()['expansions'] - expansions_before} extra)")


def main() -> None:
    # The importing module starts with just the top-level syntax.
    base = (
        GrammarBuilder()
        .sort("EXPR")
        .rule("PROGRAM", ["eval", "EXPR"])
        .start("PROGRAM")
        .build()
    )
    lang = Language(base)
    print("base module: PROGRAM ::= eval EXPR   (EXPR still empty)")
    print("  accepts 'eval num'?", lang.recognize("eval num").accepted)

    print("\nimporting modules one by one:")
    import_module(lang, NUMBERS)
    assert lang.recognize("eval num plus num").accepted
    print("    'eval num plus num' ok")

    import_module(lang, BOOLEANS)
    assert lang.recognize("eval if tt then num else num plus num").accepted
    print("    'eval if tt then num else num plus num' ok")

    import_module(lang, LISTS)
    assert lang.recognize("eval cons num nil").accepted
    assert lang.recognize("eval head cons tt nil").accepted
    print("    list expressions ok")

    # cross-module mixing comes for free: one combined graph of item sets
    assert lang.recognize("eval if num eq num then head nil else num").accepted
    print("\ncross-module sentence accepted; final state:", lang.summary())

    # un-importing works the same way (the asymmetry the paper notes:
    # removal must name the module's rules, composition is not tracked)
    name, rules = LISTS
    for rule in rules:
        lang.delete_rule(rule)
    print(f"\nremoved {name}; 'eval cons num nil' accepted?",
          lang.recognize("eval cons num nil").accepted)
    assert not lang.recognize("eval cons num nil").accepted
    assert lang.recognize("eval num plus num").accepted


if __name__ == "__main__":
    main()
