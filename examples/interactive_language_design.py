#!/usr/bin/env python3
"""An interactive language-design session — the paper's motivating use.

*"When a language is being designed, its grammar is not yet completely
fixed.  After each change of the grammar, a (completely) new parser must
be generated, but there is no guarantee that it will be used sufficiently
often."*  (section 1)

A designer grows a little command language rule by rule, testing example
programs after every change.  Watch the work counters: each edit costs a
handful of state re-expansions, never a full regeneration — and parsing is
always available immediately.

Run:  python examples/interactive_language_design.py
"""

from repro import Language
from repro.grammar.builders import GrammarBuilder


def check(lang: Language, program: str, expected: bool) -> None:
    verdict = lang.recognize(program).accepted
    marker = "ok " if verdict == expected else "?! "
    print(f"    {marker} {'accepts' if verdict else 'rejects'}: {program!r}")
    assert verdict == expected


def report(lang: Language, step: str) -> None:
    summary = lang.summary()
    print(
        f"  [{step}] states={summary['states']} "
        f"complete={summary['complete']} "
        f"expansions so far={summary['expansions']}"
    )


def main() -> None:
    # Day one: commands are just 'go' and 'stop'.
    grammar = (
        GrammarBuilder()
        .rule("PROGRAM", ["CMD"])
        .rule("CMD", ["go"])
        .rule("CMD", ["stop"])
        .start("PROGRAM")
        .build()
    )
    lang = Language(grammar)
    print("v1: single commands")
    check(lang, "go", True)
    check(lang, "go go", False)
    report(lang, "v1")

    # Day two: sequencing.
    print("\nv2: add sequencing  PROGRAM ::= PROGRAM ; PROGRAM")
    lang.add_rule("PROGRAM ::= PROGRAM ; PROGRAM")
    check(lang, "go ; stop", True)
    check(lang, "go ; ; stop", False)
    report(lang, "v2")

    # Day three: a numeric argument — needs a new sort.  The new sort is
    # named in 'sorts' because nothing defines N yet when the first rule
    # mentioning it arrives (SDF has the same declare-your-sorts rule).
    print("\nv3: add  CMD ::= turn N ,  N ::= 1 | 2 | 3")
    lang.add_rule("CMD ::= turn N", sorts={"N"})
    lang.add_rule("N ::= 1")
    lang.add_rule("N ::= 2")
    lang.add_rule("N ::= 3")
    check(lang, "turn 2 ; go", True)
    check(lang, "turn", False)
    report(lang, "v3")

    # Day four: design reversal — 'stop' becomes 'halt'.
    print("\nv4: rename: delete CMD ::= stop, add CMD ::= halt")
    lang.delete_rule("CMD ::= stop")
    lang.add_rule("CMD ::= halt")
    check(lang, "halt", True)
    check(lang, "stop", False)
    check(lang, "turn 3 ; halt", True)
    report(lang, "v4")

    # Day five: loops, with bodies in brackets.
    print("\nv5: add  CMD ::= repeat N [ PROGRAM ]")
    lang.add_rule("CMD ::= repeat N [ PROGRAM ]")
    check(lang, "repeat 3 [ go ; turn 1 ]", True)
    check(lang, "repeat [ go ]", False)
    check(lang, "repeat 2 [ repeat 2 [ go ] ]", True)
    report(lang, "v5")

    # Housekeeping: after many edits, reclaim orphaned table parts.
    removed = lang.collect_garbage(force_sweep=True)
    print(f"\ngarbage collection reclaimed {removed} item sets")
    report(lang, "final")
    check(lang, "repeat 3 [ halt ]", True)


if __name__ == "__main__":
    main()
