"""The section-7 measurement corpus.

The paper measures on *"four SDF definitions of which the smallest has 15
lines and the largest 142 lines"* — ``exp.sdf`` (37 tokens), ``Exam.sdf``
(166), ``SDF.sdf`` (342) and ``ASF.sdf`` (475).  Only ``SDF.sdf`` is
printed in the paper (Appendix B); the other three are reconstructed here
as plausible SDF definitions of the systems their names refer to
(expressions, an exam/query language, the ASF equation formalism), tuned
to the exact token counts the paper reports.

Two further artifacts of the protocol live here:

* :func:`sdf_grammar` — *"The test grammar we used is an LR(1) version of
  the grammar of the syntax definition formalism SDF"*: the grammar
  obtained by parsing ``SDF.sdf`` (whose priority section is written in
  the conflict-free formulation; see the ``SDF_SDF`` comment below) and
  normalizing it;
* :func:`modification_function` / :func:`modification_rule` — the rule the
  experiment adds: ``"(" CF-ELEM+ ")?" -> CF-ELEM``.
"""

from __future__ import annotations

from typing import Dict, List

from ..grammar.grammar import Grammar
from ..grammar.rules import Rule
from ..grammar.symbols import Terminal
from .ast import CfIter, CfLiteral, Function, SdfDefinition
from .lexer import terminal_stream
from .normalize import normalize, rule_for_function
from .parser import parse_sdf

# ---------------------------------------------------------------------------
# exp.sdf — 37 tokens: a minimal boolean-expression language.
# ---------------------------------------------------------------------------

EXP_SDF = """\
module exp
begin
  context-free syntax
    sorts EXP
    functions
      "true"          -> EXP
      "false"         -> EXP
      EXP "or" EXP    -> EXP
      EXP "and" EXP   -> EXP
      "not" EXP       -> EXP
      "neg" EXP       -> EXP {par}
end exp
"""

# ---------------------------------------------------------------------------
# Exam.sdf — 166 tokens: an exam/questionnaire language with a lexical
# section, attributes and priorities, exercising parts of the SDF grammar
# exp.sdf never touches.
# ---------------------------------------------------------------------------

EXAM_SDF = """\
module Exam
begin
  lexical syntax
    sorts DIGIT, NUMBER, LETTER, WORD
    layout WHITE-SPACE
    functions
      [0-9]          -> DIGIT
      DIGIT+         -> NUMBER
      [a-zA-Z]       -> LETTER
      LETTER+        -> WORD
      [\\ \\t\\n]       -> WHITE-SPACE
  context-free syntax
    sorts EXAM, SECTION, QUESTION, CHOICE, POINTS, TEXT, RUBRIC, SCALE
    priorities
      QUESTION "with" POINTS -> QUESTION > "choice" CHOICE -> QUESTION,
      "bonus" QUESTION -> QUESTION < "ask" TEXT -> QUESTION
    functions
      "exam" WORD RUBRIC* SECTION+ "end" "exam" -> EXAM
      "section" WORD QUESTION+                 -> SECTION
      "ask" TEXT                               -> QUESTION
      "ask" TEXT "with" POINTS                 -> QUESTION
      "ask" TEXT "graded" "on" SCALE           -> QUESTION
      "choice" {CHOICE ","}+                   -> QUESTION {left-assoc}
      "match" "(" {WORD ","}+ ")" TEXT         -> QUESTION
      "bonus" QUESTION+                        -> QUESTION
      WORD                                     -> CHOICE
      WORD "scores" NUMBER                     -> CHOICE
      NUMBER "points"                          -> POINTS
      "scale" "from" NUMBER "to" NUMBER        -> SCALE
      "rubric" WORD "applies" "to" SECTION+    -> RUBRIC
      WORD+                                    -> TEXT
end Exam
"""

# ---------------------------------------------------------------------------
# SDF.sdf — 342 tokens: the SDF definition of SDF itself (Appendix B), in
# the LR(1) formulation: the priority chains {ABBREV-F-LIST ">"}+ /
# {ABBREV-F-LIST "<"}+ (ambiguous for single-element chains) are written
# as explicit two-or-more chains GT-CHAIN / LT-CHAIN.
# ---------------------------------------------------------------------------

SDF_SDF = """\
module SDF
begin
  lexical syntax
    sorts LETTER, ID-TAIL, ID, ITERATOR, ORD-CHAR, C-CHAR, CHAR-RANGE,
          CHAR-CLASS, L-CHAR, LITERAL, COM-CHAR, COM-END
    layout WHITE-SPACE, COMMENT
    functions
      [a-zA-Z]                    -> LETTER
      [a-zA-Z0-9\\-_]              -> ID-TAIL
      LETTER ID-TAIL*             -> ID
      [+*]                        -> ITERATOR
      [0-9A-Za-z !#$%&'()*+,./:;<=>?@^_`{|}~] -> ORD-CHAR
      "\\\\" ~[]                    -> ORD-CHAR
      ORD-CHAR                    -> C-CHAR
      C-CHAR                      -> CHAR-RANGE
      C-CHAR "-" C-CHAR           -> CHAR-RANGE
      "[" CHAR-RANGE* "]"         -> CHAR-CLASS
      ORD-CHAR                    -> L-CHAR
      [\\-\\[\\]]                    -> L-CHAR
      "\\"" L-CHAR* "\\""           -> LITERAL
      [\\ \\t\\n\\r\\f]                -> WHITE-SPACE
      ~[\\n\\-]                     -> COM-CHAR
      "-" ~[\\n\\-]                 -> COM-CHAR
      "\\n"                        -> COM-END
      "--" COM-CHAR* COM-END      -> COMMENT
  context-free syntax
    sorts SDF-DEFINITION, LEXICAL-SYNTAX, SORTS-DECL, SORT, LAYOUT,
          LEXICAL-FUNCTIONS, LEXICAL-FUNCTION-DEF, LEX-ELEM,
          CONTEXT-FREE-SYNTAX, PRIORITIES, PRIO-DEF, GT-CHAIN, LT-CHAIN,
          ABBREV-F-LIST, ABBREV-F-DEF, FUNCTIONS, FUNCTION-DEF, CF-ELEM,
          ATTRIBUTES, ATTRIBUTE
    functions
      "module" ID "begin" LEXICAL-SYNTAX CONTEXT-FREE-SYNTAX "end" ID
                                               -> SDF-DEFINITION
      "lexical" "syntax" SORTS-DECL LAYOUT LEXICAL-FUNCTIONS
                                               -> LEXICAL-SYNTAX
                                               -> LEXICAL-SYNTAX
      "sorts" {SORT ","}+                      -> SORTS-DECL
                                               -> SORTS-DECL
      ID                                       -> SORT
      "layout" {SORT ","}+                     -> LAYOUT
                                               -> LAYOUT
      "functions" LEXICAL-FUNCTION-DEF+        -> LEXICAL-FUNCTIONS
                                               -> LEXICAL-FUNCTIONS
      LEX-ELEM+ "->" SORT                      -> LEXICAL-FUNCTION-DEF
      SORT                                     -> LEX-ELEM
      SORT ITERATOR                            -> LEX-ELEM
      LITERAL                                  -> LEX-ELEM
      CHAR-CLASS                               -> LEX-ELEM
      "~" CHAR-CLASS                           -> LEX-ELEM
      "context-free" "syntax" SORTS-DECL PRIORITIES FUNCTIONS
                                               -> CONTEXT-FREE-SYNTAX
      "priorities" {PRIO-DEF ","}+             -> PRIORITIES
                                               -> PRIORITIES
      ABBREV-F-LIST                            -> PRIO-DEF
      GT-CHAIN                                 -> PRIO-DEF
      LT-CHAIN                                 -> PRIO-DEF
      ABBREV-F-LIST ">" ABBREV-F-LIST          -> GT-CHAIN
      GT-CHAIN ">" ABBREV-F-LIST               -> GT-CHAIN
      ABBREV-F-LIST "<" ABBREV-F-LIST          -> LT-CHAIN
      LT-CHAIN "<" ABBREV-F-LIST               -> LT-CHAIN
      ABBREV-F-DEF                             -> ABBREV-F-LIST
      "(" {ABBREV-F-DEF ","}+ ")"              -> ABBREV-F-LIST
      CF-ELEM+                                 -> ABBREV-F-DEF
      CF-ELEM* "->" SORT                       -> ABBREV-F-DEF
      "functions" FUNCTION-DEF+                -> FUNCTIONS
      CF-ELEM* "->" SORT ATTRIBUTES            -> FUNCTION-DEF
      SORT                                     -> CF-ELEM
      LITERAL                                  -> CF-ELEM
      SORT ITERATOR                            -> CF-ELEM
      "{" SORT LITERAL "}" ITERATOR            -> CF-ELEM
      "{" {ATTRIBUTE ","}+ "}"                 -> ATTRIBUTES
                                               -> ATTRIBUTES
      "par"                                    -> ATTRIBUTE
      "assoc"                                  -> ATTRIBUTE
      "left-assoc"                             -> ATTRIBUTE
      "right-assoc"                            -> ATTRIBUTE
end SDF
"""

# ---------------------------------------------------------------------------
# ASF.sdf — 475 tokens: the SDF definition of an ASF-like algebraic
# specification formalism (modules, imports, signatures, equations).
# ---------------------------------------------------------------------------

ASF_SDF = """\
module ASF
begin
  lexical syntax
    sorts LETTER, CAPITAL, DIGIT, ID-CHAR, ID, VAR-ID, NAT, LABEL-CHAR,
          LABEL
    layout WHITE-SPACE, COMMENT-CHAR, COMMENT
    functions
      [a-zA-Z]                 -> LETTER
      [A-Z]                    -> CAPITAL
      [0-9]                    -> DIGIT
      [a-zA-Z0-9\\-]            -> ID-CHAR
      LETTER ID-CHAR*          -> ID
      CAPITAL ID-CHAR*         -> VAR-ID
      DIGIT+                   -> NAT
      [a-zA-Z0-9]              -> LABEL-CHAR
      "[" LABEL-CHAR+ "]"      -> LABEL
      [\\ \\t\\n]                 -> WHITE-SPACE
      ~[\\n]                    -> COMMENT-CHAR
      "--" COMMENT-CHAR* "\\n"  -> COMMENT
  context-free syntax
    sorts ASF-SPECIFICATION, ASF-MODULE, MODULE-NAME, IMPORTS, EXPORTS,
          SIGNATURE, SORT-DECL, FUNC-DECL, FUNC-TYPE, SORT-REF, VARIABLES,
          VAR-DECL, EQUATIONS, EQUATION, COND-EQUATION, CONDITION, TERM,
          TERM-LIST, VAR-BINDING
    priorities
      TERM "equals" TERM -> CONDITION > "when" CONDITION -> CONDITION,
      ( "eq" TERM "gives" TERM -> EQUATION,
        "ceq" TERM "gives" TERM "when" CONDITION -> EQUATION )
      < LABEL EQUATION -> COND-EQUATION,
      TERM "plus" TERM -> TERM < TERM "times" TERM -> TERM
    functions
      "specification" MODULE-NAME ASF-MODULE+ "end" "specification"
                                                 -> ASF-SPECIFICATION
      "module" MODULE-NAME IMPORTS EXPORTS SIGNATURE VARIABLES EQUATIONS
        "end" MODULE-NAME                        -> ASF-MODULE
      ID                                         -> MODULE-NAME
      "imports" {MODULE-NAME ","}+               -> IMPORTS
                                                 -> IMPORTS
      "exports" {SORT-REF ","}+                  -> EXPORTS
      "hiding" {SORT-REF ","}+                   -> EXPORTS
                                                 -> EXPORTS
      "signature" SORT-DECL+ FUNC-DECL*          -> SIGNATURE
                                                 -> SIGNATURE
      "sort" SORT-REF                            -> SORT-DECL
      "sort" SORT-REF "subsort" "of" SORT-REF    -> SORT-DECL
      "func" ID "from" {SORT-REF ","}+ "to" SORT-REF FUNC-TYPE
                                                 -> FUNC-DECL
      "const" ID "to" SORT-REF                   -> FUNC-DECL
      "rename" ID "to" ID                        -> FUNC-DECL
      "total"                                    -> FUNC-TYPE
      "partial"                                  -> FUNC-TYPE
                                                 -> FUNC-TYPE
      ID                                         -> SORT-REF
      "variables" VAR-DECL+                      -> VARIABLES
                                                 -> VARIABLES
      "var" {ID ","}+ "ranges" "over" SORT-REF   -> VAR-DECL
      "equations" COND-EQUATION+                 -> EQUATIONS
                                                 -> EQUATIONS
      LABEL EQUATION                             -> COND-EQUATION
      EQUATION                                   -> COND-EQUATION
      "eq" TERM "gives" TERM                     -> EQUATION
      "ceq" TERM "gives" TERM "when" CONDITION   -> EQUATION {right-assoc}
      TERM "equals" TERM                         -> CONDITION
      TERM "differs" "from" TERM                 -> CONDITION
      TERM "matches" TERM                        -> CONDITION
      "fail"                                     -> CONDITION
      "and" "(" CONDITION "," CONDITION ")"      -> CONDITION
      "or" "(" CONDITION "," CONDITION ")"       -> CONDITION
      "not" "(" CONDITION ")"                    -> CONDITION
      "check" "(" TERM "," SORT-REF ")"          -> CONDITION
      ID                                         -> TERM
      VAR-ID                                     -> TERM
      NAT                                        -> TERM
      ID "(" TERM-LIST ")"                       -> TERM
      TERM "plus" TERM                           -> TERM
      TERM "times" TERM                          -> TERM
      "zero"                                     -> TERM
      "succ" "(" TERM ")"                        -> TERM
      "nil"                                      -> TERM
      "cons" "(" TERM "," TERM ")"               -> TERM
      "head" "(" TERM ")"                        -> TERM
      "tail" "(" TERM ")"                        -> TERM
      "if" CONDITION "then" TERM "else" TERM "fi" -> TERM
      "let" ID "be" TERM "in" TERM               -> TERM
      TERM "where" {VAR-BINDING ","}+            -> TERM {right-assoc}
      {TERM ","}+                                -> TERM-LIST
      ID "gets" TERM                             -> VAR-BINDING
      "normal" "form" "of" TERM                  -> TERM
end ASF
"""

#: The paper's Fig. 7.1 token counts, by corpus file name.
TOKEN_COUNTS: Dict[str, int] = {
    "exp.sdf": 37,
    "Exam.sdf": 166,
    "SDF.sdf": 342,
    "ASF.sdf": 475,
}

#: All corpus texts by file name, smallest first (the paper's order).
CORPUS: Dict[str, str] = {
    "exp.sdf": EXP_SDF,
    "Exam.sdf": EXAM_SDF,
    "SDF.sdf": SDF_SDF,
    "ASF.sdf": ASF_SDF,
}


def corpus_tokens() -> Dict[str, List[Terminal]]:
    """Pre-tokenized corpus, the §7 protocol's in-memory token streams."""
    return {name: terminal_stream(text) for name, text in CORPUS.items()}


def sdf_definition() -> SdfDefinition:
    """The parsed SDF-of-SDF (Appendix B, LR(1) formulation)."""
    return parse_sdf(SDF_SDF)


def sdf_grammar() -> Grammar:
    """The test grammar of section 7: normalize the SDF-of-SDF."""
    return normalize(sdf_definition(), start_sort="SDF-DEFINITION")


def modification_function() -> Function:
    """The added rule of section 7: ``"(" CF-ELEM+ ")?" -> CF-ELEM``."""
    return Function(
        elems=(CfLiteral("("), CfIter("CF-ELEM", "+"), CfLiteral(")?")),
        sort="CF-ELEM",
    )


def modification_rule(grammar: Grammar) -> Rule:
    """The modification as a core rule against ``grammar``.

    ``CF-ELEM+`` already exists in the normalized SDF grammar (the
    function-definition rules use it), so this is exactly one ADD-RULE —
    matching the paper's experiment.
    """
    definition = sdf_definition()
    return rule_for_function(
        grammar, modification_function(), definition.contextfree.sorts
    )
