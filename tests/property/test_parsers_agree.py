"""Cross-engine agreement: Earley ≡ GSS ≡ pool on recognition.

Earley is grammar-driven with no generation phase; the GSS and pool
runtimes run off LR(0) tables, conventional (PG) or lazy (the tables
IPG generates).  Agreement across random grammars and inputs is
therefore a strong end-to-end check on the entire table-generation
stack.  The same agreement through :class:`repro.api.Language`'s engine
registry is checked in ``tests/api/test_engines.py``.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.baselines.earley import EarleyParser
from repro.core.lazy import LazyGenerator
from repro.lr.compiled import CompiledControl
from repro.lr.generator import ConventionalGenerator
from repro.runtime.errors import SweepLimitExceeded
from repro.runtime.gss import GSSParser
from repro.runtime.parallel import PoolParser

from .strategies import derive_sentence, grammars, is_pool_safe, sentences


@settings(max_examples=50, deadline=None)
@given(grammars(), sentences())
def test_earley_agrees_with_gss(grammar, sentence):
    earley = EarleyParser(grammar)
    gss = GSSParser(CompiledControl(ConventionalGenerator(grammar.copy()).generate()))
    assert earley.recognize(sentence) == gss.recognize(sentence)


@settings(max_examples=50, deadline=None)
@given(grammars(), sentences())
def test_earley_agrees_with_pool(grammar, sentence):
    assume(is_pool_safe(grammar))
    earley = EarleyParser(grammar)
    pool = PoolParser(
        ConventionalGenerator(grammar.copy()).generate(),
        grammar,
        max_sweep_steps=5_000,
    )
    try:
        pool_verdict = pool.recognize(sentence)
    except SweepLimitExceeded:
        assume(False)
        return
    assert earley.recognize(sentence) == pool_verdict


@settings(max_examples=50, deadline=None)
@given(grammars(), sentences())
def test_lazy_pool_agrees_with_conventional_pool(grammar, sentence):
    assume(is_pool_safe(grammar))
    lazy = PoolParser(
        LazyGenerator(grammar).control(), grammar, max_sweep_steps=5_000
    )
    conventional = PoolParser(
        ConventionalGenerator(grammar.copy()).generate(),
        grammar.copy(),
        max_sweep_steps=5_000,
    )
    try:
        assert lazy.recognize(sentence) == conventional.recognize(sentence)
    except SweepLimitExceeded:
        assume(False)


@settings(max_examples=50, deadline=None)
@given(grammars(allow_epsilon=False), st.integers(0, 2 ** 32))
def test_derived_sentences_are_accepted(grammar, seed):
    """Positive cases: sentences derived from the grammar are recognized."""
    sentence = derive_sentence(grammar, seed)
    assume(sentence is not None)
    earley = EarleyParser(grammar)
    assert earley.recognize(sentence)
    gss = GSSParser(CompiledControl(ConventionalGenerator(grammar.copy()).generate()))
    assert gss.recognize(sentence)


@settings(max_examples=30, deadline=None)
@given(grammars(), sentences(max_length=4))
def test_deterministic_lalr_agrees_when_clean(grammar, sentence):
    """When LALR(1) is conflict-free, its deterministic parser must agree
    with Earley — the Yacc baseline is only used under this condition."""
    from repro.lr.lalr import lalr_table
    from repro.runtime.lr_parse import SimpleLRParser

    table = lalr_table(grammar)
    assume(table.is_deterministic)
    det = SimpleLRParser(table, grammar)
    earley = EarleyParser(grammar)
    assert det.recognize(sentence) == earley.recognize(sentence)
