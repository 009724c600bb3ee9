"""Cons-cell parse stacks: sharing, popping, cells as signature keys."""

import pytest

from repro.runtime.stacks import StackCell, shared_cells


def build(*states):
    stack = StackCell(states[0])
    for state in states[1:]:
        stack = stack.push(state)
    return stack


class TestBasics:
    def test_push_creates_new_cell(self):
        a = build(0)
        b = a.push(1)
        assert b.state == 1
        assert b.below is a
        assert a.state == 0  # untouched

    def test_depth(self):
        assert len(build(0, 1, 2)) == 3

    def test_states_top_to_bottom(self):
        assert build(0, 1, 2).states() == (2, 1, 0)

    def test_push_does_not_disturb_signature(self):
        # Cells are immutable by convention (enforcement was dropped from
        # the hot path); pushing must never change an existing cell's
        # identity, chain, or cached signature hash.
        cell = build(0, 1)
        sig_before = cell.sig
        states_before = cell.states()
        cell.push(2)
        assert cell.sig == sig_before
        assert cell.states() == states_before
        assert cell.depth == 2


class TestPop:
    def test_pop_returns_trees_left_to_right(self):
        stack = StackCell(0)
        stack = stack.push(1, "left")
        stack = stack.push(2, "mid")
        stack = stack.push(3, "right")
        below, trees = stack.pop(3)
        assert below.state == 0
        assert trees == ["left", "mid", "right"]

    def test_pop_zero(self):
        stack = build(0, 1)
        below, trees = stack.pop(0)
        assert below is stack
        assert trees == []

    def test_pop_preserves_original_chain(self):
        stack = build(0, 1, 2)
        stack.pop(2)
        assert stack.states() == (2, 1, 0)

    def test_pop_past_bottom_raises(self):
        with pytest.raises(IndexError):
            build(0, 1).pop(2)  # popping the start state is an error

    def test_pop_exactly_to_bottom_raises(self):
        # the start state must always remain
        with pytest.raises(IndexError):
            build(0).pop(1)


class TestSharing:
    def test_fork_shares_all_cells(self):
        trunk = build(0, 1, 2)
        left = trunk.push(3)
        right = trunk.push(4)
        assert shared_cells(left, right) == 3

    def test_divergent_stacks_share_common_tail(self):
        trunk = build(0, 1)
        left = trunk.push(2).push(3)
        right = trunk.push(9)
        assert shared_cells(left, right) == 2

    def test_fork_is_o1(self):
        # structural check standing in for timing: pushing onto a deep
        # stack must not copy it (the below pointer is identical)
        deep = build(*range(10_000))
        forked = deep.push(-1)
        assert forked.below is deep


class TestSignatures:
    def test_iteration(self):
        assert [cell.state for cell in build(0, 1, 2)] == [2, 1, 0]


class TestCellAsKey:
    """A cell is its own O(1) signature key (__hash__/__eq__)."""

    def test_same_chain_same_key(self):
        class State:
            pass

        a, b = State(), State()
        trunk = StackCell(a)
        left = trunk.push(b, tree="t")
        right = trunk.push(b, tree="t")
        assert hash(left) == hash(right)
        assert left == right
        assert len({left, right}) == 1

    def test_different_trees_different_key(self):
        trunk = StackCell(0)
        with_t1 = trunk.push(1, tree="t1")
        with_t2 = trunk.push(1, tree="t2")
        assert with_t1 != with_t2

    def test_distinct_state_objects_differ(self):
        class State:
            pass

        assert StackCell(State()) != StackCell(State())

    def test_different_depths_differ(self):
        assert build(0, 1) != build(0, 1, 1)

    def test_hash_is_cached_not_recomputed(self):
        deep = build(*range(1000))
        assert hash(deep) == deep.sig  # O(1) read of the push-time hash

    def test_shared_tail_equality_short_circuits(self):
        # Equality between converging forks walks only the divergent
        # prefix; this is a semantic check that it *is* equality.
        class State:
            pass

        s = State()
        trunk = build(*range(50))
        left = trunk.push(s)
        right = trunk.push(s)
        assert left == right
        assert left is not right
