"""Tests for runtime value types, frames/PCBs and token envelopes."""

import pytest

from repro.runtime.frames import BLOCKED, DONE, READY, RUNNING, Frame
from repro.runtime.tokens import (
    BroadcastTokensMsg,
    DirectToken,
    MatchToken,
    PageResponseMsg,
    ReturnAddress,
    TokenBatchMsg,
)
from repro.runtime.values import ArrayId, ArrayValue


class TestArrayId:
    def test_identity_and_repr(self):
        a = ArrayId(3)
        assert a == ArrayId(3)
        assert a != ArrayId(4)
        assert "3" in repr(a)

    def test_not_an_int(self):
        with pytest.raises(TypeError):
            ArrayId(1) + 1  # arithmetic on ids must not silently work

    def test_hashable(self):
        assert len({ArrayId(1), ArrayId(1), ArrayId(2)}) == 2


class TestArrayValue:
    def test_indexing_row_major(self):
        v = ArrayValue((2, 3), [1, 2, 3, 4, 5, 6])
        assert v[1, 1] == 1
        assert v[1, 3] == 3
        assert v[2, 1] == 4
        assert v[2, 3] == 6

    def test_1d_int_index(self):
        v = ArrayValue((3,), [7, 8, 9])
        assert v[2] == 8

    def test_3d(self):
        v = ArrayValue((2, 2, 2), list(range(8)))
        assert v[1, 1, 1] == 0
        assert v[2, 2, 2] == 7
        assert v[2, 1, 2] == 5

    def test_bounds(self):
        v = ArrayValue((2, 2), [0, 0, 0, 0])
        with pytest.raises(IndexError):
            v[0, 1]
        with pytest.raises(IndexError):
            v[3, 1]
        with pytest.raises(IndexError):
            v[1, 1, 1]

    def test_to_nested(self):
        v = ArrayValue((2, 3), [1, 2, 3, 4, 5, 6])
        assert v.to_nested() == [[1, 2, 3], [4, 5, 6]]
        v3 = ArrayValue((2, 1, 2), [1, 2, 3, 4])
        assert v3.to_nested() == [[[1, 2]], [[3, 4]]]

    def test_equality(self):
        assert ArrayValue((2,), [1, 2]) == ArrayValue((2,), [1, 2])
        assert ArrayValue((2,), [1, 2]) != ArrayValue((1, 2), [1, 2])


class TestFrame:
    def make(self, slots=4, inputs=2):
        return Frame(7, 1, ("ctx",), 0, slots, name="t", inputs_expected=inputs)

    def test_slots_absent_until_put(self):
        f = self.make()
        assert not f.present(0)
        f.put(0, 42)
        assert f.present(0)
        assert f.get(0) == 42

    def test_get_absent_raises(self):
        with pytest.raises(LookupError):
            self.make().get(1)

    def test_clear(self):
        f = self.make()
        f.put(2, "x")
        f.clear(2)
        assert not f.present(2)

    def test_put_wakes_only_matching_blocked_slot(self):
        f = self.make()
        f.block_on_slot(3)
        assert f.status == BLOCKED
        assert not f.put(1, "other")
        assert f.put(3, "the one")

    def test_block_on_header(self):
        f = self.make()
        f.block_on_header(9)
        assert f.waiting_header == 9
        f.make_ready()
        assert f.status == READY
        assert f.waiting_header is None

    def test_spawn_seq_monotonic(self):
        f = self.make()
        assert f.next_spawn_seq() == 1
        assert f.next_spawn_seq() == 2

    def test_describe_mentions_state(self):
        f = self.make()
        f.block_on_slot(2)
        assert "blocked" in f.describe()
        assert "slot 2" in f.describe()


class TestMessages:
    def test_token_batch_wire_size(self):
        tokens = tuple(MatchToken(1, ("c",), i, i) for i in range(20))
        msg = TokenBatchMsg(0, 1, tokens)
        assert msg.wire_bytes == 400

    def test_broadcast_wire_size(self):
        msg = BroadcastTokensMsg(0, 1, 0, (DirectToken(1, 0, 5),))
        assert msg.wire_bytes == 20

    def test_page_response_scales_with_cells(self):
        small = PageResponseMsg(0, 1, 1, 0, 0, (1.0,) * 4, 0,
                                ReturnAddress(1, 2, 3))
        large = PageResponseMsg(0, 1, 1, 0, 0, (1.0,) * 32, 0,
                                ReturnAddress(1, 2, 3))
        assert large.wire_bytes > small.wire_bytes
        assert large.wire_bytes == 32 + 8 * 32
