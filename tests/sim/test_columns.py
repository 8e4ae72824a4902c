"""Array-at-a-time folds match the scalar combining algebra exactly.

The numpy references (:func:`repro.api.scatter_op_reference`) fold a
whole index column with ``np.ufunc.at``; the simulator folds one request
at a time with :func:`repro.memory.request.combine`.  Every functional
result is checked against those references, so both must agree
bit-for-bit -- including the awkward cases: duplicate indices in one
batch, min/max ties (and signed-zero ties), the empty batch, and the
single-request batch.  The chain tests cover the simulator's side: a
same-address chain through the scatter-add unit keeps the bit pattern
of the scalar left fold at every step.
"""

import numpy as np
import pytest

from repro.api import scatter_op_reference
from repro.config import MachineConfig
from repro.memory.request import (OP_FETCH_ADD, OP_SCATTER_ADD,
                                  OP_SCATTER_MAX, OP_SCATTER_MIN,
                                  OP_SCATTER_MUL, MemoryRequest, combine,
                                  identity_value)
from repro.node.agu import StreamMemOp
from repro.node.processor import StreamProcessor
from repro.node.program import Phase, StreamProgram

OPS = (OP_SCATTER_ADD, OP_SCATTER_MIN, OP_SCATTER_MAX,
       OP_SCATTER_MUL, OP_FETCH_ADD)


def _scalar_fold(op, target, indices, operands):
    """Reference: apply each (index, operand) in order via scalar combine."""
    out = np.array(target, dtype=np.float64)
    for index, operand in zip(indices, operands):
        out[index] = combine(op, float(out[index]), float(operand))
    return out


class TestCombineBatch:
    @pytest.mark.parametrize("op", OPS)
    def test_duplicate_indices(self, op):
        rng = np.random.default_rng(3)
        target = rng.normal(size=8)
        indices = np.array([3, 3, 3, 1, 3, 1, 0, 3])
        operands = rng.normal(size=len(indices))
        expected = _scalar_fold(op, target, indices, operands)
        got = scatter_op_reference(op, target, indices, operands)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op", (OP_SCATTER_MIN, OP_SCATTER_MAX))
    def test_min_max_ties(self, op):
        # Equal operands must leave exactly one representative; signed
        # zeros compare equal, so either representation is bit-acceptable
        # under == (the scalar path keeps the incumbent, numpy may not).
        target = np.array([2.0, -1.0, 0.0])
        indices = np.array([0, 0, 1, 1, 2, 2])
        operands = np.array([2.0, 2.0, -1.0, -1.0, -0.0, 0.0])
        expected = _scalar_fold(op, target, indices, operands)
        got = scatter_op_reference(op, target, indices, operands)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op", OPS)
    def test_empty_batch(self, op):
        target = np.array([1.0, 2.0, 3.0])
        got = scatter_op_reference(op, target, np.array([], dtype=np.int64),
                                   np.array([], dtype=np.float64))
        np.testing.assert_array_equal(got, target)

    @pytest.mark.parametrize("op", OPS)
    def test_single_request_batch(self, op):
        target = np.array([4.0, -2.5])
        got = scatter_op_reference(op, target, np.array([1]),
                                   np.array([0.75]))
        expected = _scalar_fold(op, target, [1], [0.75])
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op", OPS)
    def test_scalar_operand_broadcasts(self, op):
        target = (np.zeros(4) if op in (OP_SCATTER_ADD, OP_FETCH_ADD)
                  else np.full(4, 2.0))
        indices = np.array([2, 2, 0, 2])
        expected = _scalar_fold(op, target, indices, [1.5] * 4)
        got = scatter_op_reference(op, target, indices, 1.5)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op", OPS)
    def test_identity_operands_are_neutral(self, op):
        rng = np.random.default_rng(7)
        target = rng.normal(size=5)
        indices = np.array([0, 1, 2, 3, 4])
        got = scatter_op_reference(op, target, indices,
                                   np.full(5, identity_value(op)))
        np.testing.assert_array_equal(got, target)

    @pytest.mark.parametrize("op", OPS)
    def test_large_random_batch_matches_scalar(self, op):
        rng = np.random.default_rng(11)
        target = rng.normal(size=32)
        indices = rng.integers(0, 32, size=500)
        operands = rng.normal(size=500)
        expected = _scalar_fold(op, target, indices, operands)
        got = scatter_op_reference(op, target, indices, operands)
        np.testing.assert_array_equal(got, expected)


def _simulated_chain(op, start, operands):
    """Run one same-address stream op; returns (op.result, final word)."""
    processor = StreamProcessor(MachineConfig.table1())
    processor.load_array(0, np.array([start]))
    stream = StreamMemOp(op, [0] * len(operands),
                         [float(operand) for operand in operands])
    processor.run(StreamProgram([Phase([stream])]))
    return stream.result, float(processor.read_result(0, 1)[0])


class TestChainPrefix:
    @pytest.mark.parametrize("op", OPS)
    def test_prefix_fold_matches_scalar(self, op):
        rng = np.random.default_rng(13)
        start = float(rng.normal())
        operands = rng.normal(size=9)
        returned, final = _simulated_chain(op, start, operands)
        prefixes = [start]
        for operand in operands:
            prefixes.append(combine(op, prefixes[-1], float(operand)))
        assert final == prefixes[-1]
        if op == OP_FETCH_ADD:
            # Fetch-add returns the value each update found: every
            # intermediate prefix of the chain, in stream order.
            assert returned == prefixes[:-1]

    def test_empty_chain(self):
        returned, final = _simulated_chain(OP_FETCH_ADD, 1.0, [])
        assert returned == [] and final == 1.0


class TestRequestFootprint:
    def test_memory_request_has_no_dict(self):
        request = MemoryRequest(OP_SCATTER_ADD, addr=7, value=1.0)
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.arbitrary_attribute = 1
