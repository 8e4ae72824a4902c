"""Sparse cache-bank sets: only sets holding a line exist, and the flush
still evicts in ascending set index, LRU first within a set."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.bank import CacheBank
from repro.config import MachineConfig
from repro.memory.backing import MainMemory
from repro.memory.dram import DRAMSystem
from repro.memory.request import (
    OP_READ,
    OP_SCATTER_ADD,
    OP_WRITE,
    MemoryRequest,
)
from repro.sim.engine import Simulator
from repro.sim.stats import Stats

from tests.cache.test_bank import BankHarness
from tests.conftest import Feeder, Sink

SMALL = MachineConfig(cache_size_bytes=512, cache_associativity=2,
                      cache_banks=1)  # 8 sets x 2 ways of 4-word lines


def add(addr, value=1.0):
    return MemoryRequest(OP_SCATTER_ADD, addr, value, combining=True)


def accept_all(received):
    def sink(addr, value):
        received.append((addr, value))
        return True
    return sink


class DenseBank(CacheBank):
    """Reference model: every set materialised up front in a list, and the
    flush scans that list from set 0 on every cycle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dense = [OrderedDict() for _ in range(self.sets)]

    def _lookup(self, line_idx):
        lines = self.dense[self._set_index(line_idx)]
        line = lines.get(line_idx)
        if line is not None:
            lines.move_to_end(line_idx)
        return line

    def _install(self, line_idx, line):
        lines = self.dense[self._set_index(line_idx)]
        while len(lines) >= self.assoc:
            __, victim = lines.popitem(last=False)
            self._evict(victim)
        lines[line_idx] = line

    @property
    def flush_done(self):
        if not self._flushing:
            return True
        return (not any(self.dense) and not self._evict_retry
                and not self._mshrs and self.req_in.idle
                and self.fill_in.idle)

    def _advance_flush(self):
        evicted = 0
        for lines in self.dense:
            while lines and evicted < self.width:
                __, victim = lines.popitem(last=False)
                self._evict(victim)
                evicted += 1
            if evicted >= self.width:
                break
        if self.flush_done:
            self._flushing = False

    @property
    def resident_lines(self):
        return sum(len(lines) for lines in self.dense)


class RecordingMemory(MainMemory):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write_word(self, addr, value):
        self.writes.append((addr, value))
        super().write_word(addr, value)

    def write_line(self, base, values):
        self.writes.append((base, tuple(values)))
        super().write_line(base, values)


class FlushingFeeder(Feeder):
    """Feeds requests one per cycle and asks for a flush after the first
    `flush_after` of them, so later lines install mid-flush."""

    def __init__(self, bank, requests, flush_after):
        super().__init__(bank.req_in, requests, per_cycle=1)
        self.bank = bank
        self.flush_after = flush_after
        self.fed = 0

    def tick(self, now):
        before = len(self.pending)
        super().tick(now)
        self.fed += before - len(self.pending)
        if self.fed >= self.flush_after and self.flush_after >= 0:
            self.bank.request_flush()
            self.flush_after = -1


def _drive(bank_class, config, ops, accepts, flush_after):
    """Run `ops` through one bank; returns everything it sent out."""
    attempts = []

    def sink(addr, value):
        accepted = accepts[len(attempts) % len(accepts)]
        attempts.append((addr, value, accepted))
        return accepted

    sim = Simulator()
    stats = Stats()
    memory = RecordingMemory()
    dram = DRAMSystem(sim, config, memory, stats)
    bank = bank_class(sim, config, stats, dram.req_in, sumback_sink=sink)
    replies = Sink(sim)
    sim.register(replies)
    line = config.cache_line_words
    requests = []
    for kind, line_idx, offset, value in ops:
        addr = line_idx * line + offset
        if kind == "add":
            requests.append(add(addr, value))
        elif kind == "write":
            requests.append(MemoryRequest(OP_WRITE, addr, value))
        else:
            requests.append(MemoryRequest(OP_READ, addr,
                                          reply_to=replies.fifo))
    sim.register(FlushingFeeder(bank, requests, flush_after))
    sim.run()
    bank.request_flush()
    cycles = sim.run()
    assert bank.flush_done and bank.resident_lines == 0
    return {
        "cycles": cycles,
        "sink": attempts,
        "memory_writes": memory.writes,
        "replies": [(r.addr, r.value) for r in replies.received],
        "stats": stats.as_dict(),
    }


class TestSparseSets:
    def test_full_size_bank_starts_with_no_sets(self):
        config = MachineConfig(cache_banks=1)
        assert config.cache_sets_per_bank == 8192
        harness = BankHarness(config)
        assert len(harness.bank._sets) == 0
        assert harness.bank.resident_lines == 0

    def test_sets_never_outnumber_distinct_lines(self, rng):
        config = MachineConfig(cache_banks=1)
        harness = BankHarness(config, sumback_sink=accept_all([]))
        bank = harness.bank
        line = config.cache_line_words
        lines = [int(i) for i in rng.integers(0, 50_000, size=300)]
        harness.run([add(i * line) for i in lines])
        assert 0 < len(bank._sets) <= len(set(lines))
        assert sorted(bank._sets) == sorted(bank._resident)
        assert len(bank._sets) <= bank.resident_lines <= len(set(lines))

    def test_lookup_of_an_absent_set_creates_nothing(self):
        harness = BankHarness(MachineConfig(cache_banks=1))
        harness.run([add(0)])
        assert harness.bank.peek_word(4 * 1000) is None
        assert len(harness.bank._sets) == 1

    def test_flush_evicts_by_set_index_then_lru(self):
        received = []
        harness = BankHarness(SMALL, sumback_sink=accept_all(received))
        line = SMALL.cache_line_words
        assert SMALL.cache_sets_per_bank == 8
        # Install out of set order; in set 5 touch line 5 again after 13
        # so 13 becomes least recently used.
        order = [6, 5, 13, 1, 5, 14, 3]
        harness.run([add(i * line, float(i)) for i in order])
        harness.bank.request_flush()
        harness.sim.run()
        # Sets 1, 3, 5, 5, 6, 6.
        assert [addr // line for addr, __ in received] == [
            1, 3, 13, 5, 6, 14]
        assert [value for __, value in received] == [
            1.0, 3.0, 13.0, 10.0, 6.0, 14.0]

    def test_flush_drops_sets_then_reinstall_recreates_them(self):
        received = []
        harness = BankHarness(SMALL, sumback_sink=accept_all(received))
        bank = harness.bank
        line = SMALL.cache_line_words
        harness.run([add(i * line) for i in (2, 10, 7)])
        assert sorted(bank._sets) == [2, 7]
        bank.request_flush()
        harness.sim.run()
        assert bank._sets == {} and bank._resident == []
        assert bank.flush_done
        harness.run([add(7 * line, 4.0), add(15 * line, 2.0)])
        assert sorted(bank._sets) == [7] and bank._resident == [7]
        assert bank.resident_lines == 2
        bank.request_flush()
        harness.sim.run()
        assert bank._sets == {} and bank.resident_lines == 0
        assert [addr // line for addr, __ in received] == [2, 10, 7, 7, 15]

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "add", "write", "read"]),
                      st.integers(0, 40), st.integers(0, 3),
                      st.integers(1, 9).map(float)),
            min_size=1, max_size=60),
        accepts=st.lists(st.booleans(), max_size=6),
        flush_after=st.integers(-1, 60),
        cache_bw_gbs=st.sampled_from([8.0, 16.0, 64.0]),
    )
    def test_matches_a_dense_reference(self, ops, accepts, flush_after,
                                       cache_bw_gbs):
        """Random installs, hits, sum-back rejections (retries) and a
        flush, possibly mid-stream: the sparse bank sends exactly what the
        dense model sends, in the same order and on the same cycles."""
        config = SMALL.with_changes(cache_bw_gbs=cache_bw_gbs)
        accepts = list(accepts) + [True]  # every sum-back gets through
        sparse = _drive(CacheBank, config, ops, accepts, flush_after)
        dense = _drive(DenseBank, config, ops, accepts, flush_after)
        assert sparse == dense
