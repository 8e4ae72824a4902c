"""The scatter-add functional unit: a pipelined 64-bit adder.

Fully pipelined with a configurable latency (Table 1: 4 cycles at 1 GHz,
matching the Imagine standard-cell ALU the paper's area analysis is based
on).  One operation may be issued per cycle; results emerge in issue order
`latency` cycles later.  Besides addition it implements the commutative /
associative extensions of Section 3.3 (min, max, multiply).
"""

from collections import deque

from repro.memory.request import combine


class AddPipeline:
    """Pipelined functional unit with single-issue per cycle."""

    def __init__(self, latency):
        if latency < 1:
            raise ValueError("functional unit latency must be >= 1")
        self.latency = latency
        self._stages = deque()  # (done_cycle, result, old_value, meta)
        self._last_issue = -1
        self.total_ops = 0

    def can_issue(self, now):
        """True if an operation can enter the pipeline this cycle."""
        return self._last_issue < now

    def issue(self, op, old_value, operand, meta, now):
        """Start ``old_value <op> operand``; completes after `latency` cycles."""
        if not self.can_issue(now):
            raise OverflowError("functional unit already issued this cycle")
        self._last_issue = now
        self.total_ops += 1
        result = combine(op, old_value, operand)
        self._stages.append((now + self.latency, result, old_value, meta))

    def completed(self, now):
        """Pop and return (result, old_value, meta) if one finishes this cycle."""
        if self._stages and self._stages[0][0] <= now:
            __, result, old_value, meta = self._stages.popleft()
            return result, old_value, meta
        return None

    def next_completion(self):
        """Cycle the oldest in-flight op completes, or ``None`` if empty."""
        return self._stages[0][0] if self._stages else None

    @property
    def busy(self):
        return bool(self._stages)

    @property
    def in_flight(self):
        """Operations currently inside the pipeline (occupancy probe)."""
        return len(self._stages)

    def __repr__(self):
        return "AddPipeline(latency=%d, %d in flight)" % (
            self.latency, len(self._stages),
        )
