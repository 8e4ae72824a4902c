"""Persistent fork-based worker pool with per-task retry on worker death.

:func:`repro.harness.sweep.sweep`'s original ``workers=N`` support built a
throwaway ``multiprocessing.Pool`` per call and died with any worker.
:class:`ForkExecutor` extends that fork pool into a reusable executor, the
execution engine behind both ``harness.sweep(workers=)`` and the
``repro serve`` daemon:

- **Persistent**: workers fork once and consume tasks until
  :meth:`ForkExecutor.shutdown`; submitting is cheap, so a long-running
  server amortises pool start-up across every job it shards.
- **Dedicated assignment**: the dispatcher hands each task to a specific
  idle worker and records the assignment *in the parent*, so when a
  worker dies mid-task (OOM kill, segfault in a native extension,
  ``os._exit``) the parent knows exactly which task it held.
- **Retry on worker death**: a task whose worker died is resubmitted (up
  to ``retries`` times — simulations are deterministic, so re-execution
  is safe) and the dead slot is respawned.  Exhausted retries fail the
  task's future with :class:`WorkerDied`.  Ordinary exceptions raised by
  the task function are *not* retried: they are deterministic, and
  re-running them would only repeat the failure.

Tasks and results travel pickled through queues; the task function is
fixed at construction and inherited by workers through fork, so it only
needs to be module-level when tasks themselves must cross the pickle
boundary unambiguously (the same contract the old pool had).
"""

import collections
import multiprocessing
import os
import signal
import threading
from concurrent.futures import Future

#: Dispatcher poll interval: bounds how quickly dead workers are noticed.
_POLL_SECONDS = 0.05


class WorkerDied(RuntimeError):
    """A task's worker process died and its retry budget is exhausted."""


def _worker_main(fn, worker_id, tasks, results):
    """Worker loop: apply `fn` to each task; ``None`` is the stop signal."""
    # A worker forked after the parent's event loop took over SIGTERM and
    # SIGINT inherits that handler and its wakeup fd: SIGTERM would neither
    # kill it nor stay its own.  Restore the defaults.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    while True:
        task = tasks.get()
        if task is None:
            return
        seq, item = task
        try:
            value = fn(item)
        except BaseException as exc:  # deterministic task error -> report
            results.put(("error", worker_id, seq,
                         "%s: %s" % (type(exc).__name__, exc)))
        else:
            results.put(("done", worker_id, seq, value))


class _Worker:
    """One worker slot: a process plus its dedicated task queue."""

    def __init__(self, context, fn, worker_id, results):
        self.id = worker_id
        self.tasks = context.SimpleQueue()
        self.process = context.Process(
            target=_worker_main, args=(fn, worker_id, self.tasks, results),
            daemon=True, name="repro-worker-%d" % worker_id)
        self.process.start()

    @property
    def dead(self):
        return not self.process.is_alive() and self.process.exitcode is not None


class ForkExecutor:
    """Reusable fork pool; :meth:`submit` returns a standard ``Future``."""

    def __init__(self, fn, workers=None, retries=1):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("ForkExecutor needs >= 1 worker")
        self._fn = fn
        self._retries = int(retries)
        self._context = multiprocessing.get_context("fork")
        self._results = self._context.Queue()
        self._lock = threading.Lock()
        self._seq = 0
        self._futures = {}    # seq -> Future
        self._items = {}      # seq -> task item
        self._attempts = {}   # seq -> execution attempts so far
        self._backlog = collections.deque()
        self._assigned = {}   # worker_id -> seq
        self._next_worker_id = 0
        self._workers = {}
        self._closed = False
        #: Total task resubmissions caused by worker deaths (observable
        #: via the server's /v1/stats).
        self.retries_performed = 0
        self.workers_respawned = 0
        for _ in range(workers):
            self._spawn()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="repro-executor-dispatch")
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    def submit(self, item):
        """Queue one task; returns a ``concurrent.futures.Future``."""
        future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            seq = self._seq
            self._seq += 1
            self._futures[seq] = future
            self._items[seq] = item
            self._attempts[seq] = 0
            self._backlog.append(seq)
            self._assign_locked()
        return future

    def map(self, items):
        """Submit every item; returns the futures in submission order."""
        return [self.submit(item) for item in items]

    @property
    def live_workers(self):
        """How many worker processes are currently alive (telemetry)."""
        with self._lock:
            return sum(1 for worker in self._workers.values()
                       if not worker.dead)

    def shutdown(self):
        """Stop workers and the dispatcher; pending futures are cancelled."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [self._futures[seq] for seq in self._backlog]
            self._backlog.clear()
        for future in pending:
            future.cancel()
        self._dispatcher.join(timeout=5)
        for worker in list(self._workers.values()):
            try:
                worker.tasks.put(None)
            except (OSError, ValueError):
                pass
        for worker in list(self._workers.values()):
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
        self._results.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    # ------------------------------------------------------------------ #
    def _spawn(self):
        worker = _Worker(self._context, self._fn, self._next_worker_id,
                         self._results)
        self._next_worker_id += 1
        self._workers[worker.id] = worker
        return worker

    def _assign_locked(self):
        """Hand backlog tasks to idle live workers (lock held)."""
        busy = set(self._assigned)
        for worker in self._workers.values():
            if not self._backlog:
                return
            if worker.id in busy or worker.dead:
                continue
            seq = self._backlog.popleft()
            self._assigned[worker.id] = seq
            self._attempts[seq] += 1
            worker.tasks.put((seq, self._items[seq]))

    def _dispatch_loop(self):
        while True:
            drained = self._drain_results()
            with self._lock:
                self._reap_dead_locked()
                self._assign_locked()
                if self._closed:
                    return
            if not drained:
                # Nothing arrived this round; the timeout above already
                # provided the poll delay, so loop straight back.
                continue

    def _drain_results(self):
        """Consume completion messages; returns how many arrived."""
        import queue as _queue

        count = 0
        timeout = _POLL_SECONDS
        while True:
            try:
                message = self._results.get(timeout=timeout)
            except (_queue.Empty, OSError, ValueError):
                return count
            timeout = 0  # drain whatever else is ready without waiting
            count += 1
            kind, worker_id, seq, payload = message
            with self._lock:
                self._assigned.pop(worker_id, None)
                future = self._futures.get(seq)
                if future is None or future.done():
                    continue  # superseded by a retry that already finished
                self._forget_locked(seq)
            if kind == "done":
                future.set_result(payload)
            else:
                future.set_exception(RuntimeError(payload))

    def _reap_dead_locked(self):
        """Respawn dead workers; retry or fail the tasks they held."""
        for worker_id, worker in list(self._workers.items()):
            if not worker.dead:
                continue
            del self._workers[worker_id]
            seq = self._assigned.pop(worker_id, None)
            if not self._closed:
                self._spawn()
                self.workers_respawned += 1
            if seq is None:
                continue
            future = self._futures.get(seq)
            if future is None or future.done():
                continue
            if self._attempts[seq] <= self._retries:
                self.retries_performed += 1
                self._backlog.appendleft(seq)
            else:
                exitcode = worker.process.exitcode
                self._forget_locked(seq)
                future.set_exception(WorkerDied(
                    "worker died (exit code %s) and %d retr%s exhausted"
                    % (exitcode, self._retries,
                       "y was" if self._retries == 1 else "ies were")))

    def _forget_locked(self, seq):
        self._futures.pop(seq, None)
        self._items.pop(seq, None)
        self._attempts.pop(seq, None)

    def __repr__(self):
        return "ForkExecutor(%d workers, %d queued)" % (
            len(self._workers), len(self._backlog))
