"""The ``repro serve`` daemon: an asyncio HTTP/JSON simulation service.

A deliberately small HTTP/1.1 implementation on raw asyncio streams (no
framework dependency): one connection per request, JSON bodies, and an
NDJSON streaming endpoint for job progress.

Endpoints (all under ``/v1``):

- ``GET  /v1/healthz`` — liveness probe.
- ``GET  /v1/stats`` — server / cache / worker-pool counters, including
  ``simulations`` and ``simulated_cycles``: the engine-cycle ledger that
  only moves when a simulation actually executes, which is how the smoke
  test proves a repeated job costs zero additional simulation.
- ``GET  /v1/metrics`` — the full telemetry registry in Prometheus text
  exposition format (per-endpoint request counters/latency histograms,
  job lifecycle spans, cache hit/miss/quarantine counters, worker-pool
  gauges, ``repro_slo_*`` gauges; see
  :mod:`repro.service.telemetry`).
- ``GET  /v1/slo`` — the SLO evaluation report: rolling per-workload
  simulated-cycles/sec vs the ``benchmarks/baseline.json`` floors and
  rolling p99 job latency (see :mod:`repro.service.slo`; ``repro slo
  --check`` exits nonzero on a violation).
- ``POST /v1/jobs`` — submit a job spec (body: the spec, optionally
  wrapped as ``{"job": spec, "wait": bool}``).  The spec is canonicalized
  and content-hashed; a cache hit completes immediately, an in-flight job
  with the same hash is joined rather than duplicated, and only a genuine
  miss simulates.  With ``wait`` (default true) the response carries the
  full result payload.
- ``GET  /v1/jobs/<id>`` — status and progress.
- ``GET  /v1/jobs/<id>/result`` — the result payload of a finished job.
- ``GET  /v1/jobs/<id>/events`` — NDJSON event stream: replay of the
  job's event log, then live events until ``done``/``failed``.  Sweep
  jobs emit one ``point`` event per completed design point; sampled runs
  (``sim.sample_every > 0``) emit one ``timeline`` event per
  cycle-window of the obs timeline sampler.
- ``GET  /v1/cache/<key>`` — the raw cached payload for a content hash.

Sweep and grid-sweep jobs are sharded point-by-point across the
persistent :class:`~repro.service.pool.ForkExecutor`; each point is
cached under its own single-run key, so overlapping sweeps share work
and a repeated sweep simulates nothing.
"""

import asyncio
import json
import signal
import time

from repro.service.cache import ResultCache
from repro.service.logs import JsonLogger
from repro.service.pool import ForkExecutor
from repro.service.schema import (
    JobError,
    canonical_job,
    execute_job,
    job_key,
    point_jobs,
)
from repro.service.slo import SLOEvaluator
from repro.service.store import JobStore
from repro.service.telemetry import ServiceTelemetry

#: Largest request body accepted, in bytes (index arrays are the bulk).
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 500: "Internal Server Error"}

#: Content type of the Prometheus exposition endpoint.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class Server:
    """Service state: job store, result cache, worker pool, telemetry."""

    def __init__(self, cache_dir, workers=None, retries=1, slo=None,
                 log_path=None):
        self.slo = slo if slo is not None else SLOEvaluator()
        self.telemetry = ServiceTelemetry(
            log=JsonLogger(log_path) if log_path else None, slo=self.slo)
        self.cache = ResultCache(cache_dir, telemetry=self.telemetry)
        self.store = JobStore(telemetry=self.telemetry)
        self.workers = 0 if workers == 0 else (workers or 1)
        self.retries = retries
        self.executor = None
        self.started = time.time()
        self.counters = {
            "jobs_submitted": 0,
            "jobs_deduped": 0,
            "simulations": 0,
            "simulated_cycles": 0,
            "points_completed": 0,
        }
        self.telemetry.watch_pool(lambda: self.executor)
        self.telemetry.pool_workers_configured.set(self.workers)
        self._tasks = set()
        self._asyncio_server = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host="127.0.0.1", port=8642):
        """Bind and start serving; returns ``(host, actual_port)``."""
        if self.workers:
            self.executor = ForkExecutor(execute_job, workers=self.workers,
                                         retries=self.retries)
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host, port)
        return self._asyncio_server.sockets[0].getsockname()[:2]

    async def close(self):
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self.executor is not None:
            self.executor.shutdown()
        self.telemetry.close()

    async def serve_forever(self):
        await self._asyncio_server.serve_forever()

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #
    async def submit(self, spec, wait=True):
        """Accept one job spec; returns the response payload."""
        job_spec = canonical_job(spec)
        key = job_key(job_spec)
        self.counters["jobs_submitted"] += 1

        cached = None
        if job_spec["type"] == "run":
            cached = self.cache.get(key)
        if cached is not None:
            # O(1) hit: one cache read, no simulation, no queueing.
            job = self.store.create(key, job_spec)
            job.cached = True
            await job.emit("queued", key=key, job_type="run")
            await job.finish(result={"kind": "run", "key": key,
                                     "cached": True, "run": cached})
            self.store.settle(job)
            return self._submission_response(job, wait, deduped=False)

        active = self.store.active(key)
        if active is not None:
            self.counters["jobs_deduped"] += 1
            self.telemetry.job_deduped(job_spec["type"])
            if wait:
                await active.wait()
            return self._submission_response(active, wait, deduped=True)

        job = self.store.create(key, job_spec)
        await job.emit("queued", key=key, job_type=job_spec["type"])
        task = asyncio.ensure_future(self._execute(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        if wait:
            await job.wait()
        return self._submission_response(job, wait, deduped=False)

    def _submission_response(self, job, wait, deduped):
        response = job.describe()
        response["deduped"] = deduped
        if wait and job.status == "done":
            response["result"] = job.result
        return response

    async def _execute(self, job):
        try:
            job.mark_running()
            self.telemetry.job_started(job)
            await job.emit("started")
            if job.spec["type"] == "run":
                result = await self._execute_run(job)
            else:
                result = await self._execute_sweep(job)
            await job.finish(result=result)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await job.finish(error="%s: %s" % (type(exc).__name__, exc))
        finally:
            self.store.settle(job)

    async def _simulate(self, point_spec, key):
        """Run one canonical point on the pool (or inline with workers=0)."""
        started = time.monotonic()
        if self.executor is not None:
            payload = await asyncio.wrap_future(
                self.executor.submit(point_spec))
        else:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, execute_job,
                                                 point_spec)
        self.counters["simulations"] += 1
        self.counters["simulated_cycles"] += payload["cycles"]
        self.telemetry.simulation(key, payload["cycles"],
                                  time.monotonic() - started)
        return payload

    async def _execute_run(self, job):
        payload = await self._simulate(job.spec, job.key)
        self.cache.put(job.key, job.spec, payload)
        await self._emit_timelines(job, payload)
        job.progress["completed"] = 1
        return {"kind": "run", "key": job.key, "cached": False,
                "run": payload}

    async def _execute_sweep(self, job):
        overrides, points = point_jobs(job.spec)
        keys = [job_key(point) for point in points]
        job.progress["total"] = len(points)
        rows = [None] * len(points)

        async def run_point(index):
            key = keys[index]
            payload = self.cache.get(key)
            hit = payload is not None
            if not hit:
                payload = await self._simulate(points[index], key)
                self.cache.put(key, points[index], payload)
            row = dict(overrides[index])
            row.update({
                "cycles": payload["cycles"],
                "microseconds": payload["microseconds"],
                "mem_refs": payload["mem_refs"],
                "key": key,
                "cached": hit,
            })
            rows[index] = row
            job.progress["completed"] += 1
            self.counters["points_completed"] += 1
            self.telemetry.point_completed()
            await job.emit("point", index=index, total=len(points),
                           key=key, cached=hit, cycles=payload["cycles"],
                           **overrides[index])

        await asyncio.gather(*[run_point(i) for i in range(len(points))])
        result = {"kind": job.spec["type"], "rows": rows,
                  "points": len(points),
                  "points_cached": sum(1 for row in rows if row["cached"])}
        if job.spec["type"] == "sweep":
            result["field"] = job.spec["field"]
        else:
            result["fields"] = list(job.spec["fields"])
        return result

    async def _emit_timelines(self, job, payload):
        """Stream the obs timeline sampler's windows as progress events."""
        timelines = payload.get("timelines")
        if not timelines:
            return
        length = max(len(t["cycles"]) for t in timelines.values())
        for index in range(length):
            cycle = None
            values = {}
            for name in sorted(timelines):
                timeline = timelines[name]
                if index < len(timeline["cycles"]):
                    cycle = timeline["cycles"][index]
                    values[name] = timeline["values"][index]
            await job.emit("timeline", window=index, cycle=cycle,
                           values=values)

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self):
        pool = {"workers": self.workers, "retries_performed": 0,
                "workers_respawned": 0}
        if self.executor is not None:
            pool["retries_performed"] = self.executor.retries_performed
            pool["workers_respawned"] = self.executor.workers_respawned
        return {
            "jobs": len(self.store),
            "uptime_seconds": time.time() - self.started,
            "cache": {**self.cache.stats(), "entries": len(self.cache)},
            "pool": pool,
            **self.counters,
        }

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer):
        started = time.monotonic()
        method = path = None
        endpoint, status = "invalid", 0
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            endpoint, status = await self._route(method, path, body,
                                                 writer)
        except ConnectionError:
            pass
        except Exception as exc:
            status = 500
            try:
                await self._respond(writer, 500, {
                    "error": "%s: %s" % (type(exc).__name__, exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if status:
            # Observation happens strictly after the response bytes are
            # out, so instrumenting a request can never slow it down.
            self.telemetry.request(method or "-", path or "-", endpoint,
                                   status, time.monotonic() - started)

    async def _read_request(self, reader):
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        head, _, _ = header_blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _ = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return method, path, b"__TOO_LARGE__"
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(self, method, path, body, writer):
        """Dispatch one request; returns ``(endpoint_label, status)``.

        The endpoint label is the *normalized* route name (``job``, not
        ``/v1/jobs/j000017``), so request metrics stay low-cardinality.
        """
        if body == b"__TOO_LARGE__":
            return "invalid", await self._respond(
                writer, 413, {"error": "request body too large"})
        parts = [part for part in path.split("?")[0].split("/") if part]
        if parts[:1] != ["v1"]:
            return "invalid", await self._respond(writer, 404,
                                                  {"error": "not found"})
        tail = parts[1:]
        if method == "GET" and tail == ["healthz"]:
            return "healthz", await self._respond(writer, 200,
                                                  {"ok": True})
        if method == "GET" and tail == ["stats"]:
            return "stats", await self._respond(writer, 200, self.stats())
        if method == "GET" and tail == ["metrics"]:
            return "metrics", await self._respond_text(
                writer, 200, self.telemetry.render(),
                _PROMETHEUS_CONTENT_TYPE)
        if method == "GET" and tail == ["slo"]:
            return "slo", await self._respond(writer, 200,
                                              self.slo.evaluate())
        if method == "POST" and tail == ["jobs"]:
            return "jobs", await self._handle_submit(body, writer)
        if method == "GET" and len(tail) == 2 and tail[0] == "cache":
            payload = self.cache.get(tail[1])
            if payload is None:
                return "cache_entry", await self._respond(
                    writer, 404, {"error": "no cache entry"})
            return "cache_entry", await self._respond(
                writer, 200, {"key": tail[1], "payload": payload})
        if tail[:1] == ["jobs"] and len(tail) >= 2:
            job = self.store.get(tail[1])
            if job is None:
                return "job", await self._respond(writer, 404,
                                                  {"error": "unknown job"})
            if method != "GET":
                return "job", await self._respond(writer, 405,
                                                  {"error": "GET only"})
            if len(tail) == 2:
                return "job", await self._respond(writer, 200,
                                                  job.describe())
            if tail[2] == "result":
                if job.status != "done":
                    return "job_result", await self._respond(
                        writer, 404, {"error": "job not done",
                                      "status": job.status})
                return "job_result", await self._respond(writer, 200,
                                                         job.result)
            if tail[2] == "events":
                return "job_events", await self._stream_events(job, writer)
        return "invalid", await self._respond(writer, 404,
                                              {"error": "not found"})

    async def _handle_submit(self, body, writer):
        try:
            spec = json.loads(body.decode("utf-8")) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            return await self._respond(writer, 400,
                                       {"error": "body is not valid JSON"})
        wait = True
        if isinstance(spec, dict) and "job" in spec:
            wait = bool(spec.get("wait", True))
            spec = spec["job"]
        try:
            response = await self.submit(spec, wait=wait)
        except JobError as exc:
            return await self._respond(writer, 400, {"error": str(exc)})
        status = 200 if response["status"] in ("done", "failed") else 202
        return await self._respond(writer, status, response)

    async def _stream_events(self, job, writer):
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n")
        await writer.drain()
        async for event in job.subscribe():
            writer.write(json.dumps(event, sort_keys=True).encode("utf-8")
                         + b"\n")
            await writer.drain()
        return 200

    async def _respond(self, writer, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        return await self._respond_text(writer, status, body,
                                        "application/json")

    async def _respond_text(self, writer, status, body, content_type):
        if isinstance(body, str):
            body = body.encode("utf-8")
        writer.write(
            ("HTTP/1.1 %d %s\r\n"
             "Content-Type: %s\r\n"
             "Content-Length: %d\r\n"
             "Connection: close\r\n\r\n"
             % (status, _STATUS_TEXT.get(status, "OK"), content_type,
                len(body))).encode("latin-1"))
        writer.write(body)
        await writer.drain()
        return status


async def serve(host, port, cache_dir, workers=None, retries=1,
                announce=print, log_path=None, baseline_path=None,
                throughput_fraction=None, p99_ceiling_seconds=None):
    """Run the daemon until cancelled (the ``repro serve`` entry point)."""
    slo_options = {"p99_ceiling_seconds": p99_ceiling_seconds}
    if throughput_fraction is not None:
        slo_options["throughput_fraction"] = throughput_fraction
    slo = SLOEvaluator.from_baseline_file(baseline_path, **slo_options)
    server = Server(cache_dir, workers=workers, retries=retries,
                    slo=slo, log_path=log_path)
    bound_host, bound_port = await server.start(host, port)
    announce("repro service listening on http://%s:%d (cache: %s, "
             "%d worker%s)" % (bound_host, bound_port, server.cache.root,
                               server.workers,
                               "" if server.workers == 1 else "s"))
    # SIGTERM/SIGINT stop serving so that `close()` shuts the worker pool
    # down; without this the default handler kills the daemon outright and
    # leaves its forked workers orphaned.
    loop = asyncio.get_running_loop()
    serving = asyncio.ensure_future(server.serve_forever())
    stopped = []

    def stop():
        stopped.append(True)
        serving.cancel()

    signals = (signal.SIGTERM, signal.SIGINT)
    for signum in signals:
        loop.add_signal_handler(signum, stop)
    try:
        await serving
    except asyncio.CancelledError:
        if not stopped:
            raise
    finally:
        for signum in signals:
            loop.remove_signal_handler(signum)
        await server.close()
