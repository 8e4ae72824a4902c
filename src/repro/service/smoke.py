"""End-to-end service smoke test (the CI ``service-smoke`` job).

Boots the real daemon as a subprocess, submits the same Figure 11 job
twice, and asserts the service contract the cache exists to provide:

1. the first submission simulates (``simulations`` moves to 1 and
   ``simulated_cycles`` advances by exactly the run's cycle count);
2. the second submission is answered from the content-addressed cache —
   ``cached: true``, *zero* additional simulations, and a result payload
   byte-identical to the first (canonical JSON compare);
3. a third submission through a fresh daemon on the same cache directory
   still hits, proving the entry is durable on disk, not process memory.

The telemetry layer is exercised in the same pass: mid-run the smoke
scrapes ``GET /v1/metrics``, pipes the exposition text through
:func:`repro.obs.telemetry.validate_prometheus_text` (the same validator
``repro validate`` applies to files) and cross-checks the scraped
counters against what the run just did; the daemon writes a structured
NDJSON job log (``--log-json``, which CI uploads as an artifact) whose
lines are re-parsed and checked; and ``repro slo --check`` runs against
the live daemon to prove the SLO gate answers.

Run it directly (any engine the simulator supports)::

    python -m repro.service.smoke --engine event --log-json smoke.ndjson
"""

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile

from repro.obs.telemetry import parse_prometheus_text, validate_prometheus_text
from repro.service.client import Client
from repro.service.slo import fig11_job


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start_daemon(port, cache_dir, workers, log_path=None):
    command = [sys.executable, "-m", "repro", "serve", "--host",
               "127.0.0.1", "--port", str(port), "--cache-dir", cache_dir,
               "--workers", str(workers)]
    if log_path:
        command += ["--log-json", log_path]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT)
    client = Client("http://127.0.0.1:%d" % port)
    try:
        client.wait_ready(timeout=60)
    except TimeoutError:
        process.send_signal(signal.SIGTERM)
        output = process.communicate(timeout=10)[0]
        raise SystemExit("daemon never became ready; output:\n%s"
                         % output.decode("utf-8", "replace"))
    return process, client


def _stop_daemon(process):
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check(condition, message):
    if not condition:
        raise SystemExit("service smoke FAIL: " + message)
    print("  ok: " + message)


def _check_metrics(client, run):
    """Scrape /v1/metrics mid-run; validate and cross-check the counters."""
    text = client.metrics()
    families = validate_prometheus_text(text)
    check(True, "/v1/metrics passes the exposition validator "
                "(%d families)" % len(families))
    sims = families["repro_simulations_total"].value({})
    check(sims == 1, "scraped repro_simulations_total == 1")
    cycles = families["repro_simulated_cycles_total"].value({})
    check(cycles == run["cycles"],
          "scraped repro_simulated_cycles_total matches the run")
    hits = families["repro_cache_lookups_total"].value({"outcome": "hit"})
    check(hits == 1, "scraped cache hit counter recorded the repeat")
    jobs = families["repro_http_requests_total"].value(
        {"endpoint": "jobs", "method": "POST", "status": "200"})
    check(jobs == 2, "per-endpoint request counter saw both submissions")
    count = families["repro_http_request_seconds"].value(
        {"endpoint": "jobs"}, suffix="_count")
    check(count == 2, "request latency histogram observed both requests")
    return text


def _check_slo_gate(port):
    """``repro slo --check`` against the live daemon must exit 0."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "slo", "--check", "--server",
         "http://127.0.0.1:%d" % port],
        capture_output=True, text=True)
    check(result.returncode == 0,
          "repro slo --check passes against the live daemon")


def _check_job_log(log_path):
    """Re-parse the NDJSON job log the daemon wrote."""
    with open(log_path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    check(all("ts" in line and "event" in line for line in lines),
          "every NDJSON log line carries ts + event")
    phases = [line.get("phase") for line in lines
              if line["event"] == "job"]
    check("submitted" in phases and "done" in phases,
          "job log records submitted and done phases")
    accesses = [line for line in lines if line["event"] == "access"]
    check(any(line.get("endpoint") == "metrics" for line in accesses),
          "access log saw the /v1/metrics scrape")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", default=None,
                        help="scheduler engine to pin in the job spec "
                             "(event, legacy, fastforward)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--log-json", default=None, metavar="FILE",
                        help="have the daemon write its NDJSON job log "
                             "here (kept after the run, e.g. as a CI "
                             "artifact)")
    parser.add_argument("--metrics-text-out", default=None, metavar="FILE",
                        help="also save the scraped /v1/metrics exposition "
                             "text to FILE")
    args = parser.parse_args(argv)

    job = fig11_job(args.engine)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        log_path = args.log_json or (cache_dir + "/smoke-jobs.ndjson")
        port = _free_port()
        process, client = _start_daemon(port, cache_dir, args.workers,
                                        log_path=log_path)
        try:
            print("submitting fig11 job (engine=%s) twice..."
                  % (args.engine or "default"))
            first = client.submit(job)
            check(first["status"] == "done", "first submission completed")
            check(not first["cached"], "first submission was a cache miss")
            run = first["result"]["run"]
            stats = client.stats()
            check(stats["simulations"] == 1,
                  "exactly one simulation after first submission")
            check(stats["simulated_cycles"] == run["cycles"],
                  "engine-cycle counter advanced by the run's %d cycles"
                  % run["cycles"])

            second = client.submit(job)
            check(second["status"] == "done", "second submission completed")
            check(second["cached"], "second submission was a cache hit")
            check(_canonical(second["result"]["run"]) == _canonical(run),
                  "cached payload is byte-identical to the simulated one")
            stats = client.stats()
            check(stats["simulations"] == 1,
                  "still exactly one simulation after the repeat")
            check(stats["cache"]["hits"] == 1, "cache recorded the hit")

            text = _check_metrics(client, run)
            if args.metrics_text_out:
                import os

                directory = os.path.dirname(args.metrics_text_out)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                with open(args.metrics_text_out, "w") as handle:
                    handle.write(text)
            _check_slo_gate(port)
        finally:
            _stop_daemon(process)
        _check_job_log(log_path)

        # Durability: a fresh daemon over the same cache directory serves
        # the same bytes without simulating.
        port = _free_port()
        process, client = _start_daemon(port, cache_dir, args.workers)
        try:
            third = client.submit(job)
            check(third["cached"],
                  "fresh daemon on the same cache dir still hits")
            check(_canonical(third["result"]["run"]) == _canonical(run),
                  "restart preserved the exact payload")
            check(client.stats()["simulations"] == 0,
                  "restarted daemon never simulated")
            families = parse_prometheus_text(client.metrics())
            check(families["repro_cache_lookups_total"].value(
                      {"outcome": "hit"}) == 1,
                  "restarted daemon's telemetry counted the durable hit")
        finally:
            _stop_daemon(process)
    print("service smoke PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
