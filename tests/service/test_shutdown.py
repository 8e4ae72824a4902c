"""``repro serve`` stops its fork-pool workers when it is sent SIGTERM."""

import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import Client

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _children(pid):
    """PIDs of the direct children of every thread of process `pid`."""
    children = set()
    for task in pathlib.Path("/proc/%d/task" % pid).iterdir():
        try:
            children.update(
                int(child) for child in (task / "children").read_text().split())
        except FileNotFoundError:
            continue  # the thread exited while we looked
    return children


def _alive(pid):
    """True while `pid` runs; a zombie (exited, not reaped) counts as gone."""
    try:
        stat = pathlib.Path("/proc/%d/stat" % pid).read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _wait_gone(pid, timeout):
    deadline = time.monotonic() + timeout
    while _alive(pid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/task/%d/children" % os.getpid()).exists(),
    reason="needs /proc/<pid>/task/<tid>/children")
def test_sigterm_stops_the_daemon_and_its_workers(tmp_path):
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=SRC)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", str(port), "--cache-dir", str(tmp_path / "cache"),
         "--workers", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = set()
    try:
        Client("http://127.0.0.1:%d" % port).wait_ready(timeout=60)
        workers = _children(daemon.pid)
        assert workers, "the daemon forked no worker"
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        orphans = [pid for pid in workers if not _wait_gone(pid, 10)]
        assert not orphans, "workers outlived the daemon: %s" % orphans
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
