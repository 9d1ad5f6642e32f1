"""A served daemon is 1 + K processes: itself and one per shard worker.

Shard workers ship their read states over their pipes as array containers,
so nothing in the fleet creates a shared-memory segment, and no worker starts
a ``multiprocessing.resource_tracker`` interpreter beside it.  The test runs
the real ``python -m repro serve`` subprocess, answers a ``match``
(every worker has shipped by then) and walks the daemon's process tree in
``/proc``: each thread's ``children`` file lists the processes it forked.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datamodel import make_profile
from repro.serve import ServeClient

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="walks the Linux /proc process tree"
)

TEXTS = ("alpha beta gamma", "beta gamma delta", "alpha delta eps", "gamma eps zeta")


def descendants(pid: int) -> list:
    """Every live process below ``pid``, from ``/proc/<pid>/task/*/children``."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                text = children.read_text()
            except OSError:  # the thread or process exited meanwhile
                continue
            for child in map(int, text.split()):
                found.append(child)
                frontier.append(child)
    return found


def test_descendants_sees_a_grandchild():
    script = "import subprocess, sys; subprocess.run([sys.executable, '-c', 'import time; time.sleep(30)'])"
    child = subprocess.Popen([sys.executable, "-c", script])
    try:
        for _ in range(200):
            tree = descendants(child.pid)
            if tree:
                break
            time.sleep(0.05)
        assert len(tree) == 1
    finally:
        for pid in descendants(child.pid):
            os.kill(pid, signal.SIGKILL)
        child.kill()
        child.wait()


@pytest.mark.parametrize("num_shards", [1, 2])
def test_a_served_daemon_is_one_process_per_shard_plus_itself(tmp_path, num_shards):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--wal", str(tmp_path / "wal"),
            "--shards", str(num_shards), "--dataset", "DblpAcm", "--scale", "0.03",
            "--training-size", "20",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = json.loads(process.stdout.readline())
        with ServeClient(banner["host"], banner["port"]) as client:
            for serial, text in enumerate(TEXTS):
                client.insert(make_profile(f"a{serial}", text=text), side=0)
                client.insert(make_profile(f"b{serial}", text=text), side=1)
            assert client.match()["num_candidates"] > 0
            tree = [process.pid] + descendants(process.pid)
            assert len(tree) == 1 + num_shards, tree
            client.shutdown()
        assert process.wait(60) == 0, process.stderr.read()[-2000:]
    finally:
        if process.poll() is None:
            # a failed run must not orphan the workers (or trackers) it counted
            for pid in [process.pid] + descendants(process.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.wait()
