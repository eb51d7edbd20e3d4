import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _processes():
    """(pid, ppid, session id, cmdline) of every live process, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()  # state ppid pgrp session ...
        if fields[0] != "Z":
            found.append((int(entry.name), int(fields[1]), int(fields[3]), cmdline))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_sigterm_stops_the_run_and_removes_the_staging(tmp_path):
    # This checkout is its own parent; the series is cut while run.py runs.
    cmd = [sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--parent", str(ROOT),
           "--label", "sigterm_test", "--seconds", "30", "congruences=1"]
    env = dict(os.environ, TMPDIR=str(tmp_path))
    bench = subprocess.Popen(cmd, env=env, start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    sessions = {bench.pid}
    try:
        deadline = time.monotonic() + 8
        while True:
            runs = [pid for pid, ppid, _, line in _processes() if ppid == bench.pid and "perfbench/run.py" in line]
            if runs:
                break
            assert bench.poll() is None and time.monotonic() < deadline, "run.py never started"
            time.sleep(0.02)
        sessions.update(runs)  # each child leads a session of its own
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=5) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 2
        while any(sid in sessions for _, _, sid, _ in _processes()) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [p for p in _processes() if p[2] in sessions] == []
        assert list(tmp_path.iterdir()) == []
        assert not (ROOT / "BENCH_sigterm_test.json").exists()
    finally:
        for sid in sessions:
            with suppress(ProcessLookupError):
                os.killpg(sid, signal.SIGKILL)
        bench.wait()
