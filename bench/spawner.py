"""Runs the CLI commands from a small helper process.

Linux carries a process's memory high-water mark across ``exec``, so a
child spawned straight from the benchmark, which holds hundreds of MB by
then, would report the benchmark's peak RSS through ``os.wait4`` instead
of its own.  The helper is started before the benchmark imports numpy or
eaopt, and the commands it spawns start from its small footprint.  It
times each command from spawn to reap and reads the peak RSS with
``os.wait4``.  This module imports only the standard library.
"""

from __future__ import annotations

import json
import subprocess
import sys

_HELPER = r"""
import json, os, signal, subprocess, sys, time

class Timeout(Exception):
    pass

def on_alarm(signum, frame):
    raise Timeout

signal.signal(signal.SIGALRM, on_alarm)
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        signal.alarm(req["timeout"])
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {"seconds": seconds, "peak_rss_bytes": usage.ru_maxrss * 1024,
             "code": proc.returncode, "timed_out": timed_out}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
"""


class Spawner:
    """One helper process for the whole run; ``close`` stops it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", _HELPER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: str, env: dict, stdout: str, stderr: str,
            timeout: int) -> dict:
        """Run one command to completion; returns seconds, peak_rss_bytes,
        code and timed_out."""
        request = {"argv": argv, "cwd": cwd, "env": env, "stdout": stdout,
                   "stderr": stderr, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner helper exited with {self.proc.poll()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
