"""Runs the benchmark's child commands and reports wall time and peak RSS.

Linux carries a parent's peak RSS over into every child it forks (the peak
survives exec), so a child forked by the benchmark process, which holds all
instances in memory, would report at least the benchmark's own peak. This
helper starts before the instances exist and stays small; the children it
forks report their own peak.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stdout": path,
"stderr": path, "timeout": seconds}``; one JSON reply per stdout line,
``{"code": exit code, "wall": seconds, "maxrss_kb": peak RSS}``. A child that
outlives its timeout is killed. The helper exits when stdin closes.
:class:`Spawner` is the benchmark's side of it.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


class Spawner:
    """Starts the helper (do so before the benchmark grows) and sends it
    commands one at a time."""

    def __init__(self, pythonpath: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )

    def run(self, argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner helper exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
