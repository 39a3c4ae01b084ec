"""Spawns the benchmark's child processes and reports each one's wall time
and peak RSS.

Linux folds the spawning process's memory high-water mark into a child's
ru_maxrss when the child execs. Spawned from the benchmark itself, whose
inputs and in-process calls are larger than some CLI runs, every child
would report the benchmark's peak; spawned from this small process, each
reports its own.

Protocol: one JSON array of arguments to ``python`` per stdin line; one
JSON object per stdout line with seconds, maxrss_kib, returncode, stdout
and stderr. Children inherit this process's working directory and
environment. End of input ends it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time


def run(args: list[str]) -> dict:
    with tempfile.TemporaryFile(dir=".") as out, tempfile.TemporaryFile(dir=".") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "seconds": seconds,
            "maxrss_kib": usage.ru_maxrss,
            "returncode": proc.returncode,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace"),
        }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
