"""Run commands one at a time and report the wall time, CPU time and peak RSS of each.

run.py starts this process before it generates any corpus. It sends one JSON
request per line on standard input, ``{"argv": [...], "log": path,
"seconds": limit}``. For each request this process runs the command to its
end, with its output in the log, kills it once ``seconds`` have passed, and
answers with one JSON line ``{"code", "wall", "cpu", "rss_mib"}``. It exits
when its standard input closes.

It exists for the peak RSS. On Linux a child's peak RSS includes the peak
RSS of the process that started it, taken when the child calls exec, so a
command started straight from run.py, which holds the corpora, would report
at least run.py's own peak. This process imports only the standard library
and stays small.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, seconds: float) -> dict:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, seconds), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["log"], req["seconds"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
