"""Starts the benchmark's CLI commands from a process that stays small.

Linux reports a child's peak RSS (ru_maxrss from wait4) as at least the peak
RSS of the process that forked it. The benchmark holds corpora and traces,
so its children are started from this process instead, which imports
nothing large and so adds no floor to any command's peak RSS.

Protocol, one JSON object per line: the request on stdin is
{"argv": [...], "stderr": path, "timeout_s": seconds}, the reply on stdout is
{"code": exit code, "wall_s": seconds, "peak_rss_mb": MiB}. A command still
running after timeout_s is killed. The process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr
        )
        done = threading.Event()

        def kill_if_running():
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(request["timeout_s"], kill_if_running)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return {"code": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
