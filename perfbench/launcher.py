"""Starts the benchmark's child processes, one at a time, and reports how each ended.

Linux charges a child started with vfork (as subprocess does) with the peak
memory of the process that started it, so ru_maxrss is only the child's own
when it is started from a small process.  run.py holds references, oracle
arrays and, with --trace 1, the program itself; this process holds nothing.

Protocol: one JSON request per stdin line, {"argv", "log", "timeout", "env",
"cwd"}; one JSON reply per stdout line, [exit code, wall s, maxrss KiB, CPU s].
SIGTERM stops the running child before exiting.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, log, timeout, env, cwd):
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime]


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
