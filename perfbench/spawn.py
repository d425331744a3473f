"""Start one command, wait for it, and write its wall time, peak RSS and exit
code to RESULT_JSON.

Usage: ``python3 spawn.py RESULT_JSON TIMEOUT_S -- COMMAND...``

Linux carries the resident memory of the process that starts a command into
that command's ``ru_maxrss``.  The benchmark therefore starts every command
through this small process, which holds no workload data, so a command's peak
RSS is its own.  The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, timeout = sys.argv[1], float(sys.argv[2])
    cmd = sys.argv[sys.argv.index("--") + 1 :]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result_path, "w") as fh:
        json.dump(
            {"wall_s": wall, "rss_kb": usage.ru_maxrss, "rc": os.waitstatus_to_exitcode(status)},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
