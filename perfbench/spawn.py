"""Run one command; report its exit code, wall time and peak RSS.

    python3 -I -S perfbench/spawn.py <report-file> <cpu-seconds> <cmd...>

Linux keeps a process's peak RSS across exec, so a command forked straight
from the benchmark would report the benchmark's own RSS whenever that is the
larger. This small interpreter (started without `site`) forks the command
instead, so the peak that wait4 reports is the command's. The command
inherits stdin, stdout and stderr, runs under a CPU-time limit (it is
CPU-bound, so this is its timeout) and never dumps core. On SIGTERM the
command is killed and reaped. The report is one line:
`<exit code> <wall seconds> <max RSS KiB>`.
"""

import os
import resource
import signal
import sys
import time


def main() -> None:
    report, limit, *cmd = sys.argv[1:]
    limit = int(limit)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
            resource.setrlimit(resource.RLIMIT_CPU, (limit, limit + 1))
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    # asked to stop: stop the command too, then reap it and report as usual
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
