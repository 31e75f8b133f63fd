"""Run one command and report its exit code, wall time and peak memory.

Usage: python3 benchmarks/spawn.py TIMEOUT_S STDOUT STDERR COMMAND...

Prints ``CODE WALL_S MAXRSS_KB`` on one line.  The command's standard
output and error go to the two files.  A command still running after
TIMEOUT_S seconds is killed and reported with code -9.

This small process stands between the benchmark and each command
because Linux charges the peak resident memory of a process that
spawns a child (which the child shares until it executes its program)
to that child's ``ru_maxrss``.  The benchmark itself holds large
outputs; this process never does, so the figure is the command's own.
"""

import os
import signal
import sys
import time


def main() -> int:
    timeout, stdout, stderr, *argv = sys.argv[1:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
