"""Run one command and report its wall time, CPU time and peak RSS.

Usage: python3 -S -I spawn.py STDOUT_PATH STDERR_PATH -- ARGV...

Prints one JSON object: exit status, wall seconds from fork to reap,
child user+sys seconds and ru_maxrss in KiB. The benchmark starts this
wrapper as a fresh, small interpreter for every CLI invocation because
Linux folds the forking process's RSS high-water mark into the child's
ru_maxrss at exec: a child forked straight from the benchmark process
(hundreds of MB after generating inputs) would report that figure
instead of its own. This file must import nothing heavy.
"""

import json
import os
import sys
import time


def main() -> None:
    stdout_path, stderr_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.exit("usage: spawn.py STDOUT_PATH STDERR_PATH -- ARGV...")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(stdout_path, flags, 0o644)
    err_fd = os.open(stderr_path, flags, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(out_fd)
    os.close(err_fd)
    print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
