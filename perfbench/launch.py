"""Run commands one after another and report wall time, peak RSS and CPU.

Reads ``{"commands": [[argv...], ...], "logs": [path, ...]}`` as JSON on stdin
and prints ``{"wall_s": ..., "runs": [{"exit", "maxrss_kb", "cpu_s"}, ...]}``.

This process stays small on purpose. On Linux a child's ``ru_maxrss`` starts
from its parent's high-water mark (exec keeps the old address space's peak),
so launching the CLI from the benchmark process, which holds generated
corpora, would report that process's memory instead of the CLI's. Each
child's figures come from ``os.wait4`` on that child alone, never from the
cumulative ``RUSAGE_CHILDREN``, which would carry the maximum over earlier
children. ``wait4`` does include the child's own reaped children, so pool
workers count towards CPU time and peak RSS.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    spec = json.load(sys.stdin)
    runs = []
    start = time.perf_counter()
    for argv, log in zip(spec["commands"], spec["logs"]):
        with open(log, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        runs.append({"exit": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                     "cpu_s": usage.ru_utime + usage.ru_stime})
    wall = time.perf_counter() - start
    json.dump({"wall_s": wall, "runs": runs}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
