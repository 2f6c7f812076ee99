"""``python -m pqfs`` that reports its own peak resident memory.

    python3 perfbench/pqfs_child.py ARGS...    (with pqfs importable)

Runs pqfs as ``python -m pqfs ARGS...`` does and at exit writes
``PERFBENCH_RSS <kB>``, the VmHWM of /proc/self/status, as the last line
of stderr.  The rusage of a child cannot stand in for it: on Linux it
also counts the resident memory of the process that forked the child.
Kept free of benchmark imports, so the child starts as fast as
``python -m pqfs``.
"""

import atexit
import runpy
import sys


def _report() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stdout.flush()
    print(f"PERFBENCH_RSS {kb}", file=sys.stderr)


atexit.register(_report)
sys.path[0] = ""  # not this directory: ``python -m`` puts the working directory first
runpy.run_module("pqfs", run_name="__main__", alter_sys=True)
