"""The usable-CPU rule, and one runner for the contiguous parts of a job.

``run_parts`` runs part 0 in the caller and the others in forked children:
``region_scan``'s fill their slices of a shared anonymous mapping, and
``write_rows``' format CSV rows into temporary files.  That work holds the
GIL, so pu6 runs it in processes and starts no thread.  No byte depends on
the part or CPU count, since every part does the same arithmetic.  A part
whose child fails is run again in the caller, which then raises that
part's own exception or, where only the child failed, gets clean bytes.

A child reads arrays built before the fork, writes only its own slices or
file, and leaves by ``os._exit``, so it flushes no buffer it inherited.  It
may call LAPACK: pu6 holds no lock across the fork, and OpenBLAS shuts its
worker threads down before a fork and starts them again where next needed.
"""
from __future__ import annotations

import os
import shutil
import tempfile
import warnings

# Fewest output lines per part.  On a 2-CPU host a fork plus reap took
# 1.6-3 ms (30-110 MB resident) and a CSV line 5-8 us (trajectory) or about
# 4 us (scan); two parts broke even with one near 1-2k trajectory rows and
# took 33.5 ms against 48.8 ms at 8k, so a 4096-line part keeps a margin.
MIN_PART_LINES = 4096


def usable_cpus(limit: int) -> int:
    """The CPUs this process may run on, at most ``limit``; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), limit)
    return min(os.cpu_count() or 1, limit)


def run_parts(parts: int, run) -> None:
    """Call ``run(i)`` for each part i in [0, parts): part 0 here, the others in forked children.

    A part whose child fails is run again here, so ``run(i)`` must write
    all of part i's output.  Every child is reaped before this returns.
    """
    pids = []
    try:
        for i in range(1, parts):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    run(i)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        run(0)
    finally:
        failed = [i for i, pid in enumerate(pids, 1) if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])]
    for i in failed:
        run(i)


def _write_range(stream, text, lo: int, hi: int, step: int) -> None:
    for start in range(lo, hi, step):
        stream.write(text(start, min(start + step, hi)))


def write_rows(stream, n: int, text, step: int = 1, lines: int = 1) -> None:
    """Write ``text(lo, hi)`` for the rows [0, n), at most ``step`` rows per call.

    Each row is ``lines`` output lines.  The rows are split into contiguous
    parts, one per usable CPU, of at least ``MIN_PART_LINES`` lines each.
    Part 0 is written straight into ``stream``; ``run_parts`` formats the
    later parts in children, into temporary files copied into ``stream`` in
    order.
    """
    parts = usable_cpus(max(n // -(-MIN_PART_LINES // lines), 1))
    cuts = [n * i // parts for i in range(parts + 1)]
    tmps = [tempfile.TemporaryFile("w+", encoding="utf-8", newline="") for _ in cuts[2:]]

    def run(i: int) -> None:
        if i == 0:
            return _write_range(stream, text, 0, cuts[1], step)
        tmp = tmps[i - 1]
        tmp.seek(0)
        tmp.truncate()
        _write_range(tmp, text, cuts[i], cuts[i + 1], step)
        tmp.flush()

    try:
        run_parts(parts, run)
        for tmp in tmps:
            tmp.seek(0)
            shutil.copyfileobj(tmp, stream)
    finally:
        for tmp in tmps:
            tmp.close()
