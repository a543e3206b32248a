"""The one rule that cuts a job into parts and blocks, and one runner for the parts.

``split`` cuts [0, n) into contiguous parts, one per usable CPU, each of at
least the number of items its caller measured worth a fork; ``blocks``
walks a part ``BLOCK`` items at a time.  ``run_parts`` runs part 0 in the
caller and the others in forked children: ``region_scan``'s fill their
cells of a shared anonymous mapping, and ``write_rows``' format CSV lines
(with ``fmt17``) into temporary files.  That work is short numpy calls
that hold the GIL, so pu6 runs it in processes and starts no thread.  No
byte depends on the part, block or CPU count, since every item gets the
same arithmetic.  A part whose child fails is run again in the caller,
which then raises that part's own exception or, where only the child
failed, gets clean bytes.

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

# Items per call of a per-block function: scan cells, or CSV lines.  Blocks
# bound the temporaries (scan-grid's peak RSS: 126.1 MB at 1024 cells,
# 131.4 MB at 4096).
BLOCK = 1024

# Fewest output lines per part.  On a 2-CPU host, with ``fmt17`` writing a
# CSV line in about 1.5 us (trajectory) or 1.05 us (scan), a second part cost
# the caller 6-8 ms (fork, reap and copy); two parts broke even with one near
# 10k trajectory lines and 20k scan lines, and won at 20k trajectory lines
# (22.9 ms against 30.6 ms) and 40k scan lines (34.9 ms against 42.3 ms), so
# an 8192-line part keeps a margin.
MIN_PART_LINES = 8192


def usable_cpus(limit: int) -> int:
    """The CPUs this process may run on, at most ``limit``; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), limit)
    return min(os.cpu_count() or 1, limit)


def split(n: int, least: int) -> list[int]:
    """Cuts 0 = c_0 <= ... <= c_k = n of [0, n) into k = min(usable CPUs, n // least) parts, at least one."""
    parts = usable_cpus(max(n // least, 1))
    return [n * i // parts for i in range(parts + 1)]


def blocks(lo: int, hi: int):
    """The (start, stop) blocks of [lo, hi), ``BLOCK`` items each but the last."""
    return ((start, min(start + BLOCK, hi)) for start in range(lo, hi, BLOCK))


def run_parts(cuts: list[int], run) -> None:
    """Call ``run(i, cuts[i], cuts[i + 1])`` for each part: part 0 here, the others in forked children.

    A part whose child fails is run again here, so ``run`` must write all
    of its part's output.  Every child is reaped before this returns.
    """
    pids = []
    try:
        for i in range(1, len(cuts) - 1):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    run(i, cuts[i], cuts[i + 1])
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        run(0, cuts[0], cuts[1])
    finally:
        failed = [i for i, pid in enumerate(pids, 1) if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])]
    for i in failed:
        run(i, cuts[i], cuts[i + 1])


def write_rows(stream, n: int, text) -> None:
    """Write ``text(start, stop)`` for the ``blocks`` of [0, n), one output line per item.

    The items are ``split`` into parts of at least ``MIN_PART_LINES``.  Part
    0 is written straight into ``stream``; the later parts are formatted in
    children, into temporary files copied into ``stream`` in order.
    """
    cuts = split(n, MIN_PART_LINES)
    tmps = [tempfile.TemporaryFile("w+", encoding="utf-8", newline="") for _ in cuts[2:]]

    def run(i: int, lo: int, hi: int) -> None:
        out = tmps[i - 1] if i else stream
        if i:  # a failed child's part is written again from an empty file
            out.seek(0)
            out.truncate()
        out.writelines(text(start, stop) for start, stop in blocks(lo, hi))
        out.flush()

    try:
        run_parts(cuts, run)
        for tmp in tmps:
            tmp.seek(0)
            shutil.copyfileobj(tmp, stream)
    finally:
        for tmp in tmps:
            tmp.close()
