"""The usable-CPU rule, and a text writer that formats contiguous parts side by side.

``usable_cpus`` sizes both ``region_scan``'s thread pool and the number of
parts ``write_rows`` splits its rows into.  The CSV writers are bound by
``%.17g`` formatting, which holds the GIL, so their parts run in forked
processes rather than threads: each later part is formatted by a child into
its own temporary file while the parent formats part 0 straight into the
stream, and the parent then copies the files in order.  Every row is
formatted by the same ``text`` call on any part count, so the bytes depend
on neither the CPU count nor the part boundaries.
"""
from __future__ import annotations

import os
import warnings

# Fewest output lines per part.  On a 2-CPU host a fork plus reap took
# 1.6-3 ms (30-110 MB resident) and a CSV line 5-8 us (trajectory) or about
# 4 us (scan); two parts broke even with one near 1-2k trajectory rows and
# took 33.5 ms against 48.8 ms at 8k, so a 4096-line part keeps a margin.
MIN_PART_LINES = 4096


def usable_cpus(limit: int) -> int:
    """The CPUs this process may run on, at most ``limit``."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), limit)
    return min(os.cpu_count() or 1, limit)


def _write_range(stream, text, lo: int, hi: int, step: int) -> None:
    for start in range(lo, hi, step):
        stream.write(text(start, min(start + step, hi)))


def _fork_part(tmp, text, lo: int, hi: int, step: int) -> int:
    """Fork a child that writes rows [lo, hi) to ``tmp`` and exits; the child's pid."""
    # The child only formats rows of arrays the parent built before the fork
    # and writes them to its own file: it calls no BLAS, takes no lock that
    # another thread of the parent (a BLAS worker) could hold, and leaves by
    # os._exit, so the buffers it inherited, the caller's stream among them,
    # are never flushed twice.  That makes the multi-threaded fork safe.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_range(tmp, text, lo, hi, step)
        tmp.flush()
        code = 0
    finally:
        os._exit(code)


def write_rows(stream, n: int, text, step: int = 1, lines: int = 1) -> None:
    """Write ``text(lo, hi)`` for the rows [0, n), at most ``step`` rows per call.

    Each row is ``lines`` output lines.  The rows are split into contiguous
    parts, one per usable CPU, of at least ``MIN_PART_LINES`` lines each;
    without ``os.fork`` there is one part.  One part is written in-process.
    Otherwise the later parts are formatted by forked children into
    temporary files that are copied into ``stream`` in order.  Every child is
    reaped before this returns or raises; a child that fails is an OSError.
    """
    min_rows = -(-MIN_PART_LINES // lines)
    parts = usable_cpus(max(n // min_rows, 1)) if hasattr(os, "fork") else 1
    if parts <= 1:
        _write_range(stream, text, 0, n, step)
        return
    import shutil
    import tempfile

    cuts = [n * i // parts for i in range(parts + 1)]
    children = []  # (pid, file, lo, hi) of each part after the first, in order
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            children.append((_fork_part(tmp, text, lo, hi, step), tmp, lo, hi))
        _write_range(stream, text, 0, cuts[1], step)
        while children:
            pid, tmp, lo, hi = children.pop(0)
            with tmp:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0:
                    raise OSError(f"the process formatting rows {lo}..{hi} exited with {code}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, stream)
    finally:
        for pid, tmp, _, _ in children:
            os.waitpid(pid, 0)
            tmp.close()
