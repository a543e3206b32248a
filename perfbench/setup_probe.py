"""Set-up time of one fresh interpreter, printed in seconds.

Usage: python3 setup_probe.py ROOT CONFIG

Imports pu6 and pu6.cli from ROOT/src, loads CONFIG the way the CLI does and
assembles the model: frequencies, F, J1..J3 and H1..H3.  The clock starts
before the first import, after interpreter start-up.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    import pu6.cli
    from pu6 import core

    cfg = pu6.cli.load_config(config, argparse.Namespace(seed=None, tol=None))
    p = cfg.params
    cfg.frequencies
    core.flow_operator(p)
    for k in (1, 2, 3):
        core.poisson_tensor(k, p)
        core.hamiltonian_form(k, p)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
