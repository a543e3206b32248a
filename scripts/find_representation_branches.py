#!/usr/bin/env python3
"""Search parameter space for real branches of the 3D representation families.

Ta1 and Tc1 only exist where their radicands are non-negative (small pockets
of frequency space); Tb1 needs the non-oscillatory regime beta < -sqrt(2).
For every hit the equivalence pattern and the positivity verdict of the
transformed Hamiltonian are printed.
"""
import itertools

import numpy as np

import pu6


def scan_ta1():
    print("== Ta1: all three equations oscillator-equivalent ==")
    hits = 0
    for w1 in np.linspace(0.6, 2.0, 29):
        for w2 in np.linspace(0.1, w1 * 0.7, 17):
            for w3 in np.linspace(0.02, w2 * 0.6, 11):
                p = pu6.params_from_frequencies(pu6.frequency_triple(w1, w2, w3))
                if pu6.ta1_radicand(p) < 0:
                    continue
                hits += 1
                if hits <= 8:
                    rep = pu6.build_representation("Ta1", p, {"branch": +1})
                    v = pu6.representation_positivity(pu6.transformed_coefficients(rep, p), p)
                    pat = pu6.equivalence_check(rep, p).pattern
                    print(
                        f"  omegas ({w1:.3f}, {w2:.3f}, {w3:.3f})  pattern {pat}"
                        f"  positive {v.positive}  min_eig {v.min_eigenvalue:.3e}"
                    )
    print(f"  {hits} real-branch points found\n")


def scan_tc1(mu0=1.0, kappa2=2.0):
    print(f"== Tc1 with mu0 = {mu0}, kappa2 = {kappa2} ==")
    r = np.sqrt((kappa2 - mu0 * mu0) / 2.0)
    hits = 0
    for w1 in np.linspace(1.0, 2.2, 25):
        for w2 in np.linspace(0.5, w1 * 0.9, 15):
            for w3 in np.linspace(0.1, w2 * 0.8, 11):
                f = pu6.frequency_triple(w1, w2, w3)
                if f.is_degenerate():
                    continue
                p = pu6.params_from_frequencies(f)
                if pu6.tc1_radicand(p, mu0, r, r) < 0:
                    continue
                hits += 1
                if hits <= 8:
                    rep = pu6.build_representation("Tc1", p, {"mu0": mu0, "nu0": r, "tau0": r})
                    v = pu6.representation_positivity(pu6.transformed_coefficients(rep, p), p)
                    print(
                        f"  omegas ({w1:.3f}, {w2:.3f}, {w3:.3f})"
                        f"  positive {v.positive}  min_eig {v.min_eigenvalue:.3e}"
                    )
    print(f"  {hits} real-branch points found\n")


def scan_tb1():
    print("== Tb1: two equations oscillator-equivalent (needs beta < -sqrt 2) ==")
    hits = 0
    rng = np.random.default_rng(1)
    for _ in range(4000):
        p = pu6.PUParams(rng.uniform(0.2, 3.0), rng.uniform(-9.0, -1.5), rng.uniform(-3.0, 3.0))
        if p.gamma == 0.0:
            continue
        for tb, gb in itertools.product((+1, -1), repeat=2):
            try:
                rep = pu6.build_representation("Tb1", p, {"tau2_branch": tb, "g3_branch": gb})
            except (pu6.ComplexBranch, pu6.ZeroDenominator):
                continue
            hits += 1
            if hits <= 8:
                v = pu6.representation_positivity(pu6.transformed_coefficients(rep, p), p)
                print(
                    f"  (alpha, beta, gamma) = ({p.alpha:.3f}, {p.beta:.3f}, {p.gamma:.3f})"
                    f"  branches ({tb:+d},{gb:+d})  tau2 {rep.auxiliary['tau2']:.3f}"
                    f"  positive {v.positive}"
                )
    print(f"  {hits} real branches found (positivity never holds)\n")


if __name__ == "__main__":
    scan_ta1()
    scan_tc1()
    scan_tb1()
