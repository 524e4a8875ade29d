"""Seeded dense OOC input for the verify workload, and its expected report.

The expected report comes from a cyclic difference count written here,
independently of ``oocgen.ooc.verify_oos``:

    |X ∩ (Y + tau)| = #{(x, y) in X × Y : x - y ≡ tau (mod n)}

(Chung, Salehi and Wei, IEEE Trans. IT 35(3), 1989).  One ``bincount`` of
the pairwise differences gives every tau at once; ``argmax`` returns the
smallest tau, which is the witness order ``verify_oos`` documents.
"""

from __future__ import annotations

import json
import random

import numpy as np


def generate(seed, n, w, words):
    """``words`` distinct random weight-``w`` subsets of Z_n, from ``seed``."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < words:
        members = sorted(rng.sample(range(n), w))
        if members not in sets:
            sets.append(members)
    return sets


def _counts(x, y, n):
    return np.bincount(((x[:, None] - y[None, :]) % n).ravel(), minlength=n)


def correlation_maxima(sets, n):
    """(max_auto, max_cross, witnesses) by difference count, in the
    witness order of verify_oos."""
    arrays = [np.asarray(s, dtype=np.int64) for s in sets]
    auto_wit = None
    for i, x in enumerate(arrays):
        c = _counts(x, x, n)[1:]
        tau = int(np.argmax(c)) + 1
        if auto_wit is None or int(c[tau - 1]) > auto_wit["value"]:
            auto_wit = {"kind": "auto", "word": i, "tau": tau,
                        "value": int(c[tau - 1])}
    cross_wit = None
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            c = _counts(arrays[i], arrays[j], n)
            tau = int(np.argmax(c))
            if cross_wit is None or int(c[tau]) > cross_wit["value"]:
                cross_wit = {"kind": "cross", "words": [i, j], "tau": tau,
                             "value": int(c[tau])}
    witnesses = [wit for wit in (auto_wit, cross_wit) if wit is not None]
    max_cross = cross_wit["value"] if cross_wit else 0
    return auto_wit["value"], max_cross, witnesses


def make_input(path, seed, n, w, words):
    """Write the bits file; return (declared lambda, expected stdout line).

    The file declares lambda one below the family's true maximum, so the
    expected verdict is a failure (exit 1) with exact witnesses.
    """
    sets = generate(seed, n, w, words)
    max_auto, max_cross, witnesses = correlation_maxima(sets, n)
    lam = max(max_auto, max_cross) - 1
    with open(path, "w") as f:
        f.write(f"# n={n} w={w} lambda={lam} size={len(sets)}\n")
        for members in sets:
            bits = ["0"] * n
            for a in members:
                bits[a] = "1"
            f.write("".join(bits) + "\n")
    report = {"max_auto": max_auto, "max_cross": max_cross,
              "witnesses": witnesses, "pass": False}
    return lam, json.dumps(report, sort_keys=True)
