"""A fixed task that does not touch leadlag, timed next to every operation.

The benchmark runs it in a fresh process between operations; how long it
takes tracks how fast the host is running at that moment, so operation
and set-up times can be reported at one reference host speed (see
run.REFERENCE_CALIBRATION_S). Like the program, it starts an interpreter,
imports numpy and scipy, parses CSV text in Python and multiplies small
float matrices.

    python3 bench/calib.py
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy import sparse

ROWS = 80_000
MATRIX = (300, 153)
PRODUCTS = 100


def main() -> float:
    text = "".join(f"{i % 153},c{i % 40:02d},a{i % 997},{i % 500 + 1}\n" for i in range(ROWS))
    total = sum(int(row[3]) for row in csv.reader(io.StringIO(text)))
    x = np.random.default_rng(0).standard_normal(MATRIX)
    for _ in range(PRODUCTS):
        total += float((x @ x.T).trace())
    total += float(sparse.csr_matrix(x > 1.0).sum())
    return total


if __name__ == "__main__":
    main()
