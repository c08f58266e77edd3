"""Write bench/reference.json: one period of each workload's outputs at the
reference seed, which every benchmark run on that seed is checked against.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

Regenerate it only in a change that means to alter the program's outputs.
"""

from __future__ import annotations

import json

import numpy as np

from tracing import NullTracer
from worker import REFERENCE
from workloads import WORKLOADS

SEED = 0


def main() -> None:
    tr = NullTracer()
    outputs = {}
    for name, cls in WORKLOADS.items():
        wl = cls(SEED, tr)
        wl.restart()
        outputs[name] = [np.asarray(wl.op(pos, tr)[0]).tolist() for pos in range(wl.period)]
    REFERENCE.write_text(json.dumps({"seed": SEED, "outputs": outputs}) + "\n")


if __name__ == "__main__":
    main()
