"""Seeded inputs: one fixed reference trace per workload, perturbed by
the run's seed.

Fresh draws of a workload differ in scheduling cost by tens of percent
(queue build-ups differ; on W-MIX at load 0.9 on 64 nodes the scan
count varies twofold over fourteen seeds), which would bury any
regression bound.  So every workload draws its trace once, from
:data:`REFERENCE_SEED`, and the run's seed shortens each job's runtime
by up to :data:`RUNTIME_JITTER`: every decision changes, the cost stays
within a few percent.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable

REFERENCE_SEED = 42
RUNTIME_JITTER = 0.05


def jitter_jobs(jobs: Iterable, seed: int) -> None:
    """Shorten every job's runtime, in order, by up to the jitter."""
    rng = random.Random(seed)
    for job in jobs:
        job.runtime *= 1.0 - RUNTIME_JITTER * rng.random()


def jitter_swf(src: Path, dst: Path, seed: int) -> None:
    """Copy an SWF trace, shortening each job's run time (field 4,
    whole seconds) by up to the jitter; comments and unknown run times
    pass through."""
    rng = random.Random(seed)
    with open(src) as fin, open(dst, "w") as fout:
        for line in fin:
            fields = line.split()
            if fields and not line.startswith(";") and int(fields[3]) > 0:
                runtime = int(fields[3])
                fields[3] = str(max(1, round(runtime * (1.0 - RUNTIME_JITTER * rng.random()))))
                line = " ".join(fields) + "\n"
            fout.write(line)
