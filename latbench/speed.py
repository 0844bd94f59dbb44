"""Machine-speed reference for the timed metrics.

The machines this benchmark runs on share their cores with other tenants.
On the 2-core VM used to build it, a fixed numpy loop ran ~35% slower for
stretches of seconds to minutes. Medians of 20-30 s windows then spread
~20% (quartile distance over median), and longer runs did not help. So
every timed job figure is reported in reference seconds: the wall time
times nominal / (the reference kernel's wall time measured next to it).
The kernel is the benchmark's own fixed work and never calls latgad, so a
change to the program passes through unscaled. A change in machine speed
cancels.

The kernel has three parts, and each workload uses the ones that match
the kind of work it does:

- "python": decimal-string floats through json and a Python loop, all
  from cache.
- "memory": a numpy elementwise power over an 8 MB array that does not
  fit in L2.
- "json_io": a stdlib miniature of a JSON artifact round trip. It writes
  a file of decimal strings, reads it back, parses the floats and formats
  them again.

gadget-build and sat-validate stream numpy arrays of 8-30 MB and use
"python" plus "memory". cvpp-serve is JSON and file I/O and uses
"json_io".

The slow state hits these kinds of work differently. The chosen part is
the one that tracked each workload in-process over 70-80 s, measured as
the slope of log job time against log kernel time (1 is proportional):

- sat-validate: "python" alone 0.23; "python" + "memory" 0.61 to 1.2.
- cvpp-serve: "python" 0.70; "python" + "memory" 1.33; "json_io" 0.98,
  which cut cvpp-serve's windowed spread from 19.7% to 2.2%.

No part makes a BLAS call, so a change to BLAS threading cannot move the
kernel.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

# each part's median wall time on the 2-core Xeon VM in its fast state;
# only sets the unit, so that reference seconds read like seconds there
NOMINAL_S = {"python": 0.0024, "memory": 0.0036, "json_io": 0.0065}
WINDOW = 5

_STRINGS = [f"{x:.17g}" for x in np.random.default_rng(0).random(3500)]
_ARRAY = np.random.default_rng(1).random(1 << 20)
_BUFFER = np.empty_like(_ARRAY)  # in place: no page faults, fixed footprint
_DOCUMENT = [f"{x:.17g}" for x in np.random.default_rng(2).random(8000)]


def _python(workdir: Path) -> None:
    total = 0.0
    for v in [float(s) for s in json.loads(json.dumps(_STRINGS))]:
        total += v * v


def _memory(workdir: Path) -> None:
    np.subtract(_ARRAY, 0.5, out=_BUFFER)
    np.abs(_BUFFER, out=_BUFFER)
    np.power(_BUFFER, 2.5, out=_BUFFER)


def _json_io(workdir: Path) -> None:
    path = workdir / "kernel.json"
    path.write_text(json.dumps(_DOCUMENT))
    values = [float(s) for s in json.loads(path.read_text())]
    "".join(f"{v:.17g}" for v in values)


PARTS = {"python": _python, "memory": _memory, "json_io": _json_io}


def kernel(parts: tuple[str, ...], workdir: Path) -> float:
    """Wall time of the reference work made of `parts`; json_io writes one
    file in `workdir`.  The first, untimed pass brings the kernel's data
    back into cache, so how much cache the previous job used does not leak
    into the reading."""
    for part in parts:
        PARTS[part](workdir)
    t0 = time.perf_counter()
    for part in parts:
        PARTS[part](workdir)
    return time.perf_counter() - t0


def nominal(parts: tuple[str, ...]) -> float:
    return sum(NOMINAL_S[part] for part in parts)


def scale_factors(refs: list[float], parts: tuple[str, ...]) -> list[float]:
    """nominal(parts) over a centred running median of the kernel times, so
    one interrupted kernel run does not distort the job next to it."""
    half = WINDOW // 2
    return [nominal(parts) / statistics.median(refs[max(0, i - half) : i + half + 1]) for i in range(len(refs))]
