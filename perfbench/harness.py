"""Closed-loop measurement: one client, each item starts when the previous returns.

A workload hands out its items in passes of a fixed size.  `measure` runs
whole passes until the run's time is spent and at least `MIN_ITEMS` items
are done, timing every item and every pass in wall-clock time and in CPU
time of this process (all its threads).

The bounded metrics use wall-clock time scaled to a fixed host speed.  On
the shared 2-vCPU virtual machine this benchmark was built on, the same
computation took from 1x to 2x as long within minutes, in wall-clock and
in CPU time alike, and the host's reported steal time stayed near 0, so
neither clock nor a steal correction gives figures that repeat.  So
`probe` times a fixed computation that does not use qkd3 before the first
pass and after every pass, and each pass's wall time W is scaled by
PROBE_NOMINAL_S / P, with P the mean of the two probes around the pass:
the pass's wall time on a host where the probe takes PROBE_NOMINAL_S.
Items are scaled by their pass's factor.  Being wall-clock time, the
scaled figures still show a change in how many threads do the work.  Raw
wall-clock and CPU figures are printed for the reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

MIN_ITEMS = 200  # so that at least 10 item latencies lie beyond p95
HARD_CAP_S = 150.0  # stop adding passes after this long, whatever MIN_ITEMS says
PROBE_NOMINAL_S = 0.010  # probe() took 7-15 ms on the machine described above


def percentile(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile of ascending values, and how many lie beyond it.

    The rank is ceil(p/100 * n); the second value is n - rank, the number
    of samples above that rank (10 for n = 200 and p = 95).
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = min(n, max(1, -(-p * n // 100)))
    rank = int(rank)
    return sorted_values[rank - 1], n - rank


@dataclass
class Tally:
    """Item outcomes: attempted, failed, and items that show a known defect.

    An item whose failure the workload recognises as a recorded defect of
    qkd3 counts under `defects`, not `failed`: the defect is measured
    (`defect_frac`), and `failed` counts only what nothing explains.
    """

    attempted: int = 0
    failed: int = 0
    defects: int = 0
    examples: list = field(default_factory=list)

    def record(self, ok: bool, known_defect: bool = False, detail=None) -> None:
        self.attempted += 1
        if ok:
            return
        if known_defect:
            self.defects += 1
            return
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(detail)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def defect_frac(self) -> float:
        return self.defects / self.attempted if self.attempted else 0.0


@dataclass
class Timings:
    """Wall-clock, CPU and scaled (wall at the nominal host speed)
    durations, in seconds, in the order recorded.  `scaled` is filled in
    per pass by `measure`."""

    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    scaled: list = field(default_factory=list)


def run_item(workload, item, tally: Tally, timings: Timings) -> None:
    """Run one item, check its output, record the outcome and the item's times.

    Any exception from the item or its check counts as a failed item.
    """
    wall, cpu = perf_counter(), process_time()
    try:
        output, error = workload.run(item), None
    except Exception as exc:
        output, error = None, exc
    timings.wall.append(perf_counter() - wall)
    timings.cpu.append(process_time() - cpu)
    if error is None:
        try:
            ok = workload.check(item, output)
        except Exception as exc:
            error = exc
    if error is None:
        detail = None if ok else f"{item!r}: check failed"
    else:
        ok, detail = False, f"{item!r}: {type(error).__name__}: {error}"
    tally.record(ok, not ok and workload.known_defect(item, output, error), detail)


def run_pass(workload, k: int, tally: Tally, items: Timings, on_item=None):
    """Run pass k of the workload; return its (wall, cpu) time."""
    wall, cpu = perf_counter(), process_time()
    for i, item in enumerate(workload.items(k)):
        if on_item is not None:
            on_item((k, i))
        run_item(workload, item, tally, items)
    return perf_counter() - wall, process_time() - cpu


def probe() -> float:
    """Wall time of a fixed computation that does not touch qkd3.

    It mixes the two kinds of work qkd3 does: a scalar Python loop over
    math calls (as in _capped_witness) and numpy arithmetic on 10001-point
    arrays (as in _scan).
    """
    start = perf_counter()
    total = 0.0
    for y in np.linspace(0.0, 1.0, 20001):
        y = float(y)
        total += math.sqrt(max(1.0 - y * y, 0.0)) + (y - 0.3) ** 2
    a = np.linspace(0.0, 1.0, 10001)
    for _ in range(20):
        total += float((np.sqrt(np.maximum(1.0 - a * a, 0.0)) * a + a * a)[-1])
    return perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that takes a stretch's wall time to the nominal host speed,
    from the probe times just before and just after the stretch."""
    return PROBE_NOMINAL_S / (0.5 * (before + after))


def _summary(items: list, passes: list, count: int, loop: float) -> dict:
    # Pass time is a mean, not a median: the witness grid's per-pass cost is
    # bimodal (whether the jittered top e_b stratum lands above 1/4), and a
    # median of a bimodal sample flips between the modes from run to run.
    items = sorted(items)
    p95, beyond = percentile(items, 95)
    return {
        "pass_s": sum(passes) / len(passes),
        "items_per_s": count / loop,
        "item_p50_ms": percentile(items, 50)[0] * 1e3,
        "item_p95_ms": p95 * 1e3,
        "beyond_p95": beyond,
    }


def measure(workload, seconds: float) -> dict:
    """Timed loop over whole passes; end-to-end figures for one run.

    Returns the figures scaled to the nominal host speed ("scaled"), in raw
    wall-clock time ("wall") and in CPU time ("cpu"), the tally, the pass
    count and the probe times in seconds.
    """
    tally, items, passes = Tally(), Timings(), Timings()
    probes = [probe()]
    wall = perf_counter()
    k = 0
    while True:
        first = len(items.wall)
        pass_wall, pass_cpu = run_pass(workload, k, tally, items)
        probes.append(probe())
        scale = host_scale(probes[-2], probes[-1])
        items.scaled.extend(w * scale for w in items.wall[first:])
        passes.wall.append(pass_wall)
        passes.cpu.append(pass_cpu)
        passes.scaled.append(pass_wall * scale)
        k += 1
        elapsed = perf_counter() - wall
        if elapsed >= HARD_CAP_S:
            break
        if elapsed >= seconds and tally.attempted >= MIN_ITEMS:
            break
    return {
        "scaled": _summary(items.scaled, passes.scaled, tally.attempted, sum(passes.scaled)),
        "wall": _summary(items.wall, passes.wall, tally.attempted, sum(passes.wall)),
        "cpu": _summary(items.cpu, passes.cpu, tally.attempted, sum(passes.cpu)),
        "tally": tally,
        "passes": k,
        "loop_s": elapsed,
        "probes": probes,
    }
