"""The four benchmark workloads: inputs from the seed, the call, the output check.

Every workload hands out items in passes of fixed size; pass k's inputs
depend only on (seed, k).  `run` is the timed call into qkd3, made
through module attributes looked up at call time so that the tracer's
wrappers are seen; `check` is the untimed output check; `known_defect`
recognises a failure as exact_bound's recorded defect from the item and
its output or exception: such an item counts as a defect, not as failed,
and does not make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import qkd3
import qkd3.cli
import qkd3.errors
from qkd3.epbound import EP_CAP

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Exception types qkd3 documents; raising one of them is a valid outcome.
DOCUMENTED_ERRORS = tuple(
    v
    for v in vars(qkd3.errors).values()
    if isinstance(v, type)
    and issubclass(v, Exception)
    and v.__module__ == "qkd3.errors"
)


def _stream(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


class Soundness:
    """random_attack -> rates_from_ensemble -> exact_bound(...).ep_uncapped."""

    name = "soundness"
    overlapping_spans = False
    pass_size = 250
    trace_passes = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warm_up_item(self):
        return 0

    def items(self, k: int):
        base = self.seed * 10**9 + k * self.pass_size
        return range(base, base + self.pass_size)

    def run(self, attack_seed):
        attack = qkd3.random_attack(attack_seed, region=True)
        rates = qkd3.rates_from_ensemble([attack])
        return rates.e_p, qkd3.exact_bound(rates.e_b, rates.alpha).ep_uncapped

    def check(self, attack_seed, output) -> bool:
        e_p, bound = output
        return e_p <= bound * (1.0 + 1e-9)

    def known_defect(self, item, output, error) -> bool:
        return False


class Witness:
    """exact_bound on a stratified log grid; each witness round-tripped to 1e-9.

    A pass draws one point per cell of a STRATA x STRATA grid over
    [1e-15, 1/2]^2 in log space, plus exact 0 and 1/2 on each axis (one
    jittered point per stratum on the other axis) and the four corners.
    """

    name = "witness"
    overlapping_spans = False
    STRATA = 16
    LOG_LO = math.log10(1e-15)
    LOG_HI = math.log10(0.5)
    pass_size = STRATA * STRATA + 4 * STRATA + 4
    trace_passes = 10
    TOL = 1e-9
    # The recorded defect (ROADMAP item 2) shows in three ways, each matched
    # by its own signature below.  Measured on about 600000 grid points
    # (seeds 1-40) and direct scans: (1) the grid search in _capped_witness
    # finds no point, and the uncapped maximizer comes back as the witness,
    # so the witness gives e_p = ep_uncapped instead of ep_max = 1/2; seen
    # for e_b > 1/4 with alpha below ~1e-7, and now and then just above the
    # cap elsewhere (e.g. (0.2407, 6.9e-4), where ep_uncapped = 0.50008);
    # (2) RuntimeError for alpha below ~2e-14 and e_b above ~0.04; (3) at
    # e_b = 1/2 rates_from_ensemble rejects the witness as degenerate.
    RUNTIME_ERROR_REGION = (1e-12, 0.02)  # (alpha below, e_b above), with margin

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warm_up_item(self):
        return (0.05, 0.05)

    def _axis(self, rng: random.Random) -> list[float]:
        width = (self.LOG_HI - self.LOG_LO) / self.STRATA
        return [
            10.0 ** (self.LOG_LO + width * (i + rng.random()))
            for i in range(self.STRATA)
        ]

    def items(self, k: int):
        rng = _stream(self.seed, k)
        points = [(e_b, a) for e_b in self._axis(rng) for a in self._axis(rng)]
        for v in self._axis(rng):
            points += [(0.0, v), (v, 0.0), (0.5, v), (v, 0.5)]
        points += [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        return points

    def run(self, point):
        e_b, alpha = point
        try:
            res = qkd3.exact_bound(e_b, alpha)
        except DOCUMENTED_ERRORS:
            return None
        return res.ep_max, res.ep_uncapped, qkd3.rates_from_ensemble([res.witness])

    def _reproduces(self, point, rates, e_p: float) -> bool:
        e_b, alpha = point
        return (
            abs(rates.e_b - e_b) <= self.TOL
            and abs(rates.alpha - alpha) <= self.TOL
            and abs(rates.e_p - e_p) <= self.TOL
        )

    def check(self, point, output) -> bool:
        if output is None:
            return True
        ep_max, _, rates = output
        return self._reproduces(point, rates, ep_max)

    def known_defect(self, point, output, error) -> bool:
        e_b, alpha = point
        if error is not None:
            a_max, e_min = self.RUNTIME_ERROR_REGION
            if isinstance(error, qkd3.errors.DegenerateAttackError):
                return e_b == 0.5
            return type(error) is RuntimeError and alpha < a_max and e_b > e_min
        ep_max, ep_uncapped, rates = output
        return ep_max == EP_CAP and self._reproduces(point, rates, ep_uncapped)


# Sweep jobs: CLI argv at default sizes and the reference output, or None
# for a direct max_secure_distance call.
SWEEP_JOBS = {
    "bound": (["bound", "--eb", "0.05", "--alpha", "0.05"], "bound.json"),
    "fig1": (["fig1"], "fig1.csv"),
    "region-approx": (["region", "--method", "approx"], "region-approx.csv"),
    "region-exact": (["region", "--method", "exact"], "region-exact.csv"),
    "region-simple": (["region", "--method", "simple"], "region-simple.csv"),
    "decoy-three-state": (["decoy", "--protocol", "three-state"], "decoy-three-state.csv"),
    "decoy-bb84": (["decoy", "--protocol", "bb84"], "decoy-bb84.csv"),
    "distance-three-state": None,
    "distance-bb84": None,
}
# Acceptance-gate secure distances (km) and their tolerance.
SECURE_DISTANCE_KM = {"three-state": 88.5, "bb84": 142.2}
DISTANCE_TOL_KM = 3.0
# Output agreement with reference/*: |x - ref| <= REL_TOL*|ref| + abs tol,
# where the abs tol is the column's search resolution (bisection on e_b,
# golden section on mu) or ABS_TOL elsewhere.
REL_TOL = 1e-5
ABS_TOL = 1e-12
COLUMN_ABS_TOL = {"eb_max": 2e-6, "mu": 2e-6}


def _close(column: str, x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref) + COLUMN_ABS_TOL.get(column, ABS_TOL)


def compare_csv(path: Path, reference: Path) -> bool:
    """True when both CSVs have the same header and row count and every
    cell agrees within the stated tolerances."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(reference, newline="") as fh:
        want = list(csv.reader(fh))
    if not got or got[0] != want[0] or len(got) != len(want):
        return False
    header = want[0]
    return all(
        len(row) == len(header)
        and all(_close(c, float(x), float(r)) for c, x, r in zip(header, row, ref_row))
        for row, ref_row in zip(got[1:], want[1:])
    )


def compare_bound_json(path: Path, reference: Path) -> bool:
    """Same keys, numbers within tolerance, and a witness that reproduces
    (e_b, alpha, ep_exact) to Witness.TOL."""
    got = json.loads(path.read_text())
    want = json.loads(reference.read_text())
    if got.keys() != want.keys():
        return False
    numbers = [k for k in want if k != "witness"]
    if not all(_close(k, got[k], want[k]) for k in numbers):
        return False
    rates = qkd3.rates_from_ensemble(
        [qkd3.KrausCoefficients.deserialize(got["witness"])]
    )
    return max(
        abs(rates.e_b - got["e_b"]),
        abs(rates.alpha - got["alpha"]),
        abs(rates.e_p - got["ep_exact"]),
    ) <= Witness.TOL


class Sweeps:
    """CLI jobs at default sizes via qkd3.cli.main, plus max_secure_distance."""

    name = "sweeps"
    overlapping_spans = True
    pass_size = len(SWEEP_JOBS)
    trace_passes = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def warm_up_item(self):
        return "decoy-three-state"

    def items(self, k: int):
        jobs = list(SWEEP_JOBS)
        _stream(self.seed, k).shuffle(jobs)
        return jobs

    def run(self, job):
        if SWEEP_JOBS[job] is None:
            protocol = job.removeprefix("distance-")
            return qkd3.max_secure_distance(qkd3.GYS, protocol)
        argv, out = SWEEP_JOBS[job]
        return qkd3.cli.main(argv + ["--out", str(self.workdir / out)])

    def check(self, job, output) -> bool:
        if SWEEP_JOBS[job] is None:
            ref = SECURE_DISTANCE_KM[job.removeprefix("distance-")]
            return abs(output - ref) <= DISTANCE_TOL_KM
        _, out = SWEEP_JOBS[job]
        compare = compare_bound_json if out.endswith(".json") else compare_csv
        return output == 0 and compare(self.workdir / out, REFERENCE_DIR / out)

    def known_defect(self, job, output, error) -> bool:
        return False


class Simulate:
    """run_protocol + azuma_check with a fixed attack and per-item seeds."""

    name = "simulate"
    overlapping_spans = False
    N = 150_000
    pass_size = 10
    trace_passes = 5
    SIGMAS = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # The acceptance gate's simulator attack (e_b = 0.05).
        self.attack = qkd3.KrausCoefficients(
            math.sqrt(0.85), math.sqrt(0.05), 0.0, 1j * math.sqrt(0.10)
        )
        self.analytic = qkd3.rates_from_ensemble([self.attack])

    def warm_up_item(self):
        return 0

    def items(self, k: int):
        base = self.seed * 10**6 + k * self.pass_size
        return range(base, base + self.pass_size)

    def run(self, sim_seed):
        stats = qkd3.run_protocol(
            qkd3.SimConfig(N=self.N, attack=self.attack, seed=sim_seed)
        )
        return stats, qkd3.azuma_check(stats, self.attack)

    def check(self, sim_seed, output) -> bool:
        stats, _ = output
        e_b, alpha, n = self.analytic.e_b, self.analytic.alpha, self.N
        m = stats.transmitted
        return (
            abs(stats.observed_eb - e_b)
            <= self.SIGMAS * math.sqrt(e_b * (1 - e_b) / n)
            and abs(stats.observed_alpha - alpha)
            <= self.SIGMAS * math.sqrt(alpha * (1 - alpha) / (2 * n))
            and abs(stats.sifted / m - 0.5) <= self.SIGMAS * math.sqrt(0.25 / m)
        )

    def known_defect(self, sim_seed, output, error) -> bool:
        return False

    def alloc_bytes_per_round(self) -> float:
        """tracemalloc peak of one run_protocol call, per transmitted round."""
        import tracemalloc

        tracemalloc.start()
        try:
            stats = qkd3.run_protocol(
                qkd3.SimConfig(N=self.N, attack=self.attack, seed=self.seed)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / stats.transmitted


WORKLOADS = {w.name: w for w in (Soundness, Witness, Sweeps, Simulate)}
