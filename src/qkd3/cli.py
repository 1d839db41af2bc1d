"""Command-line interface: bounds, figure-style sweeps, headline claims,
simulations.

Subcommands write CSV/JSON to stdout or --out FILE; with --out a sidecar
FILE.manifest.json records the subcommand, parameters, version and the
output's sha256 so runs can be reproduced byte-identically.

Exit codes: 0 success, 2 parse error, 3 domain error or no secure
distance, 4 simulation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, decoy, keyrate
from .attack import KrausCoefficients
from .decoy import GYS, DecoyObservables, _optimize, load_channel_params
from .epbound import approx_bound, exact_bound, exact_ep, simple_bound
from .errors import (
    DomainError, InsufficientSiftError, NoSecureDistanceError, SamplingError
)
from .keyrate import secure_region_frontier
from .simulate import SimConfig, azuma_check, run_protocol

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SIMULATION = 4
_MAX_ROWS = 10**6  # bounds each sweep's time and memory


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    import hashlib  # only manifests need it; keeps OpenSSL out of plain runs

    out = Path(args.out)
    out.write_text(text)
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "out")
    }
    manifest = {
        "tool": "qkd3",
        "version": __version__,
        "subcommand": args.subcommand,
        "params": params,
        "output": out.name,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_bound(args: argparse.Namespace) -> int:
    res = exact_bound(args.eb, args.alpha)
    record = {
        "e_b": args.eb,
        "alpha": args.alpha,
        "ep_exact": res.ep_max,
        "ep_approx": approx_bound(args.eb, args.alpha),
        "ep_simple": simple_bound(args.eb, args.alpha),
        "ay_star": res.ay_star,
        "witness": res.witness.serialize(),
    }
    _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args)
    return 0


def _check_steps(steps: int) -> None:
    if not 2 <= steps <= _MAX_ROWS:
        raise DomainError(f"--steps must be in [2, {_MAX_ROWS}]")


def cmd_fig1(args: argparse.Namespace) -> int:
    _check_steps(args.steps)
    ebs = [args.eb_max * i / (args.steps - 1) for i in range(args.steps)]
    rows = [
        ",".join(
            _fmt(v)
            for v in (
                e, exact_ep(e, e), approx_bound(e, e, capped=False), simple_bound(e, e)
            )
        )
        for e in ebs
    ]
    _emit("eb,ep_exact,ep_approx,ep_5eb\n" + "\n".join(rows) + "\n", args)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    _check_steps(args.steps)
    method = {"exact": "exact", "approx": "approximate", "simple": "simple"}[
        args.method
    ]
    rows = [
        f"{_fmt(a)},{_fmt(e_b)}"
        for a, e_b in secure_region_frontier(args.steps, method)
    ]
    _emit("alpha,eb_max\n" + "\n".join(rows) + "\n", args)
    return 0


def _distances(L_min: float, L_max: float, L_step: float) -> list[float]:
    """L_min + k L_step for every whole k up to L_max, with 1e-9 of a step
    to spare, rounded to 9 decimals (1e-9 km) but kept in [L_min, L_max];
    at most _MAX_ROWS of them, and none where L_step is below the float
    spacing, or below the rounding on a range wider than one row."""
    if not (0.0 <= L_min <= L_max < math.inf and 0.0 < L_step < math.inf):
        raise DomainError("invalid distance range")
    steps = (L_max - L_min) / L_step + 1e-9
    if steps >= _MAX_ROWS:
        raise DomainError(f"distance range exceeds {_MAX_ROWS} rows")
    if math.ulp(L_max) > L_step:
        raise DomainError("--L-step is below the float spacing at --L-max")
    if L_max > L_min and L_step < 1e-9:
        raise DomainError("--L-step is below the 1e-9 km rounding of a row")
    rows = range(int(steps) + 1)
    return [min(max(round(L_min + k * L_step, 9), L_min), L_max) for k in rows]


def cmd_decoy(args: argparse.Namespace) -> int:
    distances = _distances(args.L_min, args.L_max, args.L_step)
    params = load_channel_params(args.params) if args.params else GYS

    def row(L_km: float) -> str:
        mu, rate, ep, terms = _optimize(params, L_km, args.protocol)
        obs = DecoyObservables(*terms)  # validates the printed values
        vals = (L_km, mu, obs.Q_mu, obs.E_mu, obs.Q1, obs.e1, ep, max(rate, 0.0))
        return ",".join(_fmt(v) for v in vals)

    rows = [row(L_km) for L_km in distances]
    _emit("L_km,mu,Q_mu,E_mu,Q1,e1,e_p,R\n" + "\n".join(rows) + "\n", args)
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    params = load_channel_params(args.params) if args.params else GYS
    record = {
        "tolerable_eb_alpha0": keyrate.tolerable_eb(0.0, "exact"),
        "tolerable_eb_diagonal": {
            m: keyrate.tolerable_eb_equal(m) for m in keyrate.METHODS
        },
        "bb84_tolerable_eb": keyrate.bb84_tolerable_eb(),
        "max_secure_distance_km": {
            p: decoy.max_secure_distance(params, p) for p in decoy.PROTOCOLS
        },
        "eb_tolerance": keyrate._ROOT_TOL,
        "distance_tolerance_km": decoy._DISTANCE_RESOLUTION_KM,
    }
    _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    attack = KrausCoefficients.deserialize(args.attack)
    config = SimConfig(N=args.N, attack=attack, seed=args.seed, delta=args.delta)
    stats = run_protocol(config)
    report = azuma_check(stats, attack)
    record = {"stats": asdict(stats), "azuma": asdict(report)}
    _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args)
    return 0


@functools.cache  # parse_args leaves the parser as it was: one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkd3",
        description="Three-state QKD security analysis: bounds, key rates, simulations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", help="phase-error bounds at one (e_b, alpha)")
    p.add_argument("--eb", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("fig1", help="bound comparison CSV on the e_b = alpha line")
    p.add_argument("--eb-max", dest="eb_max", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("region", help="secure-region frontier CSV")
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("--method", choices=("exact", "approx", "simple"), default="approx")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("decoy", help="decoy-state rate curve CSV over distance")
    p.add_argument("--protocol", choices=("three-state", "bb84"), default="three-state")
    p.add_argument("--L-min", dest="L_min", type=float, default=0.0)
    p.add_argument("--L-max", dest="L_max", type=float, default=150.0)
    p.add_argument("--L-step", dest="L_step", type=float, default=5.0)
    p.add_argument("--params", default=None, help="key=value channel parameter file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decoy)

    p = sub.add_parser("claims", help="headline thresholds and secure distances")
    p.add_argument("--params", default=None, help="key=value channel parameter file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_claims)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run (JSON stats)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--attack",
        required=True,
        help="8 comma-separated scalars: Re/Im of a_I,a_X,a_Y,a_Z",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"qkd3: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NoSecureDistanceError as exc:
        print(f"qkd3: no secure distance: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (SamplingError, InsufficientSiftError) as exc:
        print(f"qkd3: simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ValueError, OSError) as exc:
        print(f"qkd3: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
