"""Command-line interface: bounds, figure-style sweeps, simulations.

Subcommands write CSV/JSON to stdout or --out FILE; with --out a sidecar
FILE.manifest.json records the subcommand, parameters, version and the
output's sha256 so runs can be reproduced byte-identically.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 simulation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .attack import KrausCoefficients
from .decoy import GYS, channel_observables, load_channel_params, optimal_mu, phase_error_for
from .epbound import approx_bound, exact_bound, exact_ep_many, simple_bound
from .errors import DomainError, InsufficientSiftError, SamplingError
from .keyrate import secure_region_frontier
from .simulate import SimConfig, azuma_check, run_protocol

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SIMULATION = 4
_MAX_DECOY_ROWS = 10**6  # bounds the decoy sweep's time and memory


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


def cmd_fig1(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise DomainError("--steps must be >= 2")
    ebs = [args.eb_max * i / (args.steps - 1) for i in range(args.steps)]
    rows = [
        ",".join(
            _fmt(v)
            for v in (e, ex, approx_bound(e, e, capped=False), simple_bound(e, e))
        )
        for e, ex in zip(ebs, exact_ep_many(ebs, ebs))
    ]
    _emit("eb,ep_exact,ep_approx,ep_5eb\n" + "\n".join(rows) + "\n", args)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise DomainError("--steps must be >= 2")
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
    """L_min, L_min + L_step, ... up to L_max; at most _MAX_DECOY_ROWS of them,
    also when L_step is below the float spacing at L and L stops growing."""
    if not (0.0 <= L_min <= L_max < math.inf and 0.0 < L_step < math.inf):
        raise DomainError("invalid distance range")
    if (L_max - L_min) / L_step >= _MAX_DECOY_ROWS:
        raise DomainError(f"distance range exceeds {_MAX_DECOY_ROWS} rows")
    distances = []
    L = L_min
    while L <= L_max + 1e-9:
        if len(distances) == _MAX_DECOY_ROWS:
            raise DomainError(f"distance range exceeds {_MAX_DECOY_ROWS} rows")
        distances.append(round(L, 9))
        L += L_step
    return distances


def cmd_decoy(args: argparse.Namespace) -> int:
    distances = _distances(args.L_min, args.L_max, args.L_step)
    params = load_channel_params(args.params) if args.params else GYS

    def row(L_km: float) -> str:
        mu, rate = optimal_mu(params, L_km, args.protocol)
        obs = channel_observables(params, L_km, mu)
        try:
            ep = phase_error_for(obs, args.protocol)
        except DomainError:
            ep, rate = 0.5, -1.0
        vals = (L_km, mu, obs.Q_mu, obs.E_mu, obs.Q1, obs.e1, ep, max(rate, 0.0))
        return ",".join(_fmt(v) for v in vals)

    rows = [row(L_km) for L_km in distances]
    _emit("L_km,mu,Q_mu,E_mu,Q1,e1,e_p,R\n" + "\n".join(rows) + "\n", args)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    attack = KrausCoefficients.deserialize(args.attack)
    config = SimConfig(N=args.N, attack=attack, seed=args.seed, delta=args.delta)
    stats = run_protocol(config)
    report = azuma_check(stats, attack)
    record = {
        "stats": json.loads(stats.to_json()),
        "azuma": json.loads(report.to_json()),
    }
    _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args)
    return 0


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
    except (SamplingError, InsufficientSiftError) as exc:
        print(f"qkd3: simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ValueError, OSError) as exc:
        print(f"qkd3: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
