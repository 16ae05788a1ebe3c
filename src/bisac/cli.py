"""Command line interface.

Subcommands:
    crb       single bound evaluation, JSON out
    sweep     Monte Carlo RMSE vs SNR with bounds, CSV out plus manifest
    table1    bound table over overhead-preserving stride pairs
    rates     communication rate ceiling per pilot overhead
    simulate  one trial with optional power-surface dump

A JSON config file provides defaults (--config); explicit flags override
file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .bounds import SensingChannelParams, crb
from .estimator import estimate
from .geometry import GeometryError, derive_ground_truth
from .harness import (
    DEFAULT_RATE_RHOS,
    ExperimentConfig,
    rows_to_csv,
    run_rate_table,
    run_sweep,
    run_table1,
    write_manifest,
)
from .pilots import make_periodic
from .sim import apply_channel, generate_frame, sample_scenario, write_grid

_PROFILES = {
    "desk": {"fft": 1024, "trials": 200},
    "full": {"fft": 4096, "trials": 1000},
}

# flags that set the ExperimentConfig field of the same name
_FIELD_FLAGS = ("snr_grid_db", "trials_per_point", "seed", "workers", "out")


def _parse_snr_grid(text: str) -> tuple:
    if ":" in text:
        parts = [float(v) for v in text.split(":")]
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected a:b:step")
        start, stop, step = parts
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + k * step for k in range(count))
    return tuple(float(v) for v in text.split(","))


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--np", dest="stride_n", type=_positive_int, metavar="N_P",
                        help="pilot stride along subcarriers")
    parser.add_argument("--mp", dest="stride_m", type=_positive_int, metavar="M_P",
                        help="pilot stride along symbols")
    parser.add_argument("--fft", type=_positive_int, help="FFT size for both axes")
    parser.add_argument("--trials", dest="trials_per_point", type=_positive_int,
                        help="Monte Carlo trials per SNR point")
    parser.add_argument("--snr-db", dest="snr_grid_db", type=_parse_snr_grid,
                        metavar="A:B:STEP",
                        help="SNR grid: a:b:step or comma list or single value")
    parser.add_argument("--workers", type=_positive_int, help="parallel worker processes")
    parser.add_argument("--profile", choices=sorted(_PROFILES),
                        help="desk: fft 1024 / 200 trials, full: fft 4096 / 1000 trials")
    parser.add_argument("--out", metavar="FILE", help="output path (default stdout)")


def _build_config(args) -> ExperimentConfig:
    """The config file's values, overridden by a profile, then by flags."""
    spec = {}
    if args.config:
        with open(args.config) as fh:
            spec = json.load(fh)
    config = ExperimentConfig.from_json_dict(spec)

    changes = {}
    fft = args.fft
    if args.profile is not None:
        profile = _PROFILES[args.profile]
        fft = profile["fft"] if fft is None else fft
        changes["trials_per_point"] = profile["trials"]
    if fft is not None:
        changes["fft"] = replace(config.fft, fft_n=fft, fft_m=fft)
    if args.stride_n is not None or args.stride_m is not None:
        n_p, m_p = config.pattern.periodic or (1, 1)
        changes["pattern"] = make_periodic(
            config.numerology.n_subcarriers,
            config.numerology.n_symbols,
            n_p if args.stride_n is None else args.stride_n,
            m_p if args.stride_m is None else args.stride_m,
        )
    for name in _FIELD_FLAGS:
        if getattr(args, name) is not None:
            changes[name] = getattr(args, name)
    return replace(config, **changes)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_crb(args) -> int:
    config = _build_config(args)
    snr_db = config.snr_grid_db[0]
    if args.beta_deg is not None:
        beta = math.radians(args.beta_deg)
    else:
        beta = derive_ground_truth(config.ensemble.center_scenario()).beta
    params = SensingChannelParams.from_snr_db(snr_db)
    report = crb(params, config.pattern, config.numerology, beta=beta)
    payload = dict(report.to_json_dict(), snr_db=snr_db, beta_rad=beta)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    result = run_sweep(config)
    out = config.out or "sweep.csv"
    with open(out, "w") as fh:
        fh.write(result.to_csv())
    write_manifest(config, out + ".manifest.json")
    print(f"wrote {out} and {out}.manifest.json", file=sys.stderr)
    return 0


def _cmd_table1(args) -> int:
    config = _build_config(args)
    snr_db = args.snr_grid_db[0] if args.snr_grid_db else 5.0
    rows = run_table1(config, snr_db=snr_db, draws=args.draws)
    text = rows_to_csv(
        rows, ("n_p", "m_p", "pilot_count", "sqrt_crb_ran_m", "ecrb_vel_ms")
    )
    _emit(text, args.out)
    return 0


def _cmd_rates(args) -> int:
    config = _build_config(args)
    rhos = tuple(float(v) for v in args.rhos.split(",")) if args.rhos else DEFAULT_RATE_RHOS
    rows = run_rate_table(config, rhos=rhos, snr_comm_db=args.snr_comm_db)
    text = rows_to_csv(rows, ("rho", "rate_bps"))
    _emit(text, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    snr_db = config.snr_grid_db[0]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, 0, 0]))
    scenario, truth = sample_scenario(config.ensemble, rng)
    params = SensingChannelParams.from_snr_db(snr_db, tau=truth.tau, f_d=truth.f_d)
    frame = generate_frame(config.numerology, config.pattern, rng)
    received = apply_channel(frame, params, config.numerology, rng)

    payload = {
        "snr_db": snr_db,
        "truth": {
            "d_bis_m": truth.d_bis,
            "v_bis_ms": truth.v_bis,
            "tau_s": truth.tau,
            "f_d_hz": truth.f_d,
            "beta_rad": truth.beta,
            "theta_rad": truth.theta,
        },
    }
    try:
        result = estimate(
            received, frame, config.pattern, config.numerology, config.fft,
            baseline=scenario.baseline, theta=truth.theta,
        )
        payload["estimate"] = result.to_json_dict()
        payload["valid"] = True
    except GeometryError as exc:
        payload["estimate"] = None
        payload["valid"] = False
        payload["error"] = str(exc)

    if args.dump_surface:
        from .estimator import ls_channel_estimate, periodogram_2d

        surface = periodogram_2d(
            ls_channel_estimate(received, frame, config.pattern), config.fft
        )
        write_grid(surface.astype(np.complex128), args.dump_surface)
        payload["surface_file"] = args.dump_surface

    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bisac",
        description="Bistatic OFDM sensing bounds and receiver simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crb = sub.add_parser("crb", help="single bound evaluation (JSON)")
    _add_common(p_crb)
    p_crb.add_argument("--beta-deg", type=float, default=None,
                       help="bistatic angle [deg]; default: ensemble box center")
    p_crb.set_defaults(func=_cmd_crb)

    p_sweep = sub.add_parser("sweep", help="RMSE vs SNR sweep (CSV + manifest)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = sub.add_parser("table1", help="bound table over stride pairs")
    _add_common(p_table)
    p_table.add_argument("--draws", type=_positive_int, default=None,
                         help="geometry draws for the velocity bound")
    p_table.set_defaults(func=_cmd_table1)

    p_rates = sub.add_parser("rates", help="rate ceiling per overhead")
    _add_common(p_rates)
    p_rates.add_argument("--snr-comm-db", type=float, default=5.0)
    p_rates.add_argument("--rhos", type=str, default=None,
                         help="comma list of overhead values")
    p_rates.set_defaults(func=_cmd_rates)

    p_sim = sub.add_parser("simulate", help="single trial (JSON)")
    _add_common(p_sim)
    p_sim.add_argument("--dump-surface", metavar="FILE", default=None,
                       help="write the power surface in the binary grid format")
    p_sim.set_defaults(func=_cmd_simulate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
