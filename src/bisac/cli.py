"""Command line interface: one subcommand per artefact, listed in ``_COMMANDS``.

A JSON config file provides defaults (--config); explicit flags override
file values. Each subcommand accepts only the flags it reads (``_FLAGS``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace

from .bounds import SensingChannelParams, _snr_powers, crb
from .estimator import _grid_shape, periodogram_2d
from .geometry import GeometryError, derive_ground_truth
from .harness import (
    DEFAULT_RATE_RHOS,
    ExperimentConfig,
    RateRow,
    TableRow,
    rows_to_csv,
    run_rate_table,
    run_sweep,
    run_table1,
    simulate_trial,
    write_manifest,
)
from .pilots import make_periodic
from .sim import write_grid

_PROFILES = {"desk": {"fft": 1024, "trials": 200}, "full": {"fft": 4096, "trials": 1000}}

# flags that set the ExperimentConfig field of the same name
_FIELD_FLAGS = ("snr_grid_db", "trials_per_point", "seed", "workers", "ecrb_draws", "out")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _snr_db(text: str) -> float:
    """An SNR [dB] whose linear value and reciprocal are finite and nonzero."""
    value = _finite_float(text)
    try:
        _snr_powers(value, "SNR")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


# the grid is built in full while the flags are parsed, before any other
# check; at the default 200 trials per point this cap is two million trials
_MAX_SNR_POINTS = 10_000


# cells of a dumped surface, 8192 x 8192, four times the full profile's; a dump
# holds the 8-byte real surface and one block of rows (175 MB resident at
# 4096 x 4096)
_MAX_SURFACE_CELLS = 2**26


def _parse_snr_grid(text: str) -> tuple:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected a:b:step")
        start, stop, step = _snr_db(parts[0]), _snr_db(parts[1]), _finite_float(parts[2])
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"expected a <= b and step > 0, got {text!r}")
        span = (stop - start) / step + 1e-9
        if not span < _MAX_SNR_POINTS:
            raise argparse.ArgumentTypeError(
                f"expected at most {_MAX_SNR_POINTS} points, got {text!r}")
        count = int(math.floor(span)) + 1
        return tuple(start + k * step for k in range(count))
    return tuple(_snr_db(v) for v in text.split(","))


def _parse_rhos(text: str) -> tuple:
    rhos = tuple(_finite_float(v) for v in text.split(","))
    if not all(0.0 <= rho <= 1.0 for rho in rhos):
        raise argparse.ArgumentTypeError(f"expected overheads in [0, 1], got {text!r}")
    return rhos


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _trial_indices(text: str) -> tuple:
    """(snr_idx, trial_idx) of ``SNR_IDX,TRIAL_IDX``."""
    parts = text.split(",")
    if len(parts) != 2 or not all(part.isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected SNR_IDX,TRIAL_IDX, two non-negative integers, got {text!r}")
    return int(parts[0]), int(parts[1])


# every flag of every subcommand; one not given is None unless it has a default
_FLAGS = {
    "--config": dict(metavar="FILE", help="JSON config file"),
    "--seed": dict(type=int, help="master seed (overrides config)"),
    "--np": dict(dest="stride_n", type=_positive_int, metavar="N_P", help="subcarrier stride"),
    "--mp": dict(dest="stride_m", type=_positive_int, metavar="M_P", help="symbol stride"),
    "--fft": dict(type=_positive_int, help="FFT size for both axes: only the units of "
                  "peak_bins and the size of a dumped surface"),
    "--trials": dict(dest="trials_per_point", type=_positive_int,
                     help="Monte Carlo trials per SNR point"),
    "--snr-db": dict(dest="snr_grid_db", type=_parse_snr_grid, metavar="A:B:STEP",
                     help="SNR grid: a:b:step or comma list or single value "
                          "(one value for every subcommand but sweep)"),
    "--workers": dict(type=_positive_int, metavar="N",
                      help="at most N processes, the calling one included, and no more "
                           "than the CPUs the process may use; children start only once "
                           "the sweep's remaining work pays for them"),
    "--profile": dict(choices=sorted(_PROFILES),
                      help="desk: fft 1024 / 200 trials, full: fft 4096 / 1000 trials "
                           "(the fft moves no estimate, see --fft)"),
    "--out": dict(metavar="FILE", help="output path (default stdout)"),
    "--beta-deg": dict(type=_finite_float,
                       help="bistatic angle [deg]; default: ensemble box center"),
    "--draws": dict(dest="ecrb_draws", type=_positive_int,
                    help="geometry draws for the velocity bound"),
    "--snr-comm-db": dict(type=_snr_db, default=5.0, help="communication SNR [dB]"),
    "--rhos": dict(type=_parse_rhos, default=DEFAULT_RATE_RHOS,
                   help="comma list of overhead values in [0, 1]"),
    "--dump-surface": dict(metavar="FILE", help="write the power surface as a binary grid"),
    "--trial": dict(type=_trial_indices, default=(0, 0), metavar="SNR_IDX,TRIAL_IDX",
                    help="the sweep trial to run: SNR grid point and trial index "
                         "(default 0,0); a degenerate target draw reports its error, "
                         "with truth null"),
}


def _build_config(args) -> ExperimentConfig:
    """The config file's values, overridden by a profile, then by flags.

    Reads only the flags of the parsed subcommand; any other reads as None.
    """
    flags = vars(args)
    spec = {}
    if flags.get("config"):
        with open(flags["config"]) as fh:
            spec = json.load(fh)
    config = ExperimentConfig.from_json_dict(spec)

    changes = {}
    fft = flags.get("fft")
    if flags.get("profile") is not None:
        profile = _PROFILES[flags["profile"]]
        fft = profile["fft"] if fft is None else fft
        changes["trials_per_point"] = profile["trials"]
    if fft is not None:
        changes["fft"] = replace(config.fft, fft_n=fft, fft_m=fft)
    stride_n, stride_m = flags.get("stride_n"), flags.get("stride_m")
    if stride_n is not None or stride_m is not None:
        if config.pattern.periodic is None and None in (stride_n, stride_m):
            raise ValueError("--np and --mp must be given together: the config's "
                             "pattern is a cell list, not periodic")
        n_p, m_p = config.pattern.periodic or (stride_n, stride_m)
        changes["pattern"] = make_periodic(
            config.numerology.n_subcarriers, config.numerology.n_symbols,
            n_p if stride_n is None else stride_n,
            m_p if stride_m is None else stride_m,
        )
    for name in _FIELD_FLAGS:
        if flags.get(name) is not None:
            changes[name] = flags[name]
    return replace(config, **changes)


def _output_paths(config, args) -> tuple:
    """The files written: sweep's CSV and manifest, else ``out`` and ``--dump-surface``."""
    if args.command == "sweep":
        out = config.out or "sweep.csv"
        return out, out + ".manifest.json"
    return tuple(path for path in (config.out, getattr(args, "dump_surface", None)) if path)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_crb(config, args) -> int:
    snr_db = config.snr_grid_db[0]
    if args.beta_deg is not None:
        beta = math.radians(args.beta_deg)
    else:
        beta = derive_ground_truth(config.ensemble.center_scenario()).beta
    params = SensingChannelParams.from_snr_db(snr_db)
    report = crb(params, config.pattern, config.numerology, beta=beta)
    payload = dict(report.to_json_dict(), snr_db=snr_db, beta_rad=beta)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.out)
    return 0


def _cmd_sweep(config, args) -> int:
    result = run_sweep(config)
    out, manifest = _output_paths(config, args)
    with open(out, "w") as fh:
        fh.write(result.to_csv())
    write_manifest(config, manifest)
    print(f"wrote {out} and {manifest}", file=sys.stderr)
    return 0


def _cmd_table1(config, args) -> int:
    snr_db = args.snr_grid_db[0] if args.snr_grid_db else 5.0
    rows = run_table1(config, snr_db=snr_db)
    _emit(rows_to_csv(rows, TableRow), config.out)
    return 0


def _cmd_rates(config, args) -> int:
    rows = run_rate_table(config, rhos=args.rhos, snr_comm_db=args.snr_comm_db)
    _emit(rows_to_csv(rows, RateRow), config.out)
    return 0


def _cmd_simulate(config, args) -> int:
    """Trial ``--trial`` (default 0 of SNR point 0) of the sweep over the same config.

    An invalid trial reports its GeometryError; its ``truth`` is null when
    the target draw itself was degenerate."""
    snr_idx, trial_idx = args.trial
    if args.dump_surface:
        # the surface's FFT sizes must cover the pilot grid and its cells fit
        # the cap: checked before the trial
        _grid_shape(tuple(count + 1 for count in config.pattern.periodic_counts()), config.fft)
        if config.fft.fft_n * config.fft.fft_m > _MAX_SURFACE_CELLS:
            raise ValueError(f"--dump-surface: a {config.fft.fft_n} x {config.fft.fft_m} "
                             f"surface has more than {_MAX_SURFACE_CELLS} cells")
    truth, pilot_grid, outcome = simulate_trial(config, snr_idx, trial_idx)
    valid = not isinstance(outcome, GeometryError)
    payload = {
        "snr_db": config.snr_grid_db[snr_idx],
        "truth": None if truth is None else {
            "d_bis_m": truth.d_bis, "v_bis_ms": truth.v_bis, "tau_s": truth.tau,
            "f_d_hz": truth.f_d, "beta_rad": truth.beta, "theta_rad": truth.theta},
        "valid": valid,
        "estimate": outcome.to_json_dict() if valid else None,
    }
    if not valid:
        payload["error"] = str(outcome)

    if args.dump_surface:
        surface = periodogram_2d(pilot_grid, config.fft)
        write_grid(surface, args.dump_surface)
        payload["surface_file"] = args.dump_surface

    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.out)
    return 0


# subcommand: (handler, help, the flags that it and _build_config read)
_COMMANDS = {
    "crb": (_cmd_crb, "single bound evaluation (JSON)",
            "--config --np --mp --snr-db --out --beta-deg"),
    "sweep": (_cmd_sweep, "RMSE vs SNR sweep (CSV + manifest)",
              "--config --seed --np --mp --fft --trials --snr-db --workers --profile --out"),
    "table1": (_cmd_table1, "bound table over stride pairs",
               "--config --seed --snr-db --out --draws"),
    "rates": (_cmd_rates, "rate ceiling per overhead", "--config --out --snr-comm-db --rhos"),
    "simulate": (_cmd_simulate, "single trial (JSON)",
                 "--config --seed --np --mp --fft --snr-db --profile --out --dump-surface "
                 "--trial"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bisac",
        description="Bistatic OFDM sensing bounds and receiver simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            command.add_argument(flag, **_FLAGS[flag])

    # argparse reads a value that starts with "-" but is no plain negative
    # number (-30:30:2, -5,0,5, -1e1) as a flag: join each to its flag, which
    # is named in full or, as argparse allows, by a unique prefix
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = _COMMANDS[argv[0]][2].split() if argv and argv[0] in _COMMANDS else []
    for i in reversed(range(1, len(argv))):
        given = argv[i - 1]
        named = [given] if given in flags else [f for f in flags if f.startswith(given)]
        if given.startswith("--") and len(named) == 1 and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{named[0]}={argv[i]}"]
    # a flag the subcommand does not read is a usage error of that subcommand
    args, unread = parser.parse_known_args(argv)
    command = sub.choices[args.command]
    if unread:
        command.error(f"unrecognized arguments: {' '.join(unread)}")
    # only sweep runs a grid; crb takes the first of a config file's grid, and
    # simulate the point that --trial names
    grid = getattr(args, "snr_grid_db", None) or ()
    if args.command != "sweep" and len(grid) > 1:
        command.error(f"argument --snr-db: expected a single value, got {len(grid)}")
    func = _COMMANDS[args.command][0]
    # an unreadable config file or unwritable output, a bad config value, a
    # config the receiver cannot run, or a pattern whose bounds are infinite
    # or overflow is a usage error; each is found before any trial
    try:
        config = _build_config(args)
        for path in _output_paths(config, args):
            folder = os.path.dirname(path) or "."
            if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise OSError(f"cannot write {path}: not a file in a writable directory")
        return func(config, args)
    except (OSError, ValueError) as exc:
        command.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
