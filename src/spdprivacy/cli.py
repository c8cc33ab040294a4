"""Command-line interface: ``spd-bench`` with subcommands.

Subcommands: ``calibrate`` (print a noise scale), ``privatize`` (one matrix
from a text file), ``synthetic-bench`` and ``image-bench`` (experiment
harness with CSV/SVG output), ``descriptor`` (image to descriptor matrix).

Flags may also come from a config file of ``key = value`` lines passed with
``--config``; explicit command-line flags win over the file.  Flags must be
spelled out in full (no argparse prefix matching), so the tokens on the
command line name exactly the flags that win.  ``--timing`` puts real
release times in ``wall_time_ns``, and with ``--out-csv`` writes the run's
stage times and counts to ``<out-csv>.manifest.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .descriptors import DescriptorParams, covariance_descriptor, load_pnm
from .errors import NumericalError, SpdPrivacyError, _timed
from .geometry import SpdMatrix, invvecd_stack, logm_stack
from .harness import COUNTS, STAGES, SYNTHETIC_DEFAULTS, ExperimentSpec, emit_csv, render_csv
from .harness import run_image, run_synthetic
from .mechanisms import (
    MECHANISMS,
    PrivacyBudget,
    Sensitivity,
    SensitivityKind,
    acceptance_warning,
    calibrate_analytic,
    calibrate_classical,
)
from .plotting import emit_plot
from .sampling import RngState


def _parse_number(text: str, kind: type, what: str):
    """``kind(text)``, or :class:`SpdPrivacyError` naming ``what``."""
    try:
        return kind(text)
    except ValueError:
        raise SpdPrivacyError(f"{what}: {text!r} is not a valid {kind.__name__}") from None


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    return tuple(_parse_number(tok, float, what) for tok in text.split(",") if tok.strip())


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpdPrivacyError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(args: argparse.Namespace, argv_tokens: list[str]) -> None:
    """Fill args from the config file; explicit command-line flags win.

    Keys are the subcommand's own option names, and a flag takes one of the
    fixed spellings in :data:`_BOOLEANS` (any case).
    """
    explicit = {
        tok[2:].split("=", 1)[0].replace("-", "_")
        for tok in argv_tokens
        if tok.startswith("--")
    }
    # the namespace holds the subcommand's options plus its routing entries
    options = vars(args).keys() - {"command", "func"}
    for key, value in load_config(args.config).items():
        if key not in options:
            raise SpdPrivacyError(f"unknown config key {key!r}")
        if key == "config" or key in explicit:
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            if value.lower() not in _BOOLEANS:
                raise SpdPrivacyError(
                    f"config key {key!r}: {value!r} is not one of {', '.join(_BOOLEANS)}"
                )
            setattr(args, key, _BOOLEANS[value.lower()])
        elif isinstance(current, (int, float)):
            setattr(args, key, _parse_number(value, type(current), f"config key {key!r}"))
        else:
            setattr(args, key, value)


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a k x k matrix: k lines of k comma- or whitespace-separated
    decimals."""
    rows = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        tokens = raw.replace(",", " ").split()
        if tokens:
            rows.append([_parse_number(tok, float, f"{path} line {number}") for tok in tokens])
    if not rows:
        raise SpdPrivacyError(f"no matrix data in {path}")
    if len({len(row) for row in rows}) > 1:
        raise SpdPrivacyError(f"{path}: rows differ in length: {[len(row) for row in rows]}")
    return np.array(rows, dtype=float)


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in mat)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    budget = PrivacyBudget(epsilon=args.eps, delta=args.delta)
    sens = Sensitivity(value=args.sensitivity, kind=SensitivityKind.LOG_EUCLIDEAN)
    if args.flavor == "classical":
        sigma = calibrate_classical(sens, budget)
    else:
        sigma = calibrate_analytic(sens, budget)
    print(f"{sigma:.12g}")
    return 0


def _cmd_privatize(args: argparse.Namespace) -> int:
    mechanism = MECHANISMS[args.mechanism]
    if args.output == "log" and not mechanism.log_chart:
        raise SpdPrivacyError(
            f"--output log needs a log-chart mechanism: {args.mechanism} "
            "releases matrix entries, which have no log form"
        )
    summary = SpdMatrix(read_matrix(args.matrix))
    sigma = mechanism.noise_scale(args.n, args.r, args.eps, args.delta)
    center = mechanism.center(logm_stack(summary.entries))
    (z,), ratios = mechanism.release(RngState(args.seed), center, sigma, burn_in=args.burn_in)
    if ratios is not None and (warning := acceptance_warning(ratios[0])):
        print(f"warning: {warning}", file=sys.stderr)
    if args.output == "log":
        print(format_matrix(invvecd_stack(z, summary.dim)))
        return 0
    try:
        release = mechanism.export(z, summary.dim)
    except NumericalError as exc:
        raise NumericalError(f"{exc}; --output log prints the log-chart release") from exc
    print(format_matrix(release.entries))
    return 0


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    # each bench subcommand lacks the other's own options; the spec's
    # defaults stand in for them
    own = {
        name: getattr(args, name)
        for name in ("n", "r", "k", "eta", "resample_data")
        if hasattr(args, name)
    }
    return ExperimentSpec(
        kind="image" if args.command == "image-bench" else "synthetic",
        mechanism=args.mechanism,
        epsilon_grid=_parse_float_list(args.eps, "--eps"),
        delta_grid=_parse_float_list(args.delta, "--delta"),
        trials=args.trials,
        seed=args.seed,
        burn_in=args.burn_in,
        image_dir=getattr(args, "images", None),
        **own,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    run = run_image if args.command == "image-bench" else run_synthetic
    stages = dict.fromkeys(STAGES + COUNTS, 0)  # read only under --timing
    records = run(_spec_from_args(args), threads=args.threads,
                  stages=stages if args.timing else None)
    _emit(records, args, stages)
    return 0


def _emit(records, args, stages: dict) -> None:
    if args.out_csv:
        _timed(stages, "csv", emit_csv, records, args.out_csv)
    if args.out_plot:
        _timed(stages, "svg", emit_plot, records, args.out_plot)
    if not args.out_csv and not args.out_plot:
        sys.stdout.write(render_csv(records))
    if args.timing and args.out_csv:
        sidecar = {"stages_ns": {n: stages[n] for n in STAGES},
                   "counts": {n: stages[n] for n in COUNTS}}
        Path(f"{args.out_csv}.manifest.json").write_text(json.dumps(sidecar, indent=1) + "\n")


def _cmd_descriptor(args: argparse.Namespace) -> int:
    image = load_pnm(args.image)
    descriptor = covariance_descriptor(image, DescriptorParams(eta=args.eta))
    print(format_matrix(descriptor.entries))
    return 0


def _add_budget_flags(sub: argparse.ArgumentParser, grid: bool) -> None:
    if grid:
        sub.add_argument("--eps", default="0.1", help="comma-separated epsilon grid")
        sub.add_argument("--delta", default="1e-6", help="comma-separated delta grid")
    else:
        sub.add_argument("--eps", type=float, required=True)
        sub.add_argument("--delta", type=float, required=True)


def _add_bench_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mechanism", choices=MECHANISMS, default="tangent_analytic")
    sub.add_argument("--trials", type=int, default=ExperimentSpec.trials)
    sub.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    sub.add_argument("--burn-in", type=int, default=ExperimentSpec.burn_in, dest="burn_in")
    sub.add_argument("--threads", type=int, default=1,
                     help="checked (>= 1); neither the output nor the speed depends on it")
    sub.add_argument("--out-csv", default=None, dest="out_csv")
    sub.add_argument("--out-plot", default=None, dest="out_plot")
    sub.add_argument("--timing", action="store_true", help="record real wall and stage times")
    sub.add_argument("--config", default=None, help="key = value defaults file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spd-bench`` parser, built on first use and reused by every
    :func:`main` call of the process."""
    parser = argparse.ArgumentParser(
        prog="spd-bench",
        description="Differentially private Fréchet means on SPD matrices.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: _apply_config reads the flags given from the tokens
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    cal = add_parser("calibrate", help="print the calibrated noise scale")
    cal.add_argument("--sensitivity", type=float, required=True)
    _add_budget_flags(cal, grid=False)
    cal.add_argument("--flavor", choices=("classical", "analytic"), required=True)
    cal.set_defaults(func=_cmd_calibrate)

    priv = add_parser("privatize", help="privatize one matrix from a file")
    priv.add_argument("--matrix", required=True, help="text file, one row per line")
    priv.add_argument("--mechanism", choices=MECHANISMS, default="tangent_analytic")
    _add_budget_flags(priv, grid=False)
    priv.add_argument("--n", type=int, required=True, help="dataset size behind the summary")
    priv.add_argument("--r", type=float, required=True, help="geodesic ball radius of the data")
    priv.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    priv.add_argument("--burn-in", type=int, default=ExperimentSpec.burn_in, dest="burn_in")
    priv.add_argument(
        "--output",
        choices=("matrix", "log"),
        default="matrix",
        help="print the SPD release, or its symmetric log-matrix (log-chart mechanisms)",
    )
    priv.set_defaults(func=_cmd_privatize)

    syn = add_parser("synthetic-bench", help="synthetic-data experiment grid")
    _add_budget_flags(syn, grid=True)
    _add_bench_flags(syn)
    for name, default in SYNTHETIC_DEFAULTS.items():
        syn.add_argument(f"--{name}", type=type(default), default=default)
    syn.add_argument("--resample-data", action="store_true", dest="resample_data")
    syn.set_defaults(func=_cmd_bench)

    img = add_parser("image-bench", help="covariance-descriptor experiment grid")
    _add_budget_flags(img, grid=True)
    _add_bench_flags(img)
    img.add_argument("--images", help="directory of PGM/PPM files; required, here or in --config")
    img.add_argument("--eta", type=float, default=DescriptorParams.eta)
    img.set_defaults(func=_cmd_bench)

    desc = add_parser("descriptor", help="print an image's covariance descriptor")
    desc.add_argument("--image", required=True)
    desc.add_argument("--eta", type=float, default=DescriptorParams.eta)
    desc.set_defaults(func=_cmd_descriptor)

    return parser


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(tokens)
    try:
        if getattr(args, "config", None) is not None:
            _apply_config(args, tokens)
        return args.func(args)
    except (SpdPrivacyError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
