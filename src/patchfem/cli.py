"""Command-line front end: solve, convergence, sweep, angles subcommands.

Exit codes: 0 on success, 1 on runtime failure (non-convergence, unresolvable
cut, a grid too large to allocate, an output file that cannot be written), 2
on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .runner import (
    ANGLES_HEADER,
    MAX_ANGLE_BOUND,
    SOLVE_HEADER,
    SWEEP_HEADER,
    SWEEPS,
    RunConfig,
    _fmt,
    run_angles,
    run_convergence,
    run_single,
    run_sweep,
    write_csv,
)
from .solver import NonConvergence

__all__ = ["main", "build_parser"]


def _distinct(values: list) -> list:
    """``values`` if no entry repeats: a repeated grid size or sweep value
    would give duplicate rows, and a rate fitted through equal h values."""
    seen = set()
    for v in values:
        if v in seen:
            raise argparse.ArgumentTypeError(f"repeated value {v!r}")
        seen.add(v)
    return values


def _float_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    return _distinct(values)


def _size(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"grid size {n} must be >= 2")
    return n


def _size_list(text: str):
    sizes = [_size(v) for v in text.split(",") if v.strip() != ""]
    if not sizes:
        raise argparse.ArgumentTypeError(f"empty grid size list {text!r}")
    return _distinct(sizes)


def _levels(text: str):
    """Grid sizes of a convergence study: a rate needs at least two."""
    sizes = _size_list(text)
    if len(sizes) < 2:
        raise argparse.ArgumentTypeError(f"a rate needs at least two levels, not {text!r}")
    return sizes


def _out_path(text: str) -> str:
    """An output path whose directory exists, checked before any solve."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no directory {directory!r} for {text!r}")
    return text


# Upper ends of the allowed [0, hi] ranges of the interface parameters.
_PARAM_MAX = {"eps": 1.0, "alpha": float(np.pi)}


def _check_param(name: str, value: float) -> float:
    if not 0.0 <= value <= _PARAM_MAX[name]:
        raise argparse.ArgumentTypeError(
            f"{name} {value!r} outside [0, {_PARAM_MAX[name]!r}]")
    return value


def _eps(text: str) -> float:
    return _check_param("eps", float(text))


def _alpha(text: str) -> float:
    return _check_param("alpha", float(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchfem",
        description="Patch finite elements for two-phase diffusion problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("--problem", choices=["circle", "horizontal", "tilted"],
                       default="circle")
        p.add_argument("--strategy", type=int, choices=[1, 2, 3], default=2)
        if with_mode:
            p.add_argument("--mode", choices=["adapted", "baseline"],
                           default="adapted")
        p.add_argument("--eps", type=_eps, default=0.5,
                       help="interface offset for the horizontal problem, in [0, 1]")
        p.add_argument("--alpha", type=_alpha, default=float(np.pi / 4),
                       help="interface angle for the tilted problem, in [0, pi]")
        p.add_argument("--out", type=_out_path, default=None, help="CSV output path")

    p_solve = sub.add_parser("solve", help="solve one configuration")
    common(p_solve)
    p_solve.add_argument("--n", type=_size, default=16)
    p_solve.add_argument("--dump-mesh", type=_out_path, default=None,
                         help="write the adapted mesh as JSON")

    p_conv = sub.add_parser("convergence", help="refinement study with rates")
    common(p_conv)
    p_conv.add_argument("--levels", type=_levels, default=[8, 16, 32, 64, 128],
                        help="comma-separated grid sizes, at least two")

    p_sweep = sub.add_parser("sweep", help="interface-position sweep")
    common(p_sweep, with_mode=False)
    p_sweep.add_argument("--values", type=_float_list, default=None,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--n", type=_size_list, default=[16, 32, 64],
                         help="comma-separated grid sizes")

    p_angles = sub.add_parser("angles", help="per-patch maximum-angle audit")
    common(p_angles, with_mode=False)
    p_angles.add_argument("--n", type=_size, default=32)
    return parser


def _print_rows(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))


def _cmd_solve(args) -> int:
    cfg = RunConfig(problem=args.problem, n=args.n, strategy=args.strategy,
                    mode=args.mode, eps=args.eps, alpha=args.alpha,
                    dump_mesh=args.dump_mesh)
    row = run_single(cfg)
    rows = [row.as_list()]
    if args.out:
        write_csv(args.out, SOLVE_HEADER, rows)
    _print_rows(SOLVE_HEADER, rows)
    return 0


def _cmd_convergence(args) -> int:
    rows, l2_rate, h1_rate = run_convergence(
        args.problem, args.levels, args.strategy, args.mode,
        eps=args.eps, alpha=args.alpha,
    )
    out_rows = [r.as_list() for r in rows]
    out_rows.append([args.problem, args.mode, args.strategy, "rates", "", "",
                     l2_rate, h1_rate, "", ""])
    if args.out:
        write_csv(args.out, SOLVE_HEADER, out_rows)
    _print_rows(SOLVE_HEADER, out_rows)
    return 0


def _cmd_sweep(args, parser) -> int:
    if args.problem not in SWEEPS:
        parser.error(f"sweep supports the {' and '.join(SWEEPS)} problems")
    param, default = SWEEPS[args.problem]
    values = args.values if args.values is not None else default
    if not values:
        parser.error("empty sweep value grid")
    try:
        for value in values:
            _check_param(param, value)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    rows = run_sweep(args.problem, values, args.n, args.strategy)
    if args.out:
        write_csv(args.out, SWEEP_HEADER, rows)
    _print_rows(SWEEP_HEADER, rows)
    return 0


def _cmd_angles(args) -> int:
    audit = run_angles(args.problem, args.n, args.strategy,
                       eps=args.eps, alpha=args.alpha)
    if args.out:
        write_csv(args.out, ANGLES_HEADER, audit.rows)
    print(f"global max angle: {audit.global_max:.6f} deg over "
          f"{len(audit.per_patch)} patches")
    if audit.global_max > MAX_ANGLE_BOUND:
        print("maximum angle bound exceeded", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        return _cmd_angles(args)
    except (NonConvergence, RuntimeError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
