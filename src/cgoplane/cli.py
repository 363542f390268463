"""Command-line entry point for the experiment runners."""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import RUNNERS, ExperimentConfig


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cgoplane",
        description="Reconstruction experiments for piecewise-smooth planar potentials",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in ("counterexample", "convergence", "stability", "lemmas", "scatter"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; overrides the built-in defaults")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="grid samples per side")
        p.add_argument("--seed", type=int, default=None, help="rng seed")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    return parser


def config_from_args(args) -> ExperimentConfig:
    data = {"name": args.experiment}
    if args.config:
        with open(args.config) as fh:
            data.update(json.load(fh))
        data["name"] = args.experiment
    if args.out is not None:
        data["out_dir"] = args.out
    if args.grid is not None:
        data["grid_n"] = args.grid
    if args.seed is not None:
        data["seed"] = args.seed
    if args.jobs is not None:
        data["jobs"] = args.jobs
    data.setdefault("out_dir", f"out_{args.experiment}")
    return ExperimentConfig(**data)


def _num(v, spec):
    """Format a summary number; a runner writes an undefined one as null, shown n/a."""
    return "n/a" if v is None else format(v, spec)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    summary = RUNNERS[args.experiment](cfg)
    key_lines = {
        "counterexample": lambda s: [
            f"t={e['t']}: limit vs oracle rel err {e['rel_error_vs_oracle']:.3f}"
            for e in s["per_t"]
        ] + [f"constant supported by data: {s['constant_supported_by_data']}"],
        "convergence": lambda s: [
            f"x={e['x']}: slope {_num(e['interior_slope'], '.3f')}, "
            f"limit rel err {e['limit_rel_error_of_max']:.3f}"
            for e in s["per_point"]
        ],
        "stability": lambda s: [
            f"delta={d}: gap {gp:.3e}, lambda {l:.2f}, sup err {e:.4f}"
            for d, gp, l, e in zip(s["run"]["deltas"], s["run"]["dtn_gaps"],
                                   s["run"]["lambdas"], s["run"]["sup_errors"])
        ],
        "lemmas": lambda s: [
            f"{c['name']}: slope {_num(c['slope'], '.3f')} in "
            f"[{_num(c['budget'][0], '.3g')}, {c['budget'][1]:.3g}] -> "
            f"{'PASS' if c['passed'] else 'FAIL'}"
            for c in s["checks"]
        ],
        "scatter": lambda s: [
            f"born mismatch {s['born_mismatch']}, "
            f"halving ratio {_num(s['halving_ratio'], '.2f')}",
            f"k-norm {s['k_norm']:.4e} (tail {s['k_norm_tail']:.2e})",
        ],
    }
    for line in key_lines[args.experiment](summary):
        print(line)
    print(f"outputs written to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
