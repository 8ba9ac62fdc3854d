"""Command-line front end.

    agechemo run <config> [--routes both|galerkin|oracle] [--out DIR]
    agechemo verify <config>
    agechemo roots <config>

Exit codes: 0 success, 2 acceptance-check failure, 3 input error
(including a usage error on the command line).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import galerkin, lyapunov
from .config import build_model, load_config
from .errors import AgeChemoError, ParseError, ValidationError
from .model import solve_equilibrium
from .scenario import prepare, run

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INPUT = 3


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.routes is not None:
        cfg = dataclasses.replace(cfg, routes=args.routes)
    report = run(cfg, out_dir=args.out)
    sys.stdout.write(report.render())
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    report, _, eq = prepare(load_config(args.config))[:3]
    band, cert = report.validity, report.certificate
    lines = [
        "d_star = %.12g" % eq.d_star,
        # the warning that the age grid under-resolves d*, where prepare gave one
        *(w for w in report.warnings if w.startswith("[numerics] age_nodes")),
        "trajectory: inf_rate %.6g sup_rate %.6g valid %s" % (band.inf_rate, band.sup_rate, band.valid),
    ]
    if cert is None:
        lines.append(report.warnings[-1])  # certificate unavailable: ...
    else:
        lines.append("certificate:")
        lines.extend("  %s = %.12g" % item for item in cert.as_dict().items())
    fact = lyapunov.saturation_fact_check()
    lines.append("saturation inequality: %d violations in %d samples" % (fact.n_violations, fact.n_samples))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if cert is not None and fact.n_violations == 0 else EXIT_FAIL


def _cmd_roots(args) -> int:
    cfg = load_config(args.config)
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    roots = galerkin.characteristic_roots(eq, params, cfg.n_modes)
    sys.stdout.write("characteristic roots (count %d):\n" % cfg.n_modes)
    for r in roots:
        sys.stdout.write("  %+.6f %+.6fj\n" % (r.real, r.imag))
    sys.stdout.write(
        "certified: %d roots in Re s >= %.2f, |Im s| <= %.2f\n"
        % (len(roots), roots.sigma_lo, roots.omega_cap)
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit as input errors (3, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "input error: %s\n" % message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="agechemo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and emit traces")
    p_run.add_argument("config")
    p_run.add_argument("--routes", choices=("both", "galerkin", "oracle"), default=None)
    p_run.add_argument("--out", default=None, help="directory for CSV traces and the report")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="certificate and property checks only")
    p_verify.add_argument("config")
    p_verify.set_defaults(func=_cmd_verify)

    p_roots = sub.add_parser("roots", help="print the characteristic roots")
    p_roots.add_argument("config")
    p_roots.set_defaults(func=_cmd_roots)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except AgeChemoError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
