"""Command line front end.

Four commands share one scenario-file workflow:

    kcone certify  --scenario s.json [--out report.json] [--lambda-grid MIN:MAX:STEP] [--pairs N]
    kcone classify --scenario s.json [--out report.json] [--plotdata DIR]
    kcone poincare --scenario s.json [--out loop.csv]
    kcone report   --scenario s.json [--out DIR]

Common flags: --scenario FILE, --out PATH, --seed N (overrides the
scenario's seed), --quiet. When --out is omitted the main document goes to
stdout. Exit codes: 0 all analyses completed, 2 scenario/schema error,
3 integration failure, 4 analysis incomplete (reports still written when
possible).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ._version import __version__
from .cones import make_projector
from .errors import IntegrationFailure, IoError, KconeError, SchemaError
from .report import (
    _seek_loop,
    build_full_report,
    dump_report,
    emit_plotdata,
    run_certify,
    run_classify,
    wrap_report,
    write_loop_csv,
    write_report,
)
from .scenario import _read_scenario_object, parse_scenario


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _load(args):
    """Read, override, and parse the scenario named by --scenario."""
    obj = _read_scenario_object(args.scenario)
    if args.seed is not None:
        obj["seed"] = args.seed
    if getattr(args, "pairs", None) is not None:
        obj["pairs"] = args.pairs
    if getattr(args, "lambda_grid", None) is not None:
        try:
            lo, hi, step = (float(p) for p in args.lambda_grid.split(":"))
        except ValueError as exc:
            raise SchemaError(
                f"--lambda-grid wants MIN:MAX:STEP numbers, got {args.lambda_grid!r}",
                pointer="/lambda_grid",
            ) from exc
        obj["lambda_grid"] = [lo, hi, step]
    return parse_scenario(obj)


def _emit(args, report: dict, wall: float) -> None:
    if args.out:
        write_report(args.out, report, wall)
        _say(args, f"wrote {args.out}")
    else:
        sys.stdout.write(dump_report(wrap_report(report, wall)))


def _cmd_certify(args) -> int:
    scn = _load(args)
    t0 = time.perf_counter()
    report = run_certify(scn)
    if args.out:
        for c in report["certificates"]:
            lam = c.get("lambda")
            lam_s = "-" if lam is None else f"{lam:g}"
            _say(
                args,
                f"{c['condition']:>16}  lambda={lam_s:>8}  "
                f"worst={c['worst_margin']: .6e}  {c['verdict']}",
            )
    _emit(args, report, time.perf_counter() - t0)
    return 0


def _cmd_classify(args) -> int:
    scn = _load(args)
    t0 = time.perf_counter()
    classify, artifacts = run_classify(scn)
    if args.out:
        for sec in classify["orbits"]:
            _say(
                args,
                f"orbit {sec['index']}: {sec['orbit_class']['kind']} / "
                f"{sec['trichotomy']['branch']}"
                + (" [incomplete]" if sec["incomplete"] else ""),
            )
    _emit(args, classify, time.perf_counter() - t0)
    if args.plotdata:
        emit_plotdata(args.plotdata, scn, artifacts)
        _say(args, f"plot data in {args.plotdata}")
    return 4 if classify["incomplete"] else 0


def _cmd_poincare(args) -> int:
    scn = _load(args)
    if not scn.x0s:
        raise SchemaError("poincare needs an x0 in the scenario", pointer="/x0")
    loop, why = _seek_loop(scn, scn.x0s[0])
    if why == "not rank 2":
        raise SchemaError("poincare needs a rank-2 quadratic cone", pointer="/cone")
    if why == "not converged":
        _say(args, "tail has not settled; no loop extracted")
        return 4
    if loop is None:
        _say(args, "no periodic loop detected")
        return 4
    write_loop_csv(args.out or sys.stdout, loop, projector=make_projector(scn.cone))
    if args.out:
        _say(
            args,
            f"period {loop.period:.12g}  closure gap {loop.closure_gap:.3e}  "
            f"wrote {args.out}",
        )
    return 0


def _cmd_report(args) -> int:
    scn = _load(args)
    t0 = time.perf_counter()
    report, artifacts = build_full_report(scn)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "report.json")
    trajectories = [art["trajectory"] for art in artifacts]
    write_report(path, report, time.perf_counter() - t0, trajectories)
    _say(args, f"wrote {path}")
    if artifacts:
        written = emit_plotdata(outdir, scn, artifacts)
        _say(args, f"wrote {len(written)} plot-data files")
    return 4 if report["incomplete"] else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, metavar="FILE",
                        help="scenario JSON file")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="output file (directory for `report`); stdout if omitted")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario's random seed")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")

    parser = argparse.ArgumentParser(
        prog="kcone",
        description="cone-order certificates and limit-set analytics for ODE flows",
    )
    parser.add_argument("--version", action="version", version=f"kcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="run decay-rate certificates")
    p_cert.add_argument("--lambda-grid", metavar="MIN:MAX:STEP", default=None,
                        help="scan candidate rates instead of a single lambda")
    p_cert.add_argument("--pairs", type=int, default=None, metavar="N",
                        help="override the scenario's sample-pair count")
    p_cert.set_defaults(handler=_cmd_certify)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="orbit classes, limit-set estimates, trichotomy")
    p_cls.add_argument("--plotdata", metavar="DIR", default=None,
                       help="also write CSV plot data into DIR")
    p_cls.set_defaults(handler=_cmd_classify)

    p_poi = sub.add_parser("poincare", parents=[common],
                           help="extract a periodic loop as CSV")
    p_poi.set_defaults(handler=_cmd_poincare)

    p_rep = sub.add_parser("report", parents=[common],
                           help="full report plus plot-data sidecars")
    p_rep.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, IoError) as exc:
        print(f"kcone: {exc}", file=sys.stderr)
        return 2
    except IntegrationFailure as exc:
        print(f"kcone: integration failed: {exc}", file=sys.stderr)
        return 3
    except KconeError as exc:
        print(f"kcone: incomplete: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
