"""Command-line surface.

Exit codes: 0 = completed and checked properties hold, 1 = counterexample or
verification failure, 2 = usage or input error.
Every subcommand takes ``--output``; each takes only the other flags it reads.
Campaigns take ``--jobs``, which defaults to the ``DOMCHROM_JOBS`` environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .coloring import DominatorCertificate, SINK_EXEMPT, verify_dominator
from .errors import DomchromError
from .generators import (
    CaterpillarSpec,
    GsSpec,
    caterpillar,
    gs,
    orient,
    orientations,
    path,
    random_tree,
    star,
)
from .io import (
    FormatError,
    certificate_to_obj,
    format_tree,
    read_coloring,
    read_tree,
    to_dot,
)
from .reports import ExperimentReport
from .solver import solve_exact


def _default_jobs() -> int:
    raw = os.environ.get("DOMCHROM_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _output_flags(p: argparse.ArgumentParser, *formats: str) -> None:
    """``--output``, plus ``--format`` over ``formats`` (the first is the default)."""
    p.add_argument("--output", default=None, help="write output to this path")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _campaign_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    _output_flags(p, "json", "csv")
    p.add_argument(
        "--jobs", type=int, default=_default_jobs(), help="parallel worker processes"
    )
    return p


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: ExperimentReport, args) -> int:
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
    else:
        _emit(report.to_json(), args.output)
    return 0 if report.holds else 1


def _cert_text(cert: DominatorCertificate) -> str:
    lines = [f"colors ({cert.k}): " + " ".join(map(str, cert.coloring.colors))]
    for v, w in enumerate(cert.witnesses):
        if w == SINK_EXEMPT:
            lines.append(f"  v{v}: sink exempt")
        else:
            lines.append(f"  v{v}: dominates class {w}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominator colorings of oriented trees, with "
        "certificates and exhaustive verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one tree file exactly")
    p.add_argument("tree")
    _output_flags(p, "text", "json")

    p = sub.add_parser("verify", help="check a coloring file against a tree file")
    p.add_argument("tree")
    p.add_argument("coloring")
    _output_flags(p, "text", "json")

    p = sub.add_parser("gen", help="generate an instance from a named family")
    p.add_argument(
        "family", choices=("path", "star", "gs", "caterpillar", "random")
    )
    p.add_argument("--n", type=int, help="vertex count (path, random)")
    p.add_argument("--m", type=int, help="paths/leaves (gs, star)")
    p.add_argument("--k", type=int, help="edges per path (gs)")
    p.add_argument("--scheme", choices=("out", "in", "layered", "mask"), default="out")
    p.add_argument("--mask", type=int, default=None, help="orientation mask")
    p.add_argument("--spine", type=int, help="spine length (caterpillar)")
    p.add_argument("--legs", default="", help="caterpillar legs as idx:count,...")
    p.add_argument("--spine-mask", type=int, default=0)
    p.add_argument("--legs-mask", type=int, default=0)
    p.add_argument("--emit", choices=("edges", "dot"), default="edges")
    p.add_argument("--seed", type=int, default=0, help="seed (random)")
    _output_flags(p)

    p = sub.add_parser("orientations", help="solve all orientations of a tree file")
    p.add_argument("tree")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--min", action="store_true")
    group.add_argument("--max", action="store_true")
    group.add_argument("--all", action="store_true")
    _output_flags(p, "text", "json", "csv")

    p = _campaign_parser(sub, "invariance", "reversal-invariance campaign")
    p.add_argument("--max-n", type=int, required=True)

    p = _campaign_parser(sub, "leafdel", "leaf-deletion campaign")
    p.add_argument("--max-n", type=int, required=True)

    p = _campaign_parser(sub, "conjecture", "generalized-star min/max exploration")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=10)

    p = _campaign_parser(sub, "star", "star-orientation campaign")
    p.add_argument("--m-max", type=int, required=True)

    p = _campaign_parser(sub, "caterpillar", "caterpillar bound campaign")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--spine-min", type=int, default=3)
    p.add_argument("--spine-max", type=int, default=8)

    return parser


def _cmd_solve(args) -> int:
    t = read_tree(args.tree)
    result = solve_exact(t)
    bound = "lower" if result.chi == result.tau + 1 else "upper"
    if args.format == "json":
        obj = {
            "chi": result.chi,
            "tau": result.tau,
            "bound": bound,
            "certificate": certificate_to_obj(result.certificate),
        }
        _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.output)
    else:
        offset = result.chi - result.tau
        _emit(
            f"chi = {result.chi}\ntau = {result.tau} (chi meets the {bound} bound tau + {offset})\n"
            + _cert_text(result.certificate),
            args.output,
        )
    return 0


def _cmd_verify(args) -> int:
    t = read_tree(args.tree)
    coloring = read_coloring(args.coloring, t.n)
    outcome = verify_dominator(t, coloring)
    if isinstance(outcome, DominatorCertificate):
        if args.format == "json":
            _emit(
                json.dumps(
                    {"valid": True, "certificate": certificate_to_obj(outcome)},
                    sort_keys=True,
                    indent=2,
                )
                + "\n",
                args.output,
            )
        else:
            _emit("valid dominator coloring\n" + _cert_text(outcome), args.output)
        return 0
    lines = []
    for violation in outcome:
        if hasattr(violation, "arc"):
            lines.append(f"improper edge {violation.arc}")
        else:
            lines.append(f"no dominated class at vertex {violation.vertex}")
    if args.format == "json":
        _emit(
            json.dumps({"valid": False, "violations": lines}, sort_keys=True, indent=2)
            + "\n",
            args.output,
        )
    else:
        _emit("invalid coloring:\n" + "\n".join(lines) + "\n", args.output)
    return 1


def _parse_legs(raw: str) -> tuple[tuple[int, int], ...]:
    if not raw:
        return ()
    legs = []
    for token in raw.split(","):
        idx, _, count = token.partition(":")
        legs.append((int(idx), int(count)))
    return tuple(legs)


def _cmd_gen(args) -> int:
    if args.family == "path":
        if args.n is None:
            raise FormatError("gen path needs --n")
        t = orient(path(args.n), args.mask or 0)
    elif args.family == "star":
        if args.m is None:
            raise FormatError("gen star needs --m")
        t = orient(star(args.m), args.mask or 0)
    elif args.family == "gs":
        if args.m is None or args.k is None:
            raise FormatError("gen gs needs --m and --k")
        t = gs(GsSpec(args.m, args.k, args.scheme, args.mask))
    elif args.family == "caterpillar":
        if args.spine is None:
            raise FormatError("gen caterpillar needs --spine")
        spec = CaterpillarSpec(
            args.spine, _parse_legs(args.legs), args.spine_mask, args.legs_mask
        )
        t = caterpillar(spec)
    else:  # random
        if args.n is None:
            raise FormatError("gen random needs --n")
        base = random_tree(args.n, args.seed)
        t = orient(base, args.mask or 0)
    if args.emit == "dot":
        _emit(to_dot(t), args.output)
    else:
        _emit(format_tree(t), args.output)
    return 0


def _cmd_orientations(args) -> int:
    t = read_tree(args.tree)
    base = t.underlying()
    chis = [solve_exact(oriented).chi for oriented in orientations(base)]
    min_chi, max_chi = min(chis), max(chis)
    min_mask, max_mask = chis.index(min_chi), chis.index(max_chi)
    want_min = args.min and not args.max
    want_max = args.max
    if args.format == "json":
        obj = {
            "n": base.n,
            "orientations": len(chis),
            "min": {"mask": min_mask, "chi": min_chi},
            "max": {"mask": max_mask, "chi": max_chi},
        }
        if not (want_min or want_max):
            obj["all"] = [{"mask": m, "chi": c} for m, c in enumerate(chis)]
        _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.output)
    elif args.format == "csv":
        lines = ["mask,chi"]
        if want_min:
            lines.append(f"{min_mask},{min_chi}")
        elif want_max:
            lines.append(f"{max_mask},{max_chi}")
        else:
            lines.extend(f"{m},{c}" for m, c in enumerate(chis))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = []
        if want_min:
            lines.append(f"min chi = {min_chi} at mask {min_mask}")
        elif want_max:
            lines.append(f"max chi = {max_chi} at mask {max_mask}")
        else:
            lines.extend(f"mask {m}: chi = {c}" for m, c in enumerate(chis))
            lines.append(f"min chi = {min_chi} at mask {min_mask}")
            lines.append(f"max chi = {max_chi} at mask {max_mask}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "orientations":
            return _cmd_orientations(args)
        if args.command == "invariance":
            report = harness.check_reversal_invariance(args.max_n, jobs=args.jobs)
            return _emit_report(report, args)
        if args.command == "leafdel":
            report = harness.check_leaf_deletion(args.max_n, jobs=args.jobs)
            return _emit_report(report, args)
        if args.command == "conjecture":
            report = harness.explore_conjecture_gs(
                args.m_max, args.k_max, n_cap=args.n_cap, jobs=args.jobs
            )
            return _emit_report(report, args)
        if args.command == "star":
            report = harness.check_star_values(args.m_max, jobs=args.jobs)
            return _emit_report(report, args)
        if args.command == "caterpillar":
            report = harness.check_caterpillar_bounds(
                args.samples,
                seed=args.seed,
                n_max=args.n_max,
                spine_min=args.spine_min,
                spine_max=args.spine_max,
                jobs=args.jobs,
            )
            return _emit_report(report, args)
        raise AssertionError(f"unhandled command {args.command}")
    except (DomchromError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
