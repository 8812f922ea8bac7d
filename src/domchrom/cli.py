"""Command-line surface.

Exit codes: 0 = completed and checked properties hold, 1 = counterexample or
verification failure, 2 = usage or input error, 3 = internal error (a chi
table or a solve that its own check contradicts).
Each subcommand declares its handler and only the flags it reads: any other
flag, or a missing required one, is a usage error.  Every subcommand takes
``--output``.  ``gen`` has one subcommand per family, each with its own flags.
A campaign passes its flags to the ``harness`` stream it runs, in this
process; it takes ``--jobs``, an integer >= 1 (default 1) that is checked
and selects nothing.  A JSON report is written record by record as the
campaign yields them.  An ``--output`` regular file is written beside its
path and moved into place only once complete, so a run that fails leaves no
file; stdout and devices are written directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress

from . import harness
from .coloring import DominatorCertificate, SINK_EXEMPT, verify_dominator
from .errors import DomchromError
from .generators import (
    GS_SCHEMES,
    CaterpillarSpec,
    GsSpec,
    caterpillar,
    gs,
    orient,
    path,
    random_tree,
    star,
)
from .io import (
    _pairs,
    certificate_to_obj,
    format_tree,
    read_coloring,
    read_tree,
    to_dot,
)
from .reports import ExperimentReport, write_json
from .solver import solve_exact


def _jobs(raw: str) -> int:
    """``--jobs`` value: an integer >= 1, else a usage error (exit 2)."""
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return jobs


def _mask(raw: str) -> int:
    """A mask flag's value: a decimal integer, or hexadecimal digits after
    ``0x``.  Python reads hexadecimal at any length but refuses decimal past
    4,300 digits, so a mask of more than about 14,000 edges needs ``0x``."""
    try:
        return int(raw, 16) if raw[:2].lower() == "0x" else int(raw)
    except ValueError:
        shown = repr(raw) if len(raw) <= 40 else f"{raw[:20]!r}... ({len(raw)} characters)"
        raise argparse.ArgumentTypeError(
            f"expected a decimal or 0x-prefixed hexadecimal mask, got {shown}"
        ) from None


@contextmanager
def _output(path: str | None):
    """The text stream that output for ``path`` goes to: stdout without a
    path, the file itself when it exists and is no regular file (a device
    such as /dev/null), else a temporary file beside it that replaces the
    path only when the body completes, and is removed when it fails."""
    if not path:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _emit(text: str, output: str | None) -> None:
    with _output(output) as fh:
        fh.write(text)


def _emit_json(obj: dict, output: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", output)


def _cert_text(cert: DominatorCertificate) -> str:
    lines = [f"colors ({cert.k}): " + " ".join(map(str, cert.coloring.colors))]
    for v, w in enumerate(cert.witnesses):
        lines.append(f"  v{v}: " + ("sink exempt" if w == SINK_EXEMPT else f"dominates class {w}"))
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    result = solve_exact(read_tree(args.tree))
    bound = "lower" if result.chi == result.tau + 1 else "upper"
    if args.format == "json":
        obj = {
            "chi": result.chi,
            "tau": result.tau,
            "bound": bound,
            "certificate": certificate_to_obj(result.certificate),
        }
        _emit_json(obj, args.output)
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
    outcome = verify_dominator(t, read_coloring(args.coloring, t.n))
    if isinstance(outcome, DominatorCertificate):
        if args.format == "json":
            _emit_json({"valid": True, "certificate": certificate_to_obj(outcome)}, args.output)
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
        _emit_json({"valid": False, "violations": lines}, args.output)
    else:
        _emit("invalid coloring:\n" + "\n".join(lines) + "\n", args.output)
    return 1


def _cmd_orientations(args) -> int:
    base = read_tree(args.tree).underlying()
    chis = harness.chi_table(base)
    extremes = {
        key: (mask, chis[mask]) for key, mask in zip(("min", "max"), harness.extreme_masks(chis))
    }
    # --min or --max makes its extreme the one row; otherwise every mask is one
    picked = [key for key in extremes if getattr(args, key)]
    for mask, chi in extremes.values():  # the named witnesses are solved and verified
        harness._certify(orient(base, mask), chi)
    rows = [extremes[key] for key in picked] or list(enumerate(chis))
    if args.format == "json":
        obj = {"n": base.n, "orientations": len(chis)}
        obj.update((key, {"mask": m, "chi": c}) for key, (m, c) in extremes.items())
        if not picked:
            obj["all"] = [{"mask": m, "chi": c} for m, c in rows]
        _emit_json(obj, args.output)
        return 0
    if args.format == "csv":
        lines = ["mask,chi", *(f"{m},{c}" for m, c in rows)]
    else:
        lines = [] if picked else [f"mask {m}: chi = {c}" for m, c in rows]
        for key in picked or extremes:
            m, c = extremes[key]
            lines.append(f"{key} chi = {c} at mask {m}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _command(sub, name: str, summary: str, run, *formats: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` handled by ``run(args)``.  It takes ``--output``, and
    ``--format`` over ``formats`` (the first is the default) when any are given."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    p.add_argument("--output", default=None, help="write output to this path")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    return p


def _add_family(families, name: str, summary: str, build) -> argparse.ArgumentParser:
    """``gen`` family ``name``: writes the tree ``build(args)`` as edges or DOT."""

    def run(args) -> int:
        t = build(args)
        _emit(to_dot(t) if args.emit == "dot" else format_tree(t), args.output)
        return 0

    p = _command(families, name, summary, run)
    p.add_argument("--emit", choices=("edges", "dot"), default="edges")
    return p


#: Namespace keys that the CLI itself reads; a campaign passes every other key
#: (its flags' dests are the stream's parameter names) to its ``harness`` stream.
_CLI_KEYS = frozenset({"command", "run", "output", "format"})


def _add_campaign(sub, name: str, summary: str, stream) -> argparse.ArgumentParser:
    """Campaign ``name``: runs ``stream`` on its flags and emits the report,
    JSON record by record as the records arrive, CSV once they are all in."""

    def run(args) -> int:
        campaign = stream(**{k: v for k, v in vars(args).items() if k not in _CLI_KEYS})
        if args.format == "csv":
            report = ExperimentReport.from_stream(campaign)
            _emit(report.to_csv(), args.output)
            return 0 if report.holds else 1
        with _output(args.output) as fh:
            holds = write_json(campaign, fh.write)["holds"]
        return 0 if holds else 1

    p = _command(sub, name, summary, run, "json", "csv")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted and checked; has no effect")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominator colorings of oriented trees, with "
        "certificates and exhaustive verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "solve", "solve one tree file exactly", _cmd_solve, "text", "json")
    p.add_argument("tree")

    p = _command(
        sub, "verify", "check a coloring file against a tree file", _cmd_verify,
        "text", "json",
    )
    p.add_argument("tree")
    p.add_argument("coloring")

    gen = sub.add_parser("gen", help="generate an instance from a named family")
    families = gen.add_subparsers(dest="family", required=True)
    mask_help = "orientation mask, decimal or 0x hexadecimal: bit i flips edge i"

    p = _add_family(families, "path", "oriented path", lambda a: orient(path(a.n), a.mask))
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--mask", type=_mask, default=0, help=mask_help)

    p = _add_family(families, "star", "oriented star", lambda a: orient(star(a.m), a.mask))
    p.add_argument("--m", type=int, required=True, help="leaf count")
    p.add_argument("--mask", type=_mask, default=0, help=mask_help)

    p = _add_family(
        families, "gs", "generalized star", lambda a: gs(GsSpec(a.m, a.k, a.scheme, a.mask))
    )
    p.add_argument("--m", type=int, required=True, help="path count")
    p.add_argument("--k", type=int, required=True, help="edges per path")
    p.add_argument("--scheme", choices=GS_SCHEMES, default="out")
    p.add_argument("--mask", type=_mask, default=None, help="mask for --scheme mask")

    p = _add_family(
        families, "caterpillar", "oriented caterpillar",
        lambda a: caterpillar(
            CaterpillarSpec(
                a.spine, _pairs(a.legs.split(",") if a.legs else (), ":", "--legs item"),
                a.spine_mask, a.legs_mask,
            )
        ),
    )
    p.add_argument("--spine", type=int, required=True, help="spine length")
    p.add_argument("--legs", default="", help="legs as idx:count,...")
    p.add_argument("--spine-mask", type=_mask, default=0)
    p.add_argument("--legs-mask", type=_mask, default=0)

    p = _add_family(
        families, "random", "seeded random oriented tree",
        lambda a: orient(random_tree(a.n, a.seed), a.mask),
    )
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", type=_mask, default=0, help=mask_help)

    p = _command(
        sub, "orientations", "solve all orientations of a tree file", _cmd_orientations,
        "text", "json", "csv",
    )
    p.add_argument("tree")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--min", action="store_true")
    group.add_argument("--max", action="store_true")
    group.add_argument("--all", action="store_true")

    p = _add_campaign(
        sub, "invariance", "reversal-invariance campaign", harness.stream_reversal_invariance
    )
    p.add_argument("--max-n", type=int, required=True)

    p = _add_campaign(sub, "leafdel", "leaf-deletion campaign", harness.stream_leaf_deletion)
    p.add_argument("--max-n", type=int, required=True)

    p = _add_campaign(
        sub, "conjecture", "generalized-star min/max exploration",
        harness.stream_conjecture_gs,
    )
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=10)

    p = _add_campaign(sub, "star", "star-orientation campaign", harness.stream_star_values)
    p.add_argument("--m-max", type=int, required=True)

    p = _add_campaign(
        sub, "caterpillar", "caterpillar bound campaign", harness.stream_caterpillar_bounds
    )
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--spine-min", type=int, default=3)
    p.add_argument("--spine-max", type=int, default=8)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.run(args)
    except (DomchromError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
