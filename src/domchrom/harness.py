"""Verification campaigns: exhaustive sweeps with replayable reports.

Each campaign enumerates a finite corpus, solves every instance exactly, and
emits one record per instance that carries the instance's compact code, so
each record replays on its own.  A counterexample never aborts a sweep; it
lands in the summary and flips the ``holds`` flag.  Instances are
independent, so campaigns parallelize over processes; workers return records
in enumeration order and each campaign builds its report from them, which
makes reports byte-identical for any job count.

Workers receive tree values that the parent has already built and validated,
never codes to parse: a base tree (with its code where the record names it)
plus a mask or a root, or a caterpillar spec.  Each worker builds every
instance once and encodes it only for its record.  Unpickling a frozen
dataclass skips ``__post_init__``, so a worker does not re-validate its
payload; that is safe because every payload tree comes from this package's
own validating constructors (``free_trees``, ``CaterpillarSpec``).

The leaf-deletion campaign solves the same labelled tree many times: both
orientations of a leaf edge leave the same subtree, and most subtrees are
instances one level down.  It therefore memoizes chi by labelled tree
(``_CHI_BY_OUT_MASKS``, keyed by ``OrientedTree.out_masks``, which fixes n
and every arc) for the length of one campaign, so each process solves each
distinct labelled tree once.  Every tree it does solve is still re-verified by
the solver's certificate check.  The other campaigns solve each labelled tree
once and take no memo.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor

from .errors import SpecInvalidError, TooLargeError
from .formulas import (
    _directed_spine,
    caterpillar_upper_coloring,
    central_path,
    chi_path_orientation_min,
    chi_rooted,
    directed_spine_coloring,
    gs_uniform_chi,
)
from .generators import (
    CaterpillarSpec,
    caterpillar,
    free_trees,
    gs_base,
    orient,
    path,
    rooted_orientation,
    star,
)
from .io import certificate_to_obj, encode_base, encode_tree
from .io import decode_tree  # unused here; perfbench/tracing.py wraps this name
from .reports import ExperimentReport, make_summary
from .solver import solve_exact
from .trees import BaseTree, OrientedTree, classify_rooted, delete_leaf


def _map_ordered(fn, payloads: list, jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _chi(t: OrientedTree) -> int:
    return solve_exact(t).chi


#: chi by labelled tree for the leaf-deletion campaign in progress in this
#: process; ``check_leaf_deletion`` empties it when the campaign ends, and pool
#: workers fill their own copy, which ends with the pool.
_CHI_BY_OUT_MASKS: dict[tuple[int, ...], int] = {}


def _memo_chi(t: OrientedTree) -> int:
    key = t.out_masks
    chi = _CHI_BY_OUT_MASKS.get(key)
    if chi is None:
        chi = _CHI_BY_OUT_MASKS[key] = _chi(t)
    return chi


# ---------------------------------------------------------------------------
# reversal invariance


def _invariance_record(payload: tuple[BaseTree, str, int]) -> dict:
    base, base_code, mask = payload
    n = base.n
    width = max(n - 1, 0)
    mask_rev = mask ^ ((1 << width) - 1) if width else 0
    t = orient(base, mask)
    t_rev = orient(base, mask_rev)
    chi = _chi(t)
    chi_rev = _chi(t_rev)
    record = {
        "n": n,
        "base": base_code,
        "mask": mask,
        "mask_rev": mask_rev,
        "instance": encode_tree(t),
        "instance_rev": encode_tree(t_rev),
        "chi": chi,
        "chi_rev": chi_rev,
        "equal": chi == chi_rev,
    }
    rc = classify_rooted(t)
    if rc.out_root is not None or rc.in_root is not None:
        formula = chi_rooted(t)
        record["rooted_formula"] = formula
        record["rooted_ok"] = formula == chi
    return record


def check_reversal_invariance(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Solve every orientation of every free tree up to ``max_n`` and compare
    each orientation with its reversal.

    Complementary masks are mutual reversals, so each record covers one
    mask/complement pair and the sweep touches every orientation exactly once.
    """
    if not (1 <= max_n <= 10):
        raise TooLargeError("reversal sweep supports 1 <= max_n <= 10")
    payloads = []
    for n in range(1, max_n + 1):
        half = 1 << max(n - 2, 0)
        for base in free_trees(n):
            code = encode_base(base)
            for mask in range(half):
                payloads.append((base, code, mask))
    records = _map_ordered(_invariance_record, payloads, jobs)
    counterexamples = []
    max_chi = -1
    max_instance = ""
    for rec in records:
        if not rec["equal"] or not rec.get("rooted_ok", True):
            counterexamples.append(rec["instance"])
        for key, inst in (("chi", "instance"), ("chi_rev", "instance_rev")):
            if rec[key] > max_chi:
                max_chi = rec[key]
                max_instance = rec[inst]
    return ExperimentReport(
        "reversal_invariance",
        {"max_n": max_n},
        records,
        make_summary(
            len(records),
            counterexamples,
            {"max_chi": max_chi, "max_chi_instance": max_instance},
        ),
    )


# ---------------------------------------------------------------------------
# leaf deletion


def _leafdel_records(payload: tuple[BaseTree, int]) -> list[dict]:
    t = orient(*payload)
    instance = encode_tree(t)
    chi = _memo_chi(t)
    records = []
    for v in t.underlying_leaves:
        sub, _ = delete_leaf(t, v)
        chi_sub = _memo_chi(sub)
        delta = chi - chi_sub
        u = t.neighbors[v][0]
        unique_out_target = t.out_neighbors[u] == (v,)
        unique_source = t.sources == (v,)
        drop_predicted = unique_out_target or unique_source
        source_rule_applicable = delta == 1 and t.in_degree(v) == 0
        source_rule_ok = (t.in_degree(u) == 1) if source_rule_applicable else None
        violations = []
        if delta not in (0, 1):
            violations.append("delta_range")
        if (delta == 1) != drop_predicted:
            violations.append("drop_characterization")
        if source_rule_applicable and not source_rule_ok:
            violations.append("source_neighbor_indegree")
        records.append(
            {
                "n": t.n,
                "instance": instance,
                "leaf": v,
                "neighbor": u,
                "chi": chi,
                "chi_sub": chi_sub,
                "delta": delta,
                "drop_predicted": drop_predicted,
                "unique_out_target": unique_out_target,
                "unique_source": unique_source,
                "source_rule_applicable": source_rule_applicable,
                "source_rule_ok": source_rule_ok,
                "violations": violations,
            }
        )
    return records


def check_leaf_deletion(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Delete every underlying leaf of every orientation of every free tree.

    Records the drop ``delta = chi(T) - chi(T minus leaf)`` and evaluates the
    two deletion predicates: the iff-characterization of delta = 1 (leaf is
    its neighbor's only out-neighbor, or is the unique source) and the
    source-leaf rule (a dropped source leaf's neighbor has in-degree 1).
    Violations are findings; they carry a replayable instance encoding.
    Each process solves each distinct labelled tree once per campaign.
    """
    if not (2 <= max_n <= 9):
        raise TooLargeError("leaf-deletion sweep supports 2 <= max_n <= 9")
    payloads = []
    for n in range(2, max_n + 1):
        for base in free_trees(n):
            for mask in range(1 << (n - 1)):
                payloads.append((base, mask))
    try:
        grouped = _map_ordered(_leafdel_records, payloads, jobs)
    finally:
        _CHI_BY_OUT_MASKS.clear()
    records = [rec for group in grouped for rec in group]
    counterexamples = [
        {"instance": rec["instance"], "leaf": rec["leaf"],
         "violations": rec["violations"]}
        for rec in records
        if rec["violations"]
    ]
    return ExperimentReport(
        "leaf_deletion",
        {"max_n": max_n},
        records,
        make_summary(len(records), counterexamples),
    )


# ---------------------------------------------------------------------------
# generalized-star conjecture exploration


def _gs_record(payload: tuple[int, int]) -> dict:
    m, k = payload
    base = gs_base(m, k)
    width = len(base.edges)
    chis = [_chi(orient(base, mask)) for mask in range(1 << width)]
    min_chi, max_chi = min(chis), max(chis)
    min_mask, max_mask = chis.index(min_chi), chis.index(max_chi)
    t_min = orient(base, min_mask)
    t_max = orient(base, max_mask)
    cert_min = solve_exact(t_min).certificate
    cert_max = solve_exact(t_max).certificate
    conjectured_min = 3 + m * (k // 2 - 1)
    conjectured_max = gs_uniform_chi(m, k)
    if m <= 2:
        regime = "path-degenerate"
    elif k == 1:
        regime = "star"
    else:
        regime = "general"
    return {
        "m": m,
        "k": k,
        "n": m * k + 1,
        "regime": regime,
        "orientations": 1 << width,
        "min_chi": min_chi,
        "min_mask": min_mask,
        "min_instance": encode_tree(t_min),
        "min_certificate": certificate_to_obj(cert_min),
        "max_chi": max_chi,
        "max_mask": max_mask,
        "max_instance": encode_tree(t_max),
        "max_certificate": certificate_to_obj(cert_max),
        "conjectured_min": conjectured_min,
        "min_agrees": min_chi == conjectured_min,
        "conjectured_max": conjectured_max,
        "max_agrees": max_chi == conjectured_max,
        "uniform_chi_out": chis[0],
        "uniform_chi_in": chis[-1],
        "max_at_uniform": max_chi in (chis[0], chis[-1]),
    }


def explore_conjecture_gs(
    m_max: int, k_max: int, n_cap: int = 10, jobs: int = 1
) -> ExperimentReport:
    """Exact min/max over all orientations of each generalized star.

    Agreement with the conjectured extremes is reported per (m, k);
    disagreements are findings, never failures, so the summary always holds
    when the sweep completes and every witness re-verifies.
    """
    if not (1 <= n_cap <= 10):
        raise TooLargeError("conjecture exploration supports n_cap <= 10")
    payloads = [
        (m, k)
        for m in range(1, m_max + 1)
        for k in range(1, k_max + 1)
        if m * k + 1 <= n_cap
    ]
    records = _map_ordered(_gs_record, payloads, jobs)
    findings = []
    for rec in records:
        if not rec["min_agrees"] or not rec["max_agrees"]:
            findings.append(
                {
                    "m": rec["m"],
                    "k": rec["k"],
                    "min_chi": rec["min_chi"],
                    "conjectured_min": rec["conjectured_min"],
                    "max_chi": rec["max_chi"],
                    "conjectured_max": rec["conjectured_max"],
                }
            )
    return ExperimentReport(
        "gs_minmax",
        {"m_max": m_max, "k_max": k_max, "n_cap": n_cap},
        records,
        make_summary(len(records), [], {"findings": findings}),
    )


# ---------------------------------------------------------------------------
# stars


def _star_records(payload: int) -> list[dict]:
    m = payload
    base = star(m)
    records = []
    uniform_masks = {0, (1 << m) - 1}
    for mask in range(1 << m):
        t = orient(base, mask)
        chi = _chi(t)
        uniform = mask in uniform_masks
        records.append(
            {
                "m": m,
                "mask": mask,
                "instance": encode_tree(t),
                "chi": chi,
                "uniform": uniform,
                "ok": chi in (2, 3) and (chi == 2) == uniform,
            }
        )
    return records


def check_star_values(m_max: int, jobs: int = 1) -> ExperimentReport:
    """Solve all orientations of stars with up to ``m_max`` leaves.

    Expected: every value lies in {2, 3}, with 2 exactly on the two
    orientations whose arcs all agree.
    """
    if not (1 <= m_max <= 10):
        raise TooLargeError("star sweep supports 1 <= m_max <= 10")
    grouped = _map_ordered(_star_records, list(range(1, m_max + 1)), jobs)
    records = [rec for group in grouped for rec in group]
    counterexamples = [rec["instance"] for rec in records if not rec["ok"]]
    return ExperimentReport(
        "star_values",
        {"m_max": m_max},
        records,
        make_summary(len(records), counterexamples),
    )


# ---------------------------------------------------------------------------
# caterpillars


def sample_caterpillar_specs(
    samples: int,
    seed: int,
    n_max: int = 12,
    spine_min: int = 3,
    spine_max: int = 8,
) -> tuple[list[CaterpillarSpec], int]:
    """Deterministic seeded sample of oriented caterpillar specs.

    Oversized draws are skipped (and counted); every fifth accepted sample
    forces an all-forward spine so the directed-spine case stays covered.
    Raises :class:`SpecInvalidError` when the spine range is empty or every
    spine it allows exceeds ``n_max``, since no draw could then be accepted.
    """
    if spine_min > spine_max:
        raise SpecInvalidError(f"spine_min {spine_min} exceeds spine_max {spine_max}")
    if spine_min > n_max:
        raise SpecInvalidError(f"spine_min {spine_min} exceeds n_max {n_max}")
    rng = random.Random(seed)
    specs: list[CaterpillarSpec] = []
    skipped = 0
    while len(specs) < samples:
        m = rng.randint(spine_min, spine_max)
        legs = []
        for idx in range(1, max(m - 1, 1)):
            count = rng.choice((0, 0, 0, 1, 1, 2))
            if count:
                legs.append((idx, count))
        total_legs = sum(c for _, c in legs)
        if m + total_legs > n_max:
            skipped += 1
            continue
        spine_mask = rng.randrange(1 << (m - 1)) if m > 1 else 0
        if len(specs) % 5 == 0:
            spine_mask = 0
        legs_mask = rng.randrange(1 << total_legs) if total_legs else 0
        specs.append(CaterpillarSpec(m, tuple(legs), spine_mask, legs_mask))
    return specs, skipped


def _caterpillar_record(payload: tuple[int, CaterpillarSpec]) -> dict:
    index, spec = payload
    t = caterpillar(spec)
    view = central_path(t)
    m = view.m
    spine_arcs = []
    pos = {v: i for i, v in enumerate(view.spine)}
    arcset = set(t.arcs)
    for i in range(m - 1):
        a, b = view.spine[i], view.spine[i + 1]
        spine_arcs.append((i, i + 1) if (a, b) in arcset else (i + 1, i))
    spine_tree = OrientedTree(m, tuple(spine_arcs))
    chi = _chi(t)
    chi_spine = _chi(spine_tree)
    upper = caterpillar_upper_coloring(t)
    directed = _directed_spine(t, view.spine) is not None
    directed_ok = None
    directed_cert = None
    if directed:
        cert = directed_spine_coloring(t)
        directed_cert = certificate_to_obj(cert)
        directed_ok = chi == m and cert.coloring.k == m
    lower_ok = chi_spine <= chi
    upper_ok = chi <= upper.coloring.k <= 2 * m - 1
    record = {
        "index": index,
        "spec": {
            "spine_len": spec.spine_len,
            "legs": [list(pair) for pair in spec.legs],
            "spine_mask": spec.spine_mask,
            "legs_mask": spec.legs_mask,
        },
        "instance": encode_tree(t),
        "n": t.n,
        "m": m,
        "spine": list(view.spine),
        "spine_directed": directed,
        "chi": chi,
        "chi_spine": chi_spine,
        "upper_colors": upper.coloring.k,
        "upper_certificate": certificate_to_obj(upper),
        "directed_certificate": directed_cert,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "directed_ok": directed_ok,
        "ok": lower_ok and upper_ok and directed_ok is not False,
    }
    return record


def check_caterpillar_bounds(
    samples: int,
    seed: int,
    n_max: int = 12,
    spine_min: int = 3,
    spine_max: int = 8,
    jobs: int = 1,
) -> ExperimentReport:
    """Spine lower bound, 2m-1 upper bound, and directed-spine equality on a
    seeded random sample of oriented caterpillars."""
    specs, skipped = sample_caterpillar_specs(samples, seed, n_max, spine_min, spine_max)
    records = _map_ordered(_caterpillar_record, list(enumerate(specs)), jobs)
    counterexamples = [rec["instance"] for rec in records if not rec["ok"]]
    directed_cases = sum(1 for rec in records if rec["spine_directed"])
    return ExperimentReport(
        "caterpillar_bounds",
        {
            "samples": samples,
            "seed": seed,
            "n_max": n_max,
            "spine_min": spine_min,
            "spine_max": spine_max,
        },
        records,
        make_summary(
            len(records),
            counterexamples,
            {"skipped": skipped, "directed_spines": directed_cases},
        ),
    )


# ---------------------------------------------------------------------------
# path orientation minimum


def _path_min_record(payload: int) -> dict:
    n = payload
    base = path(n)
    chis = [_chi(orient(base, mask)) for mask in range(1 << (n - 1))]
    min_chi, max_chi = min(chis), max(chis)
    min_mask, max_mask = chis.index(min_chi), chis.index(max_chi)
    formula = chi_path_orientation_min(n)
    return {
        "n": n,
        "orientations": 1 << (n - 1),
        "min_chi": min_chi,
        "min_mask": min_mask,
        "min_instance": encode_tree(orient(base, min_mask)),
        "max_chi": max_chi,
        "max_mask": max_mask,
        "formula": formula,
        "equal": min_chi == formula,
        "extension": n <= 3,
    }


def check_path_minimum(n_lo: int = 4, n_hi: int = 13, jobs: int = 1) -> ExperimentReport:
    """Exact minimum over all orientations of paths versus the closed form.

    Rows with n <= 3 are labeled as extensions of the formula (they come from
    the stored brute-force table rather than the piecewise expression).
    """
    if not (1 <= n_lo <= n_hi <= 13):
        raise TooLargeError("path sweep supports 1 <= n_lo <= n_hi <= 13")
    records = _map_ordered(_path_min_record, list(range(n_lo, n_hi + 1)), jobs)
    counterexamples = [rec["min_instance"] for rec in records if not rec["equal"]]
    return ExperimentReport(
        "path_minimum",
        {"n_lo": n_lo, "n_hi": n_hi},
        records,
        make_summary(len(records), counterexamples),
    )


# ---------------------------------------------------------------------------
# rooted-tree formula


def _rooted_record(payload: tuple[BaseTree, str, int, str]) -> dict:
    base, base_code, root, sense = payload
    t = rooted_orientation(base, root, sense)
    chi = _chi(t)
    leaves = len(t.sinks) if sense == "out" else len(t.sources)
    formula = t.n - leaves + 1
    return {
        "n": base.n,
        "base": base_code,
        "root": root,
        "sense": sense,
        "instance": encode_tree(t),
        "directed_leaves": leaves,
        "formula": formula,
        "chi": chi,
        "equal": chi == formula and chi_rooted(t) == formula,
    }


def check_rooted_formula(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Out- and in-orientations from every root of every free tree, solved
    exactly and compared against n - leaves + 1."""
    if not (1 <= max_n <= 10):
        raise TooLargeError("rooted sweep supports 1 <= max_n <= 10")
    payloads = []
    for n in range(1, max_n + 1):
        for base in free_trees(n):
            code = encode_base(base)
            for root in range(n):
                for sense in ("out", "in"):
                    payloads.append((base, code, root, sense))
    records = _map_ordered(_rooted_record, payloads, jobs)
    counterexamples = [rec["instance"] for rec in records if not rec["equal"]]
    return ExperimentReport(
        "rooted_formula",
        {"max_n": max_n},
        records,
        make_summary(len(records), counterexamples),
    )
