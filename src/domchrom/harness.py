"""Verification campaigns: exhaustive sweeps with replayable reports.

Each campaign enumerates a finite corpus, solves every instance exactly, and
emits one record per instance that carries the instance's compact code, so
each record replays on its own.  A counterexample never aborts a sweep; it
lands in the summary and flips the ``holds`` flag.  Every campaign runs in
the calling process, in enumeration order, so reports are byte-identical
across reruns.

Each campaign is a stream (``stream_*``, see :mod:`reports`): it checks its
parameters, yields its name and params, then each record as it is built,
and returns its summary, whose counterexamples and other findings it folds
as the records pass.  The CLI writes a stream's records as they arrive;
each ``check_*`` function collects its stream into an
:class:`ExperimentReport`.

Five campaigns name every orientation of a base tree.  Each reads chi
from :func:`solver.chi_table`, which gives chi of every mask of a base tree
from one bottom-up pass over subtree states, with no tree built and no
solve.  The tables of one sweep share their steps: inside
:func:`solver._shared_steps`, every table of a tree on n vertices, leaf
deletion's base - v included, reuses one step table for n, which goes when
the sweep ends.  A record reads its values from its base tree's table by
mask and builds nothing; a reversal-invariance record reads its rooted
formula from a dict over the at most 2n rooted masks of its base tree
(:func:`_rooted_formulas`).
The reversal-invariance, leaf-deletion and star records, one per mask, read
their instance codes from a second table per base tree, :func:`_arc_table`:
every arc that either direction of an edge gives, sorted once and with its
code item formatted once, so a mask's code is one filter and one join.
Each sweep computes its chi tables in one pass, and builds each record from
its base tree and table.  An entry carries no coloring, so :func:`_certify`
solves each witness a report names: the summary's ``max_chi_instance``,
each sweep's first counterexample (both ways, or with its subtree) and each
generalized star's two extremes.

The leaf-deletion campaign goes one size at a time.  Deleting leaf v
renames x to x - (x > v), which keeps the vertex order, so the subtree
``delete_leaf(orient(base, mask), v)`` is an orientation of the labelled
tree base - v, and its mask is ``mask`` with the bit of v's edge taken out.
:func:`_leaf_maps` spreads that tree's chi table over the base tree's
masks, one list per leaf, so every chi a record names is one lookup; no
subtree is built and no canonical labelling made.  While size n runs, the
campaign keeps the tables it has made of sizes n - 1 and n, and no memo
outlives a call.  The caterpillar and rooted-formula campaigns solve each
tree they meet once; a caterpillar record and both constructions it checks
read the spine and the legs off the spec, so nothing searches for a longest
path, and both constructions are verified on the one tree the record
builds.  Star and rooted-tree values come from :mod:`formulas` alone.
Every solve is re-verified by its certificate check.
"""

from __future__ import annotations

import random

from .errors import SpecInvalidError, TooLargeError, _int
from .formulas import (
    _caterpillar_upper_labels,
    _certified,
    _directed_spine_labels,
    _rooted_chi,
    chi_path_orientation_min,
    chi_rooted,
    chi_star,
    gs_uniform_chi,
)
from .generators import (
    CaterpillarSpec,
    caterpillar,
    free_trees,
    gs_base,
    mask_bits,
    orient,
    orientation_arcs,
    path,
    rooted_orientation,
    star,
)
from .io import _arc_texts, _code, certificate_to_obj, encode_arcs, encode_base, encode_tree
from .io import decode_tree  # unused here; perfbench/tracing.py wraps this name
from .reports import ExperimentReport
from .solver import _shared_steps, chi_table, solve_exact
from .trees import BaseTree, OrientedTree, _walk, delete_leaf


def _map_ordered(fn, payloads: list):
    """``fn`` of each payload, lazily and in payload order: the one table
    pass of an orientation sweep, under a name that perfbench/tracing.py
    wraps."""
    return map(fn, payloads)


def _summary(instances: int, counterexamples: list, **extra) -> dict:
    """A campaign's summary; it holds exactly when no counterexample was
    found, and carries ``extra`` beside the instance count."""
    return {
        "instances": instances,
        "counterexamples": counterexamples,
        "holds": not counterexamples,
        **extra,
    }


def _certify(t: OrientedTree, chi: int):
    """The solve of ``t``, which a report names with ``chi`` from a chi
    table; it re-verifies its coloring, and raises on a chi that differs."""
    result = solve_exact(t)
    if result.chi != chi:
        raise RuntimeError(f"chi table gives {chi}, solve_exact {result.chi}: {encode_tree(t)}")
    return result


def _from_tables(build, bases: list[BaseTree]):
    """Each ``build(base, chi_table(base))``, the tables made in one pass
    on the campaign's step tables."""
    with _shared_steps():
        yield from map(build, bases, _map_ordered(chi_table, bases))


def _arc_table(base: BaseTree) -> list[tuple[int, str, int, str]]:
    """Every arc that an orientation of ``base`` can have, in sorted order
    (tail, then head), from both directions of each edge.  Entry
    ``(i, bit, tail, text)`` is the arc that edge i gives where bit i of the
    mask reads ``bit`` ("1" exactly when the tail is the larger end), and
    ``text`` its code item.  The arcs of a mask are the entries that its
    :func:`generators.mask_bits` select, in this order, so a record reads its
    instance code with one filter and one join and sorts nothing."""
    index = {edge: i for i, edge in enumerate(base.edges)}
    arcs = [(t, w) for t, nbrs in enumerate(base.adjacency) for w in nbrs]
    return [
        (index[(t, w) if t < w else (w, t)], "1" if t > w else "0", t, text)
        for (t, w), text in zip(arcs, _arc_texts(arcs))
    ]


def extreme_masks(values: list) -> tuple[int, int]:
    """The first mask with the least value of a per-mask table, and the first
    with the greatest."""
    return values.index(min(values)), values.index(max(values))


# ---------------------------------------------------------------------------
# reversal invariance


def _rooted_formulas(base: BaseTree) -> dict[int, int]:
    """The rooted formula of every out- and in-tree orientation of ``base``,
    by mask, from one walk per root and no tree built.  The walk's parent
    arcs give the out-tree's mask, the in-tree's is its complement, and both
    have as directed leaves the vertices with no child in the walk."""
    adj = base.adjacency
    bit = {edge: i for i, edge in enumerate(base.edges)}
    full = (1 << len(base.edges)) - 1
    formulas = {}
    for root in range(base.n):
        order, parent, _ = _walk(root, adj)
        mask = 0
        for v in order[1:]:
            if parent[v] > v:  # the arc parent -> v flips edge (v, parent)
                mask |= 1 << bit[(v, parent[v])]
        leaves = sum(len(nbrs) == (v != root) for v, nbrs in enumerate(adj))
        formulas[mask] = formulas[mask ^ full] = _rooted_chi(base.n, leaves)
    return formulas


def _invariance_record(
    base: BaseTree, base_code: str, mask: int, table: list, arc_table: list, rooted: dict
) -> dict:
    """The record of ``mask`` and its complement, read from the tables of
    ``base`` (see :func:`solver.chi_table`, :func:`_arc_table` and
    :func:`_rooted_formulas`); nothing is built."""
    n = base.n
    width = len(base.edges)
    mask_rev = mask ^ ((1 << width) - 1)
    chi = table[mask]
    chi_rev = table[mask_rev]
    # the complement selects exactly the arcs that the mask leaves
    bits = mask_bits(mask, width)
    texts, texts_rev = [], []
    for i, bit, _, text in arc_table:
        (texts if bits[i] == bit else texts_rev).append(text)
    record = {
        "n": n,
        "base": base_code,
        "mask": mask,
        "mask_rev": mask_rev,
        "instance": _code(n, texts),
        "instance_rev": _code(n, texts_rev),
        "chi": chi,
        "chi_rev": chi_rev,
        "equal": chi == chi_rev,
    }
    formula = rooted.get(mask)
    if formula is not None:
        record["rooted_formula"] = formula
        record["rooted_ok"] = formula == chi
    return record


def _invariance_records(base: BaseTree, table: list) -> list[dict]:
    """The records of one base tree, one per mask below its complement."""
    base_code = encode_base(base)
    arc_table = _arc_table(base)
    rooted = _rooted_formulas(base)
    return [
        _invariance_record(base, base_code, mask, table, arc_table, rooted)
        for mask in range((len(table) + 1) // 2)
    ]


def stream_reversal_invariance(max_n: int):
    """The campaign stream of :func:`check_reversal_invariance`."""
    max_n = _int(max_n, "max_n")
    if not (1 <= max_n <= 10):
        raise TooLargeError("reversal sweep supports 1 <= max_n <= 10")
    yield "reversal_invariance", {"max_n": max_n}
    bases = [base for n in range(1, max_n + 1) for base in free_trees(n)]
    counterexamples = []
    max_chi = -1
    instances = 0
    for base, group in zip(bases, _from_tables(_invariance_records, bases)):
        instances += len(group)
        for rec in group:
            if not rec["equal"] or not rec.get("rooted_ok", True):
                if not counterexamples:  # the first one is certified both ways
                    _certify(orient(base, rec["mask"]), rec["chi"])
                    _certify(orient(base, rec["mask_rev"]), rec["chi_rev"])
                counterexamples.append(rec["instance"])
            for chi, mask in ((rec["chi"], rec["mask"]), (rec["chi_rev"], rec["mask_rev"])):
                if chi > max_chi:
                    max_chi, max_at = chi, (base, mask)
            yield rec
    t = orient(*max_at)
    _certify(t, max_chi)
    return _summary(instances, counterexamples, max_chi=max_chi, max_chi_instance=encode_tree(t))


def check_reversal_invariance(max_n: int) -> ExperimentReport:
    """Compare chi of every orientation of every free tree up to ``max_n``
    with chi of its reversal.

    Complementary masks are mutual reversals, so each record covers one
    mask/complement pair, and every orientation is named by exactly one
    record.  Every chi comes from the :func:`solver.chi_table` of its base
    tree; only the first counterexample, both ways, and the summary's
    ``max_chi_instance`` are built and solved.  The out- and in-trees among
    them also carry the rooted formula n - leaves + 1, which
    :func:`_rooted_formulas` reads off one walk per root of the base tree.
    """
    return ExperimentReport.from_stream(stream_reversal_invariance(max_n))


# ---------------------------------------------------------------------------
# leaf deletion


def _leaf_maps(base: BaseTree, tables: dict) -> list[tuple]:
    """How each underlying leaf v of ``base``, in vertex order, reads chi of
    ``delete_leaf(orient(base, mask), v)``: the entry is ``(v, neighbor,
    chis)``, and ``chis[mask]`` is that chi.

    Deleting v renames x to x - (x > v), which keeps the vertex order, so
    the kept edges of ``base`` stay sorted, their bits in the same order.
    The subtree of mask m is then ``orient(sub, m')``, where ``sub`` is
    base - v so relabelled and m' is m with bit i, that of v's edge, taken
    out; each block of 2^i entries of sub's :func:`solver.chi_table` is
    written twice.  ``tables`` maps labelled trees to their chi tables; a
    missing one is made and kept there.
    """
    n = base.n
    maps = []
    for v, nbrs in enumerate(base.adjacency):
        if len(nbrs) != 1:
            continue
        u = nbrs[0]
        block = 1 << base.edges.index((v, u) if v < u else (u, v))
        kept = (
            (a - (a > v), b - (b > v)) for a, b in base.edges if v != a and v != b
        )
        sub = BaseTree._trusted(n - 1, tuple(kept))
        table = tables.get(sub)
        if table is None:
            table = tables[sub] = chi_table(sub)
        chis = []
        for start in range(0, len(table), block):
            chis += table[start : start + block] * 2
        maps.append((v, u, chis))
    return maps


def _leafdel_records(base: BaseTree, tables: dict) -> list[dict]:
    """The records of every orientation of one base tree, in mask order and
    then leaf order; chi of the instance and of each subtree comes from
    ``tables``, and the predicates from the in- and out-degrees."""
    leaf_maps = _leaf_maps(base, tables)
    n = base.n
    width = len(base.edges)
    degree = [len(nbrs) for nbrs in base.adjacency]
    arc_table = _arc_table(base)
    records = []
    for mask, chi in enumerate(tables[base]):
        bits = mask_bits(mask, width)
        texts = []
        outdeg = [0] * n
        for i, bit, tail, text in arc_table:
            if bits[i] == bit:
                texts.append(text)
                outdeg[tail] += 1
        instance = _code(n, texts)
        indeg = [d - o for d, o in zip(degree, outdeg)]
        lone_source = indeg.index(0) if indeg.count(0) == 1 else -1
        for v, u, chis in leaf_maps:
            chi_sub = chis[mask]
            delta = chi - chi_sub
            # outs[u] == (v,): v's one arc comes from u, and u has no other
            unique_out_target = indeg[v] == 1 and outdeg[u] == 1
            unique_source = lone_source == v
            drop_predicted = unique_out_target or unique_source
            source_rule_applicable = delta == 1 and indeg[v] == 0
            source_rule_ok = (indeg[u] == 1) if source_rule_applicable else None
            violations = []
            if delta not in (0, 1):
                violations.append("delta_range")
            if (delta == 1) != drop_predicted:
                violations.append("drop_characterization")
            if source_rule_applicable and not source_rule_ok:
                violations.append("source_neighbor_indegree")
            records.append(
                {
                    "n": n,
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


def stream_leaf_deletion(max_n: int):
    """The campaign stream of :func:`check_leaf_deletion`."""
    max_n = _int(max_n, "max_n")
    if not (2 <= max_n <= 9):
        raise TooLargeError("leaf-deletion sweep supports 2 <= max_n <= 9")
    yield "leaf_deletion", {"max_n": max_n}
    bases = [base for n in range(1, max_n + 1) for base in free_trees(n)]
    tables: dict = {}  # chi tables by labelled tree, of sizes n - 1 and n
    n = 1
    counterexamples = []
    instances = 0
    with _shared_steps():
        for base, table in zip(bases, _map_ordered(chi_table, bases)):
            if base.n > n:  # a new size n: no size from n on reads one below n - 1
                n = base.n
                tables = {tree: chis for tree, chis in tables.items() if tree.n == n - 1}
            tables[base] = table
            group = _leafdel_records(base, tables)
            instances += len(group)
            leaves = len(group) >> len(base.edges)  # records run by mask, then by leaf
            for i, rec in enumerate(group):
                if rec["violations"]:
                    if not counterexamples:  # the first one is certified, subtree too
                        t = orient(base, i // leaves)
                        _certify(t, rec["chi"])
                        _certify(delete_leaf(t, rec["leaf"])[0], rec["chi_sub"])
                    counterexamples.append(
                        {"instance": rec["instance"], "leaf": rec["leaf"],
                         "violations": rec["violations"]}
                    )
                yield rec
    return _summary(instances, counterexamples)


def check_leaf_deletion(max_n: int) -> ExperimentReport:
    """Delete every underlying leaf of every orientation of every free tree.

    Records the drop ``delta = chi(T) - chi(T minus leaf)`` and evaluates the
    two deletion predicates: the iff-characterization of delta = 1 (leaf is
    its neighbor's only out-neighbor, or is the unique source) and the
    source-leaf rule (a dropped source leaf's neighbor has in-degree 1).
    Violations are findings; they carry a replayable instance encoding.
    Each free tree gets its :func:`solver.chi_table` as its size comes up,
    and each leaf's subtree reads the table of the labelled tree base - v
    (see :func:`_leaf_maps`).  Only the first counterexample and its
    subtree are built and solved.
    """
    return ExperimentReport.from_stream(stream_leaf_deletion(max_n))


# ---------------------------------------------------------------------------
# generalized-star conjecture exploration


def _gs_record(base: BaseTree, chis: list) -> dict:
    m = len(base.adjacency[0])  # gs_base puts the center at 0
    k = (base.n - 1) // m
    min_mask, max_mask = extreme_masks(chis)
    min_chi, max_chi = chis[min_mask], chis[max_mask]
    min_result = _certify(orient(base, min_mask), min_chi)
    max_result = min_result if max_mask == min_mask else _certify(orient(base, max_mask), max_chi)
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
        "orientations": len(chis),
        "min_chi": min_chi,
        "min_mask": min_mask,
        "min_instance": encode_arcs(base.n, orientation_arcs(base.edges, min_mask)),
        "min_certificate": certificate_to_obj(min_result.certificate),
        "max_chi": max_chi,
        "max_mask": max_mask,
        "max_instance": encode_arcs(base.n, orientation_arcs(base.edges, max_mask)),
        "max_certificate": certificate_to_obj(max_result.certificate),
        "conjectured_min": conjectured_min,
        "min_agrees": min_chi == conjectured_min,
        "conjectured_max": conjectured_max,
        "max_agrees": max_chi == conjectured_max,
        "uniform_chi_out": chis[0],
        "uniform_chi_in": chis[-1],
        "max_at_uniform": max_chi in (chis[0], chis[-1]),
    }


def stream_conjecture_gs(m_max: int, k_max: int, n_cap: int = 10):
    """The campaign stream of :func:`explore_conjecture_gs`."""
    m_max, k_max, n_cap = _int(m_max, "m_max"), _int(k_max, "k_max"), _int(n_cap, "n_cap")
    if not (1 <= n_cap <= 10):
        raise TooLargeError("conjecture exploration supports 1 <= n_cap <= 10")
    bases = [
        gs_base(m, k)
        for m in range(1, m_max + 1)
        for k in range(1, k_max + 1)
        if m * k + 1 <= n_cap
    ]
    if not bases:
        raise SpecInvalidError(
            f"no generalized star with m <= {m_max}, k <= {k_max} and "
            f"m*k + 1 <= {n_cap}"
        )
    yield "gs_minmax", {"m_max": m_max, "k_max": k_max, "n_cap": n_cap}
    keys = ("m", "k", "min_chi", "conjectured_min", "max_chi", "conjectured_max")
    findings = []
    for rec in _from_tables(_gs_record, bases):
        if not rec["min_agrees"] or not rec["max_agrees"]:
            findings.append({key: rec[key] for key in keys})
        yield rec
    return _summary(len(bases), [], findings=findings)


def explore_conjecture_gs(m_max: int, k_max: int, n_cap: int = 10) -> ExperimentReport:
    """Exact min/max over all orientations of each generalized star.

    Agreement with the conjectured extremes is reported per (m, k);
    disagreements are findings, never failures, so the summary always holds
    when the sweep completes and every witness re-verifies.
    """
    return ExperimentReport.from_stream(stream_conjecture_gs(m_max, k_max, n_cap))


# ---------------------------------------------------------------------------
# stars


def _star_records(base: BaseTree, table: list) -> list[dict]:
    m = base.n - 1
    arc_table = _arc_table(base)
    records = []
    uniform_masks = {0, (1 << m) - 1}
    for mask, chi in enumerate(table):
        uniform = mask in uniform_masks
        bits = mask_bits(mask, m)
        texts = [text for i, bit, _, text in arc_table if bits[i] == bit]
        records.append(
            {
                "m": m,
                "mask": mask,
                "instance": _code(m + 1, texts),
                "chi": chi,
                "uniform": uniform,
                "ok": chi == chi_star(mask, m),
            }
        )
    return records


def stream_star_values(m_max: int):
    """The campaign stream of :func:`check_star_values`."""
    m_max = _int(m_max, "m_max")
    if not (1 <= m_max <= 10):
        raise TooLargeError("star sweep supports 1 <= m_max <= 10")
    yield "star_values", {"m_max": m_max}
    counterexamples = []
    instances = 0
    bases = [star(m) for m in range(1, m_max + 1)]
    for base, group in zip(bases, _from_tables(_star_records, bases)):
        instances += len(group)
        for rec in group:
            if not rec["ok"]:
                if not counterexamples:
                    _certify(orient(base, rec["mask"]), rec["chi"])
                counterexamples.append(rec["instance"])
            yield rec
    return _summary(instances, counterexamples)


def check_star_values(m_max: int) -> ExperimentReport:
    """Solve all orientations of stars with up to ``m_max`` leaves.

    Expected: every value lies in {2, 3}, with 2 exactly on the two
    orientations whose arcs all agree.
    """
    return ExperimentReport.from_stream(stream_star_values(m_max))


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
    Raises :class:`SpecInvalidError`, before any draw, when ``samples`` or
    ``spine_min`` is below 1, or when the spine range is empty or every spine
    it allows exceeds ``n_max``, since no draw could then be accepted.
    """
    samples, seed, n_max = _int(samples, "samples"), _int(seed, "seed"), _int(n_max, "n_max")
    spine_min, spine_max = _int(spine_min, "spine_min"), _int(spine_max, "spine_max")
    if samples < 1:
        raise SpecInvalidError(f"samples must be >= 1, got {samples}")
    if spine_min < 1:
        raise SpecInvalidError(f"spine_min must be >= 1, got {spine_min}")
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


def _caterpillar_record(index: int, spec: CaterpillarSpec) -> dict:
    """The record of one caterpillar, its spine read off the spec.  Legs sit
    only on 1..m-2, so the path 0..m-1 is a longest path (the
    lexicographically smallest); ``spine_mask`` orients it, and it is
    directed exactly when that mask is 0 or all ones.  Both constructions
    read their labels off the spec, and are verified on the record's own
    tree, so the tree is built once."""
    t = caterpillar(spec)
    m = spec.spine_len
    chi = solve_exact(t).chi
    chi_spine = solve_exact(orient(path(m), spec.spine_mask)).chi
    upper = _certified(t, _caterpillar_upper_labels(spec))
    directed = spec.spine_mask in (0, (1 << (m - 1)) - 1)
    directed_ok = None
    directed_cert = None
    if directed:
        cert = _certified(t, _directed_spine_labels(spec))
        directed_cert = certificate_to_obj(cert)
        directed_ok = chi == m and cert.coloring.k == m
    lower_ok = chi_spine <= chi
    upper_ok = chi <= upper.coloring.k <= 2 * m - 1
    return {
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
        "spine": list(range(m)),
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


def stream_caterpillar_bounds(
    samples: int, seed: int, n_max: int = 12, spine_min: int = 3, spine_max: int = 8
):
    """The campaign stream of :func:`check_caterpillar_bounds`."""
    params = dict(
        samples=_int(samples, "samples"), seed=_int(seed, "seed"), n_max=_int(n_max, "n_max"),
        spine_min=_int(spine_min, "spine_min"), spine_max=_int(spine_max, "spine_max"),
    )
    specs, skipped = sample_caterpillar_specs(**params)
    yield "caterpillar_bounds", params
    counterexamples = []
    directed_spines = 0
    for index, spec in enumerate(specs):
        rec = _caterpillar_record(index, spec)
        if not rec["ok"]:
            counterexamples.append(rec["instance"])
        directed_spines += rec["spine_directed"]
        yield rec
    return _summary(
        len(specs), counterexamples, skipped=skipped, directed_spines=directed_spines
    )


def check_caterpillar_bounds(
    samples: int, seed: int, n_max: int = 12, spine_min: int = 3, spine_max: int = 8
) -> ExperimentReport:
    """Spine lower bound, 2m-1 upper bound, and directed-spine equality on a
    seeded random sample of oriented caterpillars."""
    return ExperimentReport.from_stream(
        stream_caterpillar_bounds(samples, seed, n_max, spine_min, spine_max)
    )


# ---------------------------------------------------------------------------
# path orientation minimum


def _path_min_record(base: BaseTree, chis: list) -> dict:
    n = base.n
    min_mask, max_mask = extreme_masks(chis)
    min_chi, max_chi = chis[min_mask], chis[max_mask]
    formula = chi_path_orientation_min(n)
    return {
        "n": n,
        "orientations": len(chis),
        "min_chi": min_chi,
        "min_mask": min_mask,
        "min_instance": encode_arcs(n, orientation_arcs(base.edges, min_mask)),
        "max_chi": max_chi,
        "max_mask": max_mask,
        "formula": formula,
        "equal": min_chi == formula,
        "extension": n <= 3,
    }


def stream_path_minimum(n_lo: int = 4, n_hi: int = 13):
    """The campaign stream of :func:`check_path_minimum`."""
    n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
    if not (1 <= n_lo <= n_hi <= 13):
        raise TooLargeError("path sweep supports 1 <= n_lo <= n_hi <= 13")
    yield "path_minimum", {"n_lo": n_lo, "n_hi": n_hi}
    counterexamples = []
    bases = [path(n) for n in range(n_lo, n_hi + 1)]
    for base, rec in zip(bases, _from_tables(_path_min_record, bases)):
        if not rec["equal"]:
            if not counterexamples:
                _certify(orient(base, rec["min_mask"]), rec["min_chi"])
            counterexamples.append(rec["min_instance"])
        yield rec
    return _summary(n_hi - n_lo + 1, counterexamples)


def check_path_minimum(n_lo: int = 4, n_hi: int = 13) -> ExperimentReport:
    """Exact minimum over all orientations of paths versus the closed form.

    Rows with n <= 3 are labeled as extensions of the formula (they come from
    the stored brute-force table rather than the piecewise expression).
    """
    return ExperimentReport.from_stream(stream_path_minimum(n_lo, n_hi))


# ---------------------------------------------------------------------------
# rooted-tree formula


def _rooted_record(base: BaseTree, base_code: str, root: int, sense: str) -> dict:
    t = rooted_orientation(base, root, sense)
    chi = solve_exact(t).chi
    formula = chi_rooted(t)
    leaves = len(t.sinks) if sense == "out" else len(t.sources)
    return {
        "n": base.n,
        "base": base_code,
        "root": root,
        "sense": sense,
        "instance": encode_tree(t),
        "directed_leaves": leaves,
        "formula": formula,
        "chi": chi,
        "equal": chi == formula,
    }


def stream_rooted_formula(max_n: int):
    """The campaign stream of :func:`check_rooted_formula`."""
    max_n = _int(max_n, "max_n")
    if not (1 <= max_n <= 10):
        raise TooLargeError("rooted sweep supports 1 <= max_n <= 10")
    yield "rooted_formula", {"max_n": max_n}
    counterexamples = []
    instances = 0
    for n in range(1, max_n + 1):
        for base in free_trees(n):
            code = encode_base(base)
            for root in range(n):
                for sense in ("out", "in"):
                    rec = _rooted_record(base, code, root, sense)
                    instances += 1
                    if not rec["equal"]:
                        counterexamples.append(rec["instance"])
                    yield rec
    return _summary(instances, counterexamples)


def check_rooted_formula(max_n: int) -> ExperimentReport:
    """Out- and in-orientations from every root of every free tree, solved
    exactly and compared against n - leaves + 1."""
    return ExperimentReport.from_stream(stream_rooted_formula(max_n))
