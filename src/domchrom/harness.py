"""Verification campaigns: exhaustive sweeps with replayable reports.

Each campaign enumerates a finite corpus, solves every instance exactly, and
emits one record per instance that carries the instance's compact code, so
each record replays on its own.  A counterexample never aborts a sweep; it
lands in the summary and flips the ``holds`` flag.  Instances are
independent, so campaigns parallelize over processes; :func:`_map_ordered`
yields the workers' records in enumeration order while the pool runs, which
makes reports byte-identical for any job count.

Each campaign is a stream (``stream_*``, see :mod:`reports`): it checks its
parameters, yields its name and params, then each record as the ordered map
yields it, and returns its summary, whose counterexamples and other findings
it folds as the records pass.  The CLI writes a stream's records as they
arrive; each ``check_*`` function collects its stream into an
:class:`ExperimentReport`.

Workers receive tree values that the parent has already built and validated,
never codes to parse: a base tree (with its code or its orientation tables
where the records need them), alone or with a root, or a caterpillar spec.
Unpickling a frozen dataclass skips ``__post_init__``, so a worker does not
re-validate its payload; that is safe because every payload tree comes from
this package's own validating constructors (``free_trees``,
``CaterpillarSpec``).

Five campaigns name every orientation of a base tree, and chi does not
change under directed isomorphism.  :func:`class_table` is the only place
that orients and solves them: it returns one value per mask, its caller's
``fact`` applied to the orientation of the first mask of that mask's class
(``orientation_classes``), so only one orientation per class is built.  A
record reads its instance code off the base edges and the mask
(``orientation_arcs``) and its values from the table by mask, and builds
nothing.  The reversal-invariance, generalized-star, star and path-minimum
campaigns make one table per base tree in the worker that writes its
records.  Solves per orientations named: 7,600 of 15,944 at n <= 9, 935 of
3,210 for generalized stars with n <= 10, 64 of 2,046 for stars with
m <= 10, and 4,154 of 8,184 for paths with n = 4..13.

The leaf-deletion campaign first makes the table of every free tree with
n <= ``max_n`` (1,857 solves at n <= 8, one per class).  A subtree
``delete_leaf(orient(base, mask), v)`` is an orientation of the free tree R
isomorphic to base - v; :func:`_leaf_maps` finds, once per base tree and
leaf, a canonical labelling of base - v onto R and with it the mask of R that
each mask of base leaves, so every chi a record names is one table lookup,
with no canonical code and no subtree built.  The predicates come from the
in- and out-degrees of the arcs.  The tables live for one call, so no memo
outlives a campaign.  The caterpillar and rooted-formula campaigns solve
each tree they meet once; a caterpillar record and both constructions it
checks read the spine and the legs off the spec, so nothing searches for a
longest path, and both constructions are verified on the one tree the record
builds.  Star and rooted-tree values come from :mod:`formulas` alone.  Every
solve is re-verified by its certificate check.
"""

from __future__ import annotations

import random
from functools import partial

from .errors import NotRootedError, SpecInvalidError, TooLargeError, _int
from .formulas import (
    _caterpillar_upper_labels,
    _certified,
    _directed_spine_labels,
    chi_path_orientation_min,
    chi_rooted,
    chi_star,
    gs_uniform_chi,
)
from .generators import (
    CaterpillarSpec,
    _relabeled,
    canonical_labels,
    caterpillar,
    free_trees,
    gs_base,
    orient,
    orientation_arcs,
    orientation_classes,
    path,
    rooted_orientation,
    star,
)
from .io import certificate_to_obj, encode_arcs, encode_base, encode_tree
from .io import decode_tree  # unused here; perfbench/tracing.py wraps this name
from .reports import ExperimentReport
from .solver import solve_exact
from .trees import BaseTree, OrientedTree
from .trees import delete_leaf  # unused here; perfbench/tracing.py wraps this name


def _map_ordered(fn, payloads: list, jobs: int):
    """Yield ``fn`` of each payload in payload order.  Above one job, a
    process pool computes them in chunks and stays open while the consumer
    reads; a consumer that stops early cancels the chunks not yet started."""
    jobs = _int(jobs, "jobs", ValueError)
    if jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if jobs == 1 or len(payloads) <= 1:
        yield from map(fn, payloads)
        return
    # imported here, so that importing the package loads no process pool
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(payloads) // (jobs * 4))
    # a forking pool starts every worker at its first submit, so it asks for
    # no more workers than there are payloads
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(payloads)))
    try:
        yield from pool.map(fn, payloads, chunksize=chunk)
    finally:
        pool.shutdown(cancel_futures=True)


def _summary(instances: int, counterexamples: list, **extra) -> dict:
    """A campaign's summary; it holds exactly when no counterexample was
    found, and carries ``extra`` beside the instance count."""
    return {
        "instances": instances,
        "counterexamples": counterexamples,
        "holds": not counterexamples,
        **extra,
    }


def _chi(t: OrientedTree) -> int:
    return solve_exact(t).chi


def class_table(base: BaseTree, fact) -> list:
    """``fact`` of every orientation of ``base``, by mask; ``fact`` must be
    invariant under directed isomorphism.  Only the first mask of each class
    of :func:`generators.orientation_classes` is oriented and solved, so the
    entry of the first mask of a class, such as the first mask with a given
    value, is ``fact`` of its own orientation, and every mask of the class
    shares that object."""
    facts = []
    table = []
    for mask, cls in enumerate(orientation_classes(base)):
        if cls == len(facts):  # classes are numbered by first mask
            facts.append(fact(orient(base, mask)))
        table.append(facts[cls])
    return table


def extreme_masks(values: list) -> tuple[int, int]:
    """The first mask with the least value of a per-mask table, and the first
    with the greatest.  Masks of one class share one value, so neither has an
    earlier mask in its class: each is the first mask of its class, and its
    :func:`class_table` entry is ``fact`` of its own orientation."""
    return values.index(min(values)), values.index(max(values))


def _chi_and_rooted(t: OrientedTree) -> tuple[int, int | None]:
    """chi of ``t`` and the rooted formula (None unless an out- or in-tree)."""
    try:
        formula = chi_rooted(t)
    except NotRootedError:
        formula = None
    return _chi(t), formula


# ---------------------------------------------------------------------------
# reversal invariance


def _invariance_record(base: BaseTree, base_code: str, mask: int, table: list) -> dict:
    """The record of ``mask`` and its complement, read from the table of
    ``base`` (see :func:`class_table`); nothing is built."""
    n = base.n
    mask_rev = mask ^ ((1 << len(base.edges)) - 1)
    chi, formula = table[mask]
    chi_rev = table[mask_rev][0]
    record = {
        "n": n,
        "base": base_code,
        "mask": mask,
        "mask_rev": mask_rev,
        "instance": encode_arcs(n, orientation_arcs(base.edges, mask)),
        "instance_rev": encode_arcs(n, orientation_arcs(base.edges, mask_rev)),
        "chi": chi,
        "chi_rev": chi_rev,
        "equal": chi == chi_rev,
    }
    if formula is not None:
        record["rooted_formula"] = formula
        record["rooted_ok"] = formula == chi
    return record


def _invariance_records(payload: tuple[BaseTree, str]) -> list[dict]:
    """The records of one base tree, one per mask below its complement."""
    base, base_code = payload
    table = class_table(base, _chi_and_rooted)
    return [
        _invariance_record(base, base_code, mask, table)
        for mask in range((len(table) + 1) // 2)
    ]


def stream_reversal_invariance(max_n: int, jobs: int = 1):
    """The campaign stream of :func:`check_reversal_invariance`."""
    max_n = _int(max_n, "max_n")
    if not (1 <= max_n <= 10):
        raise TooLargeError("reversal sweep supports 1 <= max_n <= 10")
    yield "reversal_invariance", {"max_n": max_n}
    payloads = [
        (base, encode_base(base)) for n in range(1, max_n + 1) for base in free_trees(n)
    ]
    counterexamples = []
    max_chi = -1
    max_instance = ""
    instances = 0
    for group in _map_ordered(_invariance_records, payloads, jobs):
        instances += len(group)
        for rec in group:
            if not rec["equal"] or not rec.get("rooted_ok", True):
                counterexamples.append(rec["instance"])
            for key, inst in (("chi", "instance"), ("chi_rev", "instance_rev")):
                if rec[key] > max_chi:
                    max_chi = rec[key]
                    max_instance = rec[inst]
            yield rec
    return _summary(
        instances, counterexamples, max_chi=max_chi, max_chi_instance=max_instance
    )


def check_reversal_invariance(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Compare chi of every orientation of every free tree up to ``max_n``
    with chi of its reversal.

    Complementary masks are mutual reversals, so each record covers one
    mask/complement pair, and every orientation is named by exactly one
    record.  Only one orientation per directed-isomorphism class is built
    and solved: :func:`generators.orientation_classes` gives each mask of a
    base tree its class, and the other members of the class take that chi.
    At n <= 9 that is 7,600 solves for the 15,944 orientations the records
    name.
    """
    return ExperimentReport.from_stream(stream_reversal_invariance(max_n, jobs))


# ---------------------------------------------------------------------------
# leaf deletion


def _leaf_maps(base: BaseTree, tables: dict) -> list[tuple]:
    """How each underlying leaf v of ``base`` (n >= 2), in vertex order,
    reads chi of ``delete_leaf(orient(base, mask), v)`` from ``tables``.

    ``tables`` maps every free tree of size n - 1 to its :func:`class_table`.
    A canonical labelling maps base - v (relabelled as :func:`delete_leaf`
    does) onto its representative R, so each remaining edge i of ``base``
    lands on edge p of R, reversed when the labelling swaps its ends.  The
    entry is ``(v, neighbor, table, flips, moves)``, ``table`` being R's: the
    subtree is ``orient(R, m)`` with ``m = flips`` xor bit i of the mask moved
    to bit p, for every ``(i, p)`` in ``moves`` (:func:`_sub_mask`).
    """
    n = base.n
    maps = []
    for v, nbrs in enumerate(base.adjacency):
        if len(nbrs) != 1:
            continue
        kept = [
            (i, (a - (a > v), b - (b > v)))
            for i, (a, b) in enumerate(base.edges)
            if v != a and v != b
        ]
        # the relabelling keeps the vertex order, so the kept edges stay sorted
        sub = BaseTree._trusted(n - 1, tuple(edge for _, edge in kept))
        label = canonical_labels(sub)
        rep = _relabeled(sub, label)
        position = {edge: p for p, edge in enumerate(rep.edges)}
        flips = 0
        moves = []
        for i, (a, b) in kept:
            a, b = label[a], label[b]
            p = position[(a, b) if a < b else (b, a)]
            flips |= (a > b) << p
            moves.append((i, p))
        maps.append((v, nbrs[0], tables[rep], flips, moves))
    return maps


def _sub_mask(mask: int, flips: int, moves: list[tuple[int, int]]) -> int:
    """The mask of R that one entry of :func:`_leaf_maps` gives ``mask``."""
    for i, p in moves:
        flips ^= (mask >> i & 1) << p
    return flips


def _leafdel_records(payload: tuple[BaseTree, list, list]) -> list[dict]:
    """The records of every orientation of one base tree, in mask order and
    then leaf order; chi of the instance and of each subtree comes from the
    tables, and the predicates from the in- and out-degrees."""
    base, table, leaf_maps = payload
    n = base.n
    degree = [len(nbrs) for nbrs in base.adjacency]
    records = []
    for mask, chi in enumerate(table):
        arcs = orientation_arcs(base.edges, mask)
        instance = encode_arcs(n, arcs)
        outdeg = [0] * n
        for a, _ in arcs:
            outdeg[a] += 1
        indeg = [d - o for d, o in zip(degree, outdeg)]
        lone_source = indeg.index(0) if indeg.count(0) == 1 else -1
        for v, u, sub_table, flips, moves in leaf_maps:
            chi_sub = sub_table[_sub_mask(mask, flips, moves)]
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


def stream_leaf_deletion(max_n: int, jobs: int = 1):
    """The campaign stream of :func:`check_leaf_deletion`."""
    max_n = _int(max_n, "max_n")
    if not (2 <= max_n <= 9):
        raise TooLargeError("leaf-deletion sweep supports 2 <= max_n <= 9")
    yield "leaf_deletion", {"max_n": max_n}
    bases = [base for n in range(1, max_n + 1) for base in free_trees(n)]
    tables = dict(zip(bases, _map_ordered(partial(class_table, fact=_chi), bases, jobs)))
    payloads = [
        (base, tables[base], _leaf_maps(base, tables)) for base in bases if base.n > 1
    ]
    counterexamples = []
    instances = 0
    for group in _map_ordered(_leafdel_records, payloads, jobs):
        instances += len(group)
        for rec in group:
            if rec["violations"]:
                counterexamples.append(
                    {"instance": rec["instance"], "leaf": rec["leaf"],
                     "violations": rec["violations"]}
                )
            yield rec
    return _summary(instances, counterexamples)


def check_leaf_deletion(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Delete every underlying leaf of every orientation of every free tree.

    Records the drop ``delta = chi(T) - chi(T minus leaf)`` and evaluates the
    two deletion predicates: the iff-characterization of delta = 1 (leaf is
    its neighbor's only out-neighbor, or is the unique source) and the
    source-leaf rule (a dropped source leaf's neighbor has in-degree 1).
    Violations are findings; they carry a replayable instance encoding.
    Every free tree with n <= ``max_n`` gets its :func:`class_table` first,
    one solve per directed-isomorphism class; every chi a record names, its
    subtree's included, is then read from those tables by mask.
    """
    return ExperimentReport.from_stream(stream_leaf_deletion(max_n, jobs))


# ---------------------------------------------------------------------------
# generalized-star conjecture exploration


def _gs_record(payload: tuple[int, int]) -> dict:
    m, k = payload
    base = gs_base(m, k)
    results = class_table(base, solve_exact)
    chis = [result.chi for result in results]
    min_mask, max_mask = extreme_masks(chis)
    min_chi, max_chi = chis[min_mask], chis[max_mask]
    min_result, max_result = results[min_mask], results[max_mask]
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
        "orientations": len(results),
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


def stream_conjecture_gs(m_max: int, k_max: int, n_cap: int = 10, jobs: int = 1):
    """The campaign stream of :func:`explore_conjecture_gs`."""
    m_max, k_max, n_cap = _int(m_max, "m_max"), _int(k_max, "k_max"), _int(n_cap, "n_cap")
    if not (1 <= n_cap <= 10):
        raise TooLargeError("conjecture exploration supports n_cap <= 10")
    payloads = [
        (m, k)
        for m in range(1, m_max + 1)
        for k in range(1, k_max + 1)
        if m * k + 1 <= n_cap
    ]
    if not payloads:
        raise SpecInvalidError(
            f"no generalized star with m <= {m_max}, k <= {k_max} and "
            f"m*k + 1 <= {n_cap}"
        )
    yield "gs_minmax", {"m_max": m_max, "k_max": k_max, "n_cap": n_cap}
    keys = ("m", "k", "min_chi", "conjectured_min", "max_chi", "conjectured_max")
    findings = []
    for rec in _map_ordered(_gs_record, payloads, jobs):
        if not rec["min_agrees"] or not rec["max_agrees"]:
            findings.append({key: rec[key] for key in keys})
        yield rec
    return _summary(len(payloads), [], findings=findings)


def explore_conjecture_gs(
    m_max: int, k_max: int, n_cap: int = 10, jobs: int = 1
) -> ExperimentReport:
    """Exact min/max over all orientations of each generalized star.

    Agreement with the conjectured extremes is reported per (m, k);
    disagreements are findings, never failures, so the summary always holds
    when the sweep completes and every witness re-verifies.
    """
    return ExperimentReport.from_stream(stream_conjecture_gs(m_max, k_max, n_cap, jobs))


# ---------------------------------------------------------------------------
# stars


def _star_records(payload: int) -> list[dict]:
    m = payload
    base = star(m)
    records = []
    uniform_masks = {0, (1 << m) - 1}
    for mask, chi in enumerate(class_table(base, _chi)):
        uniform = mask in uniform_masks
        records.append(
            {
                "m": m,
                "mask": mask,
                "instance": encode_arcs(m + 1, orientation_arcs(base.edges, mask)),
                "chi": chi,
                "uniform": uniform,
                "ok": chi == chi_star(mask, m),
            }
        )
    return records


def stream_star_values(m_max: int, jobs: int = 1):
    """The campaign stream of :func:`check_star_values`."""
    m_max = _int(m_max, "m_max")
    if not (1 <= m_max <= 10):
        raise TooLargeError("star sweep supports 1 <= m_max <= 10")
    yield "star_values", {"m_max": m_max}
    counterexamples = []
    instances = 0
    for group in _map_ordered(_star_records, list(range(1, m_max + 1)), jobs):
        instances += len(group)
        for rec in group:
            if not rec["ok"]:
                counterexamples.append(rec["instance"])
            yield rec
    return _summary(instances, counterexamples)


def check_star_values(m_max: int, jobs: int = 1) -> ExperimentReport:
    """Solve all orientations of stars with up to ``m_max`` leaves.

    Expected: every value lies in {2, 3}, with 2 exactly on the two
    orientations whose arcs all agree.
    """
    return ExperimentReport.from_stream(stream_star_values(m_max, jobs))


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
    Raises :class:`SpecInvalidError` when ``samples`` is below 1, or when the
    spine range is empty or every spine it allows exceeds ``n_max``, since no
    draw could then be accepted.
    """
    samples, n_max = _int(samples, "samples"), _int(n_max, "n_max")
    spine_min, spine_max = _int(spine_min, "spine_min"), _int(spine_max, "spine_max")
    if samples < 1:
        raise SpecInvalidError(f"samples must be >= 1, got {samples}")
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
    """The record of one caterpillar, its spine read off the spec.  Legs sit
    only on 1..m-2, so the path 0..m-1 is a longest path (the
    lexicographically smallest); ``spine_mask`` orients it, and it is
    directed exactly when that mask is 0 or all ones.  Both constructions
    read their labels off the spec, and are verified on the record's own
    tree, so the tree is built once."""
    index, spec = payload
    t = caterpillar(spec)
    m = spec.spine_len
    chi = _chi(t)
    chi_spine = _chi(orient(path(m), spec.spine_mask))
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
    samples: int,
    seed: int,
    n_max: int = 12,
    spine_min: int = 3,
    spine_max: int = 8,
    jobs: int = 1,
):
    """The campaign stream of :func:`check_caterpillar_bounds`."""
    params = dict(
        samples=_int(samples, "samples"), seed=seed, n_max=_int(n_max, "n_max"),
        spine_min=_int(spine_min, "spine_min"), spine_max=_int(spine_max, "spine_max"),
    )
    specs, skipped = sample_caterpillar_specs(**params)
    yield "caterpillar_bounds", params
    counterexamples = []
    directed_spines = 0
    for rec in _map_ordered(_caterpillar_record, list(enumerate(specs)), jobs):
        if not rec["ok"]:
            counterexamples.append(rec["instance"])
        directed_spines += rec["spine_directed"]
        yield rec
    return _summary(
        len(specs), counterexamples, skipped=skipped, directed_spines=directed_spines
    )


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
    return ExperimentReport.from_stream(
        stream_caterpillar_bounds(samples, seed, n_max, spine_min, spine_max, jobs)
    )


# ---------------------------------------------------------------------------
# path orientation minimum


def _path_min_record(payload: int) -> dict:
    n = payload
    base = path(n)
    chis = class_table(base, _chi)
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


def stream_path_minimum(n_lo: int = 4, n_hi: int = 13, jobs: int = 1):
    """The campaign stream of :func:`check_path_minimum`."""
    n_lo, n_hi = _int(n_lo, "n_lo"), _int(n_hi, "n_hi")
    if not (1 <= n_lo <= n_hi <= 13):
        raise TooLargeError("path sweep supports 1 <= n_lo <= n_hi <= 13")
    yield "path_minimum", {"n_lo": n_lo, "n_hi": n_hi}
    counterexamples = []
    for rec in _map_ordered(_path_min_record, list(range(n_lo, n_hi + 1)), jobs):
        if not rec["equal"]:
            counterexamples.append(rec["min_instance"])
        yield rec
    return _summary(n_hi - n_lo + 1, counterexamples)


def check_path_minimum(n_lo: int = 4, n_hi: int = 13, jobs: int = 1) -> ExperimentReport:
    """Exact minimum over all orientations of paths versus the closed form.

    Rows with n <= 3 are labeled as extensions of the formula (they come from
    the stored brute-force table rather than the piecewise expression).
    """
    return ExperimentReport.from_stream(stream_path_minimum(n_lo, n_hi, jobs))


# ---------------------------------------------------------------------------
# rooted-tree formula


def _rooted_record(payload: tuple[BaseTree, str, int, str]) -> dict:
    base, base_code, root, sense = payload
    t = rooted_orientation(base, root, sense)
    chi = _chi(t)
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


def stream_rooted_formula(max_n: int, jobs: int = 1):
    """The campaign stream of :func:`check_rooted_formula`."""
    max_n = _int(max_n, "max_n")
    if not (1 <= max_n <= 10):
        raise TooLargeError("rooted sweep supports 1 <= max_n <= 10")
    yield "rooted_formula", {"max_n": max_n}
    payloads = []
    for n in range(1, max_n + 1):
        for base in free_trees(n):
            code = encode_base(base)
            for root in range(n):
                for sense in ("out", "in"):
                    payloads.append((base, code, root, sense))
    counterexamples = []
    for rec in _map_ordered(_rooted_record, payloads, jobs):
        if not rec["equal"]:
            counterexamples.append(rec["instance"])
        yield rec
    return _summary(len(payloads), counterexamples)


def check_rooted_formula(max_n: int, jobs: int = 1) -> ExperimentReport:
    """Out- and in-orientations from every root of every free tree, solved
    exactly and compared against n - leaves + 1."""
    return ExperimentReport.from_stream(stream_rooted_formula(max_n, jobs))
