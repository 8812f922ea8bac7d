"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``), runs one closed-loop
pass over them (``run_pass``, the timed region) and checks that pass's output
against the values recorded in ``expected.json`` (``check``).  Checks run
outside the timed region.  README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from domchrom import cli, generators, harness, solver
from domchrom.coloring import recheck_certificate
from domchrom.errors import BudgetExhaustedError

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
EXPECTED_PATH = HERE / "expected.json"

RANDOM_TREES = 8000
RANDOM_N = (10, 14)
CORPUS_SEEDS = 100
JOB_EVERY = 250  # trees between host-speed jobs inside a solve-random pass
NODE_BUDGET = 10**6
LEAFDEL_MAX_N = 8
INVARIANCE_ARGV = ["invariance", "--max-n", "9", "--jobs", "2"]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Pass:
    """One pass: its wall time, what it produced and, after ``check``, how
    many operations it attempted and which of them failed."""

    wall_s: float
    output: object
    latencies_s: list[float] = field(default_factory=list)
    job_s: float = 0.0  # mean host-speed job time during or around the pass
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""


def random_corpus(seed: int) -> list:
    """RANDOM_TREES uniform random labeled trees, n uniform in RANDOM_N, each
    with a uniform random orientation mask.  Seeds are taken modulo
    CORPUS_SEEDS, so every seed draws a corpus whose χ digest is recorded."""
    rng = random.Random(seed % CORPUS_SEEDS)
    corpus = []
    for _ in range(RANDOM_TREES):
        n = rng.randint(*RANDOM_N)
        base = generators.random_tree(n, rng.getrandbits(32))
        corpus.append(generators.orient(base, rng.getrandbits(n - 1)))
    return corpus


def chi_digest(chis: list[int]) -> str:
    return sha256(",".join(map(str, chis)).encode())


def corpus_shape() -> dict:
    """What ``expected.json`` must record for its χ digests to apply."""
    return {"trees": RANDOM_TREES, "n": list(RANDOM_N), "seeds": CORPUS_SEEDS}


class ExpectedMismatch(Exception):
    """``expected.json`` was recorded for other workload inputs."""


class SolveRandom:
    """``solve_exact`` on a seeded corpus of random oriented trees."""

    name = "solve-random"
    samples_host_speed = True

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed
        recorded = expected[self.name]
        shape = {key: recorded.get(key) for key in corpus_shape()}
        if shape != corpus_shape():
            raise ExpectedMismatch(
                f"expected.json records the corpus {shape}, the benchmark draws "
                f"{corpus_shape()}; run record_expected.py"
            )
        self.expected_digest = recorded["chi_sha256"].get(str(seed % CORPUS_SEEDS))
        self.trees: list = []
        self.first_digest: str | None = None

    def setup(self) -> None:
        self.trees = random_corpus(self.seed)

    def run_pass(self) -> Pass:
        solve = solver.solve_exact  # looked up per pass, so a tracer can wrap it
        opts = solver.SolveOptions(node_budget=NODE_BUDGET)
        clock = time.perf_counter
        results = []
        latencies = []
        jobs = []
        start = clock()
        for i, t in enumerate(self.trees):
            if i % JOB_EVERY == 0:
                # The host's speed drifts within a pass, so sample it
                # throughout; the job's time is not part of the pass.
                jobs.append(hostspeed.measure(1))
            t0 = clock()
            try:
                results.append(solve(t, opts))
            except BudgetExhaustedError:
                results.append(None)
            latencies.append(clock() - t0)
        wall = clock() - start - sum(jobs)
        return Pass(wall, results, latencies, job_s=sum(jobs) / len(jobs))

    def check(self, p: Pass) -> None:
        """Every solve must finish within the budget with a certificate that
        passes its recheck; the chi sequence must match the recorded digest
        and every earlier pass."""
        chis = []
        for i, (t, res) in enumerate(zip(self.trees, p.output)):
            if res is None:
                p.failures.append(f"tree {i}: node budget {NODE_BUDGET} exhausted")
                chis.append(0)
                continue
            if res.chi != res.certificate.k or not recheck_certificate(t, res.certificate):
                p.failures.append(f"tree {i}: certificate fails its recheck")
            chis.append(res.chi)
        p.attempted = len(p.output)
        p.digest = chi_digest(chis)
        if self.expected_digest is None:
            p.failures.append(f"no chi digest recorded for corpus {self.seed % CORPUS_SEEDS}")
        elif p.digest != self.expected_digest:
            p.failures.append("chi sequence differs from the recorded digest")
        if self.first_digest is None:
            self.first_digest = p.digest
        elif p.digest != self.first_digest:
            p.failures.append("chi sequence differs from the first pass")

    def facts(self, p: Pass) -> dict:
        return {"instances": len(self.trees), "solves": len(self.trees), "records": 0,
                "corpus": self.seed % CORPUS_SEEDS}


class LeafDeletion:
    """The leaf-deletion campaign (n <= 8) in-process, report serialized."""

    name = "leafdel"
    samples_host_speed = False

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed  # exhaustive campaign: nothing to draw
        self.expected = expected.get(self.name)

    def setup(self) -> None:
        pass

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        report = harness.check_leaf_deletion(LEAFDEL_MAX_N)
        text = report.to_json()
        return Pass(time.perf_counter() - start, (report, text))

    def check(self, p: Pass) -> None:
        report, text = p.output
        p.attempted = 1
        p.digest = sha256(text.encode())
        if p.digest != self.expected["sha256"]:
            p.failures.append("leafdel report digest differs from the recorded one")
        if len(report.counterexamples) != self.expected["counterexamples"]:
            p.failures.append(
                f"leafdel counterexamples {len(report.counterexamples)}, "
                f"recorded {self.expected['counterexamples']}"
            )

    def facts(self, p: Pass) -> dict:
        report, _ = p.output
        instances = len({rec["instance"] for rec in report.records})
        # One solve per instance and one per leaf-deleted subtree (= record).
        return {"instances": instances, "solves": instances + len(report.records),
                "records": len(report.records)}


class InvarianceCli:
    """The reversal-invariance campaign (n <= 9) through the CLI with a
    two-process pool, the report written to a file."""

    name = "invariance-cli"
    samples_host_speed = False

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed  # exhaustive campaign: nothing to draw
        self.expected = expected.get(self.name)
        self.output = RESULTS / f"invariance-{os.getpid()}.json"

    def setup(self) -> None:
        RESULTS.mkdir(exist_ok=True)

    def run_pass(self) -> Pass:
        argv = INVARIANCE_ARGV + ["--output", str(self.output)]
        start = time.perf_counter()
        code = cli.cli_main(argv)
        wall = time.perf_counter() - start
        data = self.output.read_bytes()
        self.output.unlink()
        return Pass(wall, (code, data))

    def check(self, p: Pass) -> None:
        code, data = p.output
        p.attempted = 1
        p.digest = sha256(data)
        summary = json.loads(data)["summary"]
        if code != self.expected["exit_code"]:
            p.failures.append(f"cli exit code {code}, recorded {self.expected['exit_code']}")
        if p.digest != self.expected["sha256"]:
            p.failures.append("invariance report digest differs from the recorded one")
        if len(summary["counterexamples"]) != self.expected["counterexamples"]:
            p.failures.append(
                f"invariance counterexamples {len(summary['counterexamples'])}, "
                f"recorded {self.expected['counterexamples']}"
            )

    def facts(self, p: Pass) -> dict:
        records = json.loads(p.output[1])["summary"]["instances"]
        # Each record solves one orientation and its reversal.
        return {"instances": 2 * records, "solves": 2 * records, "records": records}


WORKLOADS = {w.name: w for w in (SolveRandom, LeafDeletion, InvarianceCli)}


def quantile_ms(values: list[float], q: int) -> float:
    """The q-th percentile of ``values`` (seconds) in milliseconds."""
    return statistics.quantiles(values, n=100)[q - 1] * 1e3
