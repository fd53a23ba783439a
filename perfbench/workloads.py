"""The benchmark's four workloads: seeded inputs, operations and answer checks.

Each workload turns a seed into a pool of instances.  An instance is one
``mc4.cli.main`` argument list (the operation) and what a correct answer
looks like.  Inputs are written before the operation
process starts, and answers are checked after it ends, so neither is timed.

- m99-planted: planted-consistent networks labelled inside M99.
- dense-random: ``random_network(n, 0.5, palette)``, two M99 instances to
  each M81 one; each instance carries its own proof of inconsistency.
- general-planted: planted-consistent networks over all 14 non-trivial
  labels, whose profile classifies as NP-hard.
- gen-write: ``mc4 gen`` writing a random M99 network to a file.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import planted
from mc4.algebra import EMPTY, UNIVERSAL, Relation, RelationSet
from mc4.network import ConstraintNetwork, parse_network, random_network
from mc4.solvers import Scenario, is_valid_scenario
from mc4.subalgebra import M81, M99, Kind, classify

_TOKENS = ("CG", "CGPP", "CGPPi", "CNO")
_FORMAT = ["|".join(t for k, t in enumerate(_TOKENS) if c >> k & 1) for c in range(16)]
_FORMAT[0] = "NONE"


# Instances per run.  A 12-second run makes 110 to 200 operations, so most
# of them run an instance of their own and the median does not hang on a
# few hard instances of one seed.
POOL = 120


@dataclass(frozen=True)
class Workload:
    name: str
    n: int


# Sizes keep one operation near 0.05-0.1 reference seconds (calibrate.py), so
# a 12-second run holds the 110 operations that give p90 ten samples beyond
# it even while the host runs the benchmark at its slower speed.  m99-planted
# is the exception at about 0.11 s: its operation time has one mode per
# number of forcing rounds, and at n=200 about half the instances need three
# rounds, with a quarter on either side, so the median lies inside one mode.
# At n=160 two and three rounds come about equally often, and the median of
# a run jumped between the two modes from seed to seed.
# BENCHMARK.json records why each workload is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("m99-planted", 200),
        Workload("dense-random", 350),
        Workload("general-planted", 20),
        Workload("gen-write", 400),
    )
}


@dataclass
class Instance:
    argv: list[str]
    path: Path                  # network read, or (gen-write) written
    labels: np.ndarray          # label matrix the answer is checked against
    expect_consistent: bool | None  # None for gen-write, which decides nothing

    @property
    def writes(self) -> bool:
        return self.expect_consistent is None


def catalog_palette(catalog: RelationSet) -> tuple[Relation, ...]:
    """A catalog's labels minus NONE and ALL, as ``mc4 gen --palette`` takes it."""
    return tuple(r for r in catalog if r not in (EMPTY, UNIVERSAL))


def network_text(labels: np.ndarray) -> str:
    """Canonical text of a label matrix: a nodes line, then each non-ALL pair
    once, in the same form ``serialize_network`` writes."""
    n = len(labels)
    names = [f"v{k}" for k in range(n)]
    rows, cols = np.triu_indices(n, k=1)
    codes = labels[rows, cols]
    keep = codes != planted.ALL
    lines = ["nodes: " + " ".join(names)]
    lines += [
        f"{names[i]} {names[j]} : {_FORMAT[c]}"
        for i, j, c in zip(rows[keep].tolist(), cols[keep].tolist(), codes[keep].tolist())
    ]
    return "\n".join(lines) + "\n"


def _profile_kind(labels: np.ndarray) -> Kind:
    codes = np.unique(labels[np.triu_indices(len(labels), k=1)])
    return classify(RelationSet(sum(1 << int(c) for c in codes))).kind


def inconsistency_proof(labels: np.ndarray) -> tuple[int, int] | None:
    """A pair (i, j) proving the network inconsistent, or None.

    Arcs i -> j whose label lies inside CG|CGPP force i to fit inside or
    match j, so every strong component of those arcs is forced congruent;
    a pair inside one component whose label excludes CG is a contradiction.
    """
    n = len(labels)
    leq = (labels != 0) & ((labels & ~np.uint8(3)) == 0)
    np.fill_diagonal(leq, False)
    src, dst = np.nonzero(leq)
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    _, comp = connected_components(graph, directed=True, connection="strong")
    clash = (comp[:, None] == comp[None, :]) & ((labels & 1) == 0)
    np.fill_diagonal(clash, False)
    hits = np.argwhere(clash)
    return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None


def _rng(seed: int, workload: str, k: int, attempt: int) -> np.random.Generator:
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng([seed, tag, k, attempt])


def make_instances(name: str, seed: int, workdir: Path) -> list[Instance]:
    """Seeded input pool of one workload, written under workdir."""
    w = WORKLOADS[name]
    out = []
    for k in range(POOL):
        path = workdir / f"{name}-{k}.net"
        for attempt in range(100):
            rng = _rng(seed, name, k, attempt)
            if name == "m99-planted":
                labels, _ = planted.planted_network(w.n, planted.M99_PALETTE, rng)
                ok = _profile_kind(labels) is Kind.MAX_M99
                expect = True
            elif name == "general-planted":
                labels, _ = planted.planted_network(w.n, planted.GENERAL_PALETTE, rng)
                ok = _profile_kind(labels) is Kind.NP_HARD
                expect = True
            elif name == "dense-random":
                # One instance in three uses M81: its operations are about a
                # fifth faster, and with a 1:1 mix the median latency would
                # jump between the two modes from run to run.
                palette = catalog_palette(M81 if k % 3 == 2 else M99)
                labels = random_network(w.n, 0.5, palette, rng=rng).to_array()
                ok = inconsistency_proof(labels) is not None
                expect = False
            else:
                gen_seed = int(rng.integers(0, 2**31))
                palette = catalog_palette(M99)
                labels = random_network(w.n, 0.5, palette, rng=gen_seed).to_array()
                ok = True
                expect = None
            if ok:
                break
        else:
            raise RuntimeError(f"{name}: no valid instance {k} for seed {seed}")
        if name == "gen-write":
            argv = ["gen", str(w.n), "--palette", "m99", "--density", "0.5",
                    "--seed", str(gen_seed), "--out", str(path)]
        else:
            path.write_text(network_text(labels))
            argv = ["solve", str(path), "--json"]
        out.append(Instance(argv, path, labels, expect))
    return out


def check_answer(inst: Instance, rc: int, output: str) -> str | None:
    """None if a solve operation answered correctly, else what went wrong."""
    try:
        verdict = json.loads(output)
    except json.JSONDecodeError:
        return f"unreadable output (exit {rc}): {output[:200]!r}"
    want = inst.expect_consistent
    if verdict.get("consistent") is not want or rc != (0 if want else 1):
        return f"verdict consistent={verdict.get('consistent')} exit {rc}, expected {want}"
    scenario = verdict.get("scenario")
    if scenario is not None:
        net = ConstraintNetwork([f"v{k}" for k in range(len(inst.labels))])
        net._m[:] = inst.labels
        pairs = tuple(tuple(p) for p in scenario["pairs"])
        if not is_valid_scenario(net, Scenario(pairs)):
            return "returned scenario fails is_valid_scenario"
    return None


def check_written(inst: Instance) -> str | None:
    """None if the file gen wrote parses back to the generated labels.

    A file identical to the canonical text of those labels passes without
    parsing; any other file is parsed with mc4 and compared label by label.
    """
    text = inst.path.read_text()
    if text == network_text(inst.labels):
        return None
    got = parse_network(text).to_array()
    if got.shape != inst.labels.shape or not np.array_equal(got, inst.labels):
        return "written network does not parse back to the generated labels"
    return None


def check_ops(instances: list[Instance], result: dict) -> list[str | None]:
    """Per operation of a worker result: None if it ran and answered
    correctly, else what went wrong."""
    verdicts = []
    answers: dict[tuple, str | None] = {}
    written: dict[int, tuple[str | None, str]] = {}
    for op in result["ops"]:
        k = op["inst"]
        inst = instances[k]
        if op["err"] is not None:
            problem = op["err"]
        elif inst.writes:
            # The final file is checked once; every write must match its bytes.
            if k not in written:
                data = inst.path.read_bytes()
                written[k] = (check_written(inst), f"{zlib.crc32(data):08x}:{len(data)}")
            problem, digest = written[k]
            if problem is None and (op["rc"] != 0 or op["out"] != digest):
                problem = f"exit {op['rc']}, or written bytes differ from the checked file"
        else:
            key = (k, op["rc"], op["out"])
            if key not in answers:
                answers[key] = check_answer(inst, op["rc"], result["outputs"][op["out"]])
            problem = answers[key]
        verdicts.append(problem)
    return verdicts
