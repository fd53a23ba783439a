"""The benchmark's seeded input pools as tests: output digests and the
answer check.

Each solve workload's seed-5 pool is regenerated with perfbench's own
generator, every file is run through mc4.cli.main, and the argv, exit code
and stdout of every run are hashed into one sha256 per workload.  A change
that means to keep mc4's output byte for byte keeps these digests; one that
changes output on purpose recomputes them as exact values and says which
outputs changed and why.

perfbench imports scipy, so these tests skip where it is not installed.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mc4.cli import main

pytest.importorskip("scipy")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# sha256 of json.dumps([argv, exit code, stdout]) + "\n" over every run of
# a workload's seed-5 pool, file by file in pool order.
DIGESTS = {
    "m99-planted": "ace1b0313316645883fa105d78929f0dfbc59551a07cc4f4b907135b4b43f252",
    "dense-random": "5ae2c9166af9b4a7a686e6f663fd610adf69aff05ce512fe9ef55ce11c46c702",
    "general-planted": "ff71b7969b63f78d6b6c0445498eea6498bda953b6bf8ec219a8e7baf4de34ee",
}


def _run(argv):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        rc = main(argv)
    return rc, stdout.getvalue()


def _argvs(workload, name):
    out = [["solve", name, "--json"], ["solve", name]]
    if workload == "general-planted":
        out.append(["convert", name, "--json"])
    return out


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_cli_output_matches_its_committed_digest(workload, tmp_path, monkeypatch):
    # Files are named relative to the pool's directory, so the digest does
    # not depend on where the pool was written.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for inst in workloads.make_instances(workload, 5, tmp_path):
        for argv in _argvs(workload, inst.path.name):
            digest.update((json.dumps([argv, *_run(argv)]) + "\n").encode())
    assert digest.hexdigest() == DIGESTS[workload]


def test_the_benchmark_answer_check_rejects_bad_answers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inst = workloads.make_instances("general-planted", 5, tmp_path)[0]
    rc, output = _run(inst.argv)
    assert workloads.check_answer(inst, rc, output) is None
    verdict = json.loads(output)
    pairs = verdict["scenario"]["pairs"]

    def answer(changed):
        return json.dumps({**verdict, "scenario": {"pairs": changed}})

    # One pair takes a base case its label excludes, one pair is dropped,
    # and one code is written as JSON true: each is a failure, not a raise.
    k = next(k for k, (i, j, _) in enumerate(pairs) if inst.labels[i, j] != 15)
    i, j, _ = pairs[k]
    outside = next(b for b in (1, 2, 4, 8) if not inst.labels[i, j] & b)
    for changed in (
        pairs[:k] + [[i, j, outside]] + pairs[k + 1 :],
        pairs[:k] + pairs[k + 1 :],
        pairs[:k] + [[i, j, True]] + pairs[k + 1 :],
    ):
        problem = workloads.check_answer(inst, rc, answer(changed))
        assert problem == "returned scenario fails is_valid_scenario"
