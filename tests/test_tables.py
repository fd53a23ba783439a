"""Per-process tables: what a call derives only from a network's vertex
names, its vertex count or its label profile is built once, shared
read-only, and never carries one call's data into another."""

import dataclasses
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import mc4
from mc4 import cli, network
from mc4.algebra import UNIVERSAL, Relation, RelationSet
from mc4.network import parse_network, serialize_network
from mc4.subalgebra import classify, enumerate_expressive
from test_solvers import planted_network

CG, CGPP, CNO = Relation.CG, Relation.CGPP, Relation.CNO


def test_networks_parsed_from_one_nodes_line_own_their_label_matrices():
    # Both parses share the names table of ('a', 'b', 'c'), never a matrix.
    text = "nodes: a b c\na b : CG|CGPP\n"
    first, second = parse_network(text), parse_network(text)
    assert first.names == second.names
    first.add_constraint("a", "b", CG)
    first.add_constraint("b", "c", CNO)
    assert first.label("a", "b") == CG
    assert second.label("a", "b") == CG | CGPP
    assert second.label("b", "c") == UNIVERSAL
    later = parse_network(text)
    assert np.array_equal(later.to_array(), second.to_array())
    assert serialize_network(later) == text


def test_every_cached_table_refuses_writes():
    names = ("a", "b", "c")
    names_table = network._names_table(names)
    heads, tails = network._serial_rows(names)
    index_heads, index_tails = cli._index_rows(3)
    arrays = [
        network._upper_triangle(3),
        *names_table.keys,
        names_table.values,
        *network._SPELLING_TABLE.keys,
        network._SPELLING_TABLE.values,
        tails,
        index_tails,
    ]
    for table in arrays:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.reshape(-1)[0] = table.reshape(-1)[0]
    assert isinstance(heads, tuple) and isinstance(index_heads, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        classify(RelationSet.of(CG)).core = CNO
    for cached in (
        network._upper_triangle,
        network._names_table,
        network._serial_rows,
        cli._index_rows,
        classify,
    ):
        assert cached.cache_info().maxsize is not None


def test_classify_agrees_with_an_uncached_classification():
    uncached = classify.__wrapped__
    rng = np.random.default_rng(44)
    sample = map(RelationSet, rng.integers(0, 1 << 16, 1000).tolist())
    profiles = [*enumerate_expressive(), *sample]
    assert len(profiles) == 1102
    for s in profiles:
        cls = classify(s)
        assert cls == uncached(s)
        assert classify(RelationSet(s.mask)) is cls  # a second call is served from the cache


def _in_process(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(mc4.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "mc4.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


def test_interleaved_calls_at_two_sizes_give_a_fresh_process_output(tmp_path, monkeypatch):
    # n=20, n=200, then n=20 again with the names in reverse order: the
    # size-keyed tables are reused, the names-keyed ones are not, and every
    # output is a fresh process's.  The general n=20 network is
    # inconsistent, the other two are consistent, so their scenarios are
    # written by name and by index.
    monkeypatch.chdir(tmp_path)
    planted, _ = planted_network(20, np.random.default_rng(3), RelationSet((1 << 15) - 2))
    reverse = re.sub(r"v(\d+)", lambda m: f"v{19 - int(m[1])}", serialize_network(planted))
    assert reverse.startswith("nodes: v19 v18 ")
    (tmp_path / "c.net").write_text(reverse)
    calls = [
        (["gen", "20", "--seed", "1"], "a.net"),
        (["solve", "a.net", "--json"], None),
        (["solve", "a.net"], None),
        (["gen", "200", "--palette", "m72", "--seed", "2"], "b.net"),
        (["solve", "b.net", "--json"], None),
        (["solve", "b.net"], None),
        (["solve", "c.net", "--json"], None),
        (["solve", "c.net"], None),
        (["convert", "c.net", "--json"], None),
    ]
    got = []
    for argv, written in calls:
        got.append(_in_process(argv))
        if written:
            (tmp_path / written).write_text(got[-1][1])
    assert [rc for rc, _ in got] == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert '"solver": "trivial-core"' in got[4][1] and '"solver": "backtracking"' in got[6][1]
    for (argv, _), out in zip(calls, got):
        assert out == _fresh_process(argv), argv
    # The serializer's rows of v0..v19 are cached by now; v19..v0 get their own.
    assert serialize_network(parse_network(reverse)) == reverse
