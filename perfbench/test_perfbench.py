"""Tests of the benchmark itself: seeded op lists, exact counts, the
reference computations, and checks that catch wrong output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import math
import warnings

import numpy as np
import pytest

import oracle
import worker
from tracer import COUNTS
from workloads import WORKLOADS, MONO2

IH = worker.import_inghamlab()


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, tmp_path):
    wl = WORKLOADS[request.param]
    state = wl.setup(IH, 3, str(tmp_path))
    yield wl, state
    wl.teardown(state)


def test_op_lists_depend_only_on_the_seed():
    for wl in WORKLOADS.values():
        assert worker.ops_hash(wl, 5) == worker.ops_hash(wl, 5)
        assert worker.ops_hash(wl, 5) != worker.ops_hash(wl, 6)


def test_batch_blocks_cover_every_subcommand_in_both_formats():
    wl = WORKLOADS["batch"]
    ops = list(itertools.islice(wl.ops(1), 2 * wl.block_len))
    assert {(op["subcommand"], op["format"]) for op in ops} == {
        (sub, fmt) for sub in {op["subcommand"] for op in ops} for fmt in ("csv", "json")}
    assert len({op["subcommand"] for op in ops}) == 17


def test_counts_repeat_exactly_across_traced_runs(workload):
    wl, state = workload
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IH.errors.DecayTooWeak)
        first, loop1 = worker.traced(wl, state, 3, 4)
        second, loop2 = worker.traced(wl, state, 3, 4)
    assert loop1["failures"] == loop2["failures"] == []
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert 0.9 < first["bench.accounted_frac"] <= 1.0 + 1e-9
    # the traced run leaves the program unpatched
    assert not hasattr(IH.riesz.phase_integral, "__wrapped__")


def test_curve_oracle_closed_forms():
    T = 1.3
    G = oracle.curve_gram(MONO2, [-1, 0, 2], 2.0, T, "arclength")
    exact = T * math.sqrt(1 + 4 * T * T) / 2 + math.asinh(2 * T) / 4
    assert np.allclose(G.diagonal(), exact, rtol=0, atol=1e-12)
    assert oracle.hermitian_defect(G) < 1e-14
    # pair (0, 1): integral of exp(-2 pi i (t^2 + t)) equals the pairs form
    full = oracle.curve_gram(MONO2, [0, 1], 2.0, T, "lebesgue")
    pair = oracle.curve_gram(MONO2, [0, 1], 2.0, T, "lebesgue", pairs=[(0, 1)])
    assert abs(full[0, 1] - pair[0]) < 1e-13


def test_measure_entry_two_nodes():
    nodes = np.array([[0.0, 0.0], [0.25, 0.5]])
    weights = np.array([0.5, 0.5])
    # <z_2, (1, 1)> = 0.75, so the sum is (1 + e^{1.5 pi i}) / 2
    got = oracle.measure_entry(nodes, weights, (2.0, 1.0), (1.0, 0.0))
    assert abs(got - 0.5 * (1 + np.exp(1.5j * np.pi))) < 1e-15


def test_checks_reject_wrong_output(workload):
    wl, state = workload
    spec = next(wl.ops(3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IH.errors.DecayTooWeak)
        out = wl.run(state, spec)
    if wl.name == "batch":
        results, ok, root = out
        path = results[0]["tables"][0]
        with open(path, "a") as fh:
            fh.write("not, a, table, row, at, all\n{")
    elif wl.name == "curve-gram":
        out[0].entries[tuple(spec["check_pairs"][0])] += 1e-6
    else:
        G = state["captured"][0][1]
        G.entries[0, 1] += 1e-6
    assert wl.check(state, spec, out) is not None
