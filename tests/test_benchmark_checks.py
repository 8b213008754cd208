"""Benchmark ops through the benchmark's own checks.

The benchmark's check of a measure-window op reads the one Gram matrix
the op built and compares it with the measure's nodes and weights, so a
change to the measure Gram or to the measures must keep that check
passing.  Decay fits are kept per process, so every block runs twice:
once with an empty fit cache and once with a warm one.  The check of a
batch op lists, parses and re-runs every file the op wrote, so a batch
block through it gates the table writers.  The benchmark modules are
imported from perfbench/ as they are.
"""

import copy
import itertools
import os
import sys
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IH = worker.import_inghamlab()


def test_measure_window_block_passes_its_checks(tmp_path):
    wl = WORKLOADS["measure-window"]
    ops = list(itertools.islice(wl.ops(1), wl.block_len))
    IH.riesz._fit_document.cache_clear()
    state = wl.setup(IH, 1, str(tmp_path))
    try:
        kinds = {state["pool"][op["measure"]].kind for op in ops}
        assert kinds == {"ArcLengthOnCircle", "ArcLengthOnGraph", "SmoothBump"}
        assert {op["measure"] for op in ops} >= {4, 5}
        # As in the benchmark's worker; every SmoothBump op warns, since
        # its decay fit is aliased at the benchmark's radii.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IH.errors.DecayTooWeak)
            runs, misses = [], []
            for _ in range(2):
                outs, failures = [], []
                for op in ops:
                    outs.append(wl.run(state, op))
                    failures.append((op, wl.check(state, op, outs[-1])))
                assert [f for f in failures if f[1] is not None] == []
                runs.append(outs)
                misses.append(IH.riesz._fit_document.cache_info().misses)
    finally:
        wl.teardown(state)
        IH.riesz._fit_document.cache_clear()
    # The second pass fits nothing anew and returns the same results.
    assert misses[1] == misses[0]
    cold, warm = runs
    assert [repr(out) for out in warm] == [repr(out) for out in cold]


def test_batch_highfreq_rerun_matches_a_cold_run_byte_for_byte(tmp_path):
    wl = WORKLOADS["batch"]
    ops = [op for op in itertools.islice(wl.ops(1), 2 * wl.block_len)
           if op["subcommand"] == "highfreq"]
    assert len(ops) == 2
    state = wl.setup(IH, 1, str(tmp_path))
    for op in ops:
        # The op runs with an empty fit cache; the check's rerun, on a
        # copy of the op, finds the fit cached and compares the bytes.
        IH.riesz._fit_document.cache_clear()
        op = dict(copy.deepcopy(op), rerun=True)
        assert wl.check(state, op, wl.run(state, op)) is None
        assert IH.riesz._fit_document.cache_info().hits >= 1
    IH.riesz._fit_document.cache_clear()


def test_batch_block_passes_its_checks_in_both_formats(tmp_path):
    # Every subcommand, each in csv and json, re-run and compared line by
    # line: the written files must be the listed tables, parse, and come
    # back the same apart from the timestamp.
    wl = WORKLOADS["batch"]
    ops = list(itertools.islice(wl.ops(1), wl.block_len))
    assert len({op["subcommand"] for op in ops}) == 17
    state = wl.setup(IH, 1, str(tmp_path))
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IH.errors.DecayTooWeak)
        for op, fmt in itertools.product(ops, ("csv", "json")):
            op = dict(copy.deepcopy(op), format=fmt, rerun=True)
            failure = wl.check(state, op, wl.run(state, op))
            if failure is not None:
                failures.append((op["subcommand"], fmt, failure))
    assert failures == []
