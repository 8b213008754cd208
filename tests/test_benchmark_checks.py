"""One block of the measure-window benchmark through its own checks.

The benchmark's check of a measure-window op reads the one Gram matrix
the op built and compares it with the measure's nodes and weights, so a
change to the measure Gram or to the measures must keep that check
passing.  The benchmark modules are imported from perfbench/ as they are.
"""

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
    state = wl.setup(IH, 1, str(tmp_path))
    try:
        kinds = {state["pool"][op["measure"]].kind for op in ops}
        assert kinds == {"ArcLengthOnCircle", "ArcLengthOnGraph", "SmoothBump"}
        assert {op["measure"] for op in ops} >= {4, 5}
        # As in the benchmark's worker; every SmoothBump op warns, since
        # its decay fit is aliased at the benchmark's radii.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IH.errors.DecayTooWeak)
            failures = [(op, wl.check(state, op, wl.run(state, op))) for op in ops]
    finally:
        wl.teardown(state)
    assert [f for f in failures if f[1] is not None] == []
