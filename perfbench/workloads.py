"""The three workloads: seeded op generators, the op runners, and the
correctness check of every op.

Each workload is an endless sequence of blocks.  A block has a fixed
template of slots (which curve, which size class, which subcommand), and
the seed draws the parameters inside each slot.  Every seed therefore
sends the same mix of work, so throughput and latency percentiles move
with the program and not with the draw, while the inputs themselves
still change from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import xml.etree.ElementTree as ET

import numpy as np

import oracle

TOL = 1e-8

MONO2 = {"kind": "Monomial", "params": {"a": 0.0, "b": 1.0, "alpha": 2.0}}
MONO3 = {"kind": "Monomial", "params": {"a": 0.0, "b": 1.0, "alpha": 3.0}}
ARCTAN = {"kind": "ArctanModulated", "params": {}}
CURVES = (MONO2, MONO3, ARCTAN)


def _key(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    name = ""
    block_len = 0
    trace_rate = 1.0     # ops per second of --seconds replayed by a traced run

    def block(self, rng, b, context) -> list:
        raise NotImplementedError

    def context(self, seed: int):
        """Seed-wide facts the op generator needs (none by default)."""
        return None

    def teardown(self, state):
        pass

    def ops(self, seed: int):
        context = self.context(seed)
        b = 0
        while True:
            yield from self.block(_rng(self.name, seed, b), b, context)
            b += 1


# ---------------------------------------------------------------------------
# curve-gram
# ---------------------------------------------------------------------------

class CurveGram(Workload):
    """Curve Gram matrices and their Riesz bounds, plus short horizon sweeps.

    Each slot has its own rung on a fine ladder of cost targets and a
    centre for N; the seed moves N by up to one and draws the checked
    entries, and T follows from a rough cost model (pairs times panels).
    Every seed thus gives the same smooth spread of op sizes.  Without it
    the median and p90 latency would jump with the draw.
    """

    name = "curve-gram"
    S_VALUES = (1.6, 2.0, 2.5)
    block_len = 24
    trace_rate = 9.0

    @staticmethod
    def _cost(curve, N, s, T):
        """Model op cost: pair integrals times (fixed + per-oscillation) cost."""
        pairs = N * (2 * N + 1)
        turnover = 2 * N * float(oracle.curve_p(curve, T)) + N ** s * T
        return pairs * (1.7e-4 + 1.5e-6 * turnover)

    def block(self, rng, b, context):
        ops = []
        for slot in range(self.block_len):
            curve = CURVES[slot % 3]
            s = self.S_VALUES[(slot // 3 + b) % 3]
            if slot % 8 == 7:
                T0 = _loguniform(rng, 0.25, 0.5)
                ops.append({"op": "sweep", "curve": curve, "s": s, "N": rng.randint(3, 5),
                            "T_grid": [round(T0 * f, 6) for f in (1.0, 2.0, 4.0)]})
                continue
            weight = ("lebesgue", "arclength")[(slot // 8 + slot) % 2]
            target = 0.04 * 3.0 ** ((slot * 11 % 24) / 23) * rng.uniform(0.97, 1.03)
            N = min(12, max(4, 4 + (4 * slot) % 9 + rng.randint(-1, 1)))
            while N > 4 and self._cost(curve, N, s, 0.25) > target:
                N -= 1
            lo, hi = 0.25, 4.0
            for _ in range(40):      # bisect T in [0.25, 4] on the cost model
                mid = math.sqrt(lo * hi)
                lo, hi = (mid, hi) if self._cost(curve, N, s, mid) < target else (lo, mid)
            J = 2 * N + 1
            pairs = [sorted(rng.sample(range(J), 2)) for _ in range(3)]
            if weight == "arclength":
                d = rng.randrange(J)
                pairs.append([d, d])
            ops.append({"op": "gram", "curve": curve, "weight": weight, "s": s,
                        "N": N, "T": round(lo, 6), "check_pairs": pairs})
        return ops

    def setup(self, ih, seed, root):
        curves = {_key(doc): ih.curves.curve_from_dict(doc) for doc in CURVES}
        state = {"ih": ih, "curves": curves}
        self.run(state, {"op": "gram", "curve": MONO2, "weight": "lebesgue",
                         "s": 2.0, "N": 3, "T": 0.5})
        return state

    def run(self, state, spec):
        riesz = state["ih"].riesz
        curve = state["curves"][_key(spec["curve"])]
        if spec["op"] == "sweep":
            return riesz.ingham_sweep(curve, spec["s"], spec["N"], spec["T_grid"],
                                      tol=TOL)
        N = spec["N"]
        system = riesz.curve_system(range(-N, N + 1), spec["s"], curve, spec["T"],
                                    weight=spec["weight"])
        G = riesz.gram_matrix(system, tol=TOL)
        return G, riesz.riesz_bounds(G)

    def check(self, state, spec, out):
        N, s = spec["N"], spec["s"]
        indices = range(-N, N + 1)
        if spec["op"] == "sweep":
            if not out.monotone:
                return "lambda_min not nondecreasing in T"
            G = oracle.curve_gram(spec["curve"], indices, s, spec["T_grid"][-1],
                                  "lebesgue")
            lo, hi = oracle.extreme_eigs(G)
            err = max(abs(lo - out.lambda_min[-1]), abs(hi - out.lambda_max[-1]))
            return f"extreme eigenvalues off by {err:.2e}" if err > 10 * TOL else None
        G, rep = out
        H = G.entries
        if H.shape != (2 * N + 1,) * 2:
            return f"Gram shape {H.shape}"
        if oracle.hermitian_defect(H) > 1e-13:
            return "Gram matrix is not Hermitian"
        T = spec["T"]
        if spec["weight"] == "lebesgue" and np.abs(H.diagonal() - T).max() > 1e-12 * T:
            return "diagonal differs from T"
        ref = oracle.curve_gram(spec["curve"], indices, s, T, spec["weight"],
                                pairs=spec["check_pairs"])
        got = np.array([H[i, j] for i, j in spec["check_pairs"]])
        err = float(np.abs(got - ref).max())
        if err > TOL:
            return f"sampled entries off by {err:.2e} (pairs {spec['check_pairs']})"
        lo, hi = oracle.extreme_eigs(H)
        scale = max(1.0, abs(hi))
        if abs(lo - rep.lambda_min) > 1e-9 * scale or abs(hi - rep.lambda_max) > 1e-9 * scale:
            return "riesz_bounds disagrees with the reference eigensolver"
        return None


# ---------------------------------------------------------------------------
# measure-window
# ---------------------------------------------------------------------------

def measure_pool(seed: int) -> list:
    """Six measure documents drawn from the seed: two circle arcs, two
    graph arc lengths and two smooth bumps."""
    rng = random.Random(f"measure-pool:{seed}")
    u = lambda lo, hi: round(rng.uniform(lo, hi), 4)
    a, b = u(0.3, 0.5), u(0.3, 0.5)
    return [
        {"kind": "ArcLengthOnCircle",
         "params": {"radius": u(0.6, 1.0), "theta0": 0.0, "theta1": u(1.2, 1.9)}},
        {"kind": "ArcLengthOnCircle",
         "params": {"radius": u(0.6, 1.0), "theta0": u(0.5, 1.0), "theta1": u(3.0, 4.0)}},
        {"kind": "ArcLengthOnGraph", "params": {"curve": MONO2, "T": u(0.6, 1.0)}},
        {"kind": "ArcLengthOnGraph", "params": {"curve": ARCTAN, "T": u(0.7, 1.0)}},
        {"kind": "SmoothBump", "params": {"box": [0.0, u(0.6, 1.0), 0.0, u(0.6, 1.0)],
                                          "order": 3}},
        {"kind": "SmoothBump", "params": {"box": [-a, a, -b, b], "order": 2}},
    ]


def _radius(doc: dict) -> float:
    """Largest |z| on the measure's support, from its document."""
    prm = doc["params"]
    if doc["kind"] == "ArcLengthOnCircle":
        return prm["radius"]
    if doc["kind"] == "ArcLengthOnGraph":
        T = prm["T"]
        return math.hypot(T, float(oracle.curve_p(prm["curve"], T)))
    t0, t1, x0, x1 = prm["box"]
    return math.hypot(max(abs(t0), abs(t1)), max(abs(x0), abs(x1)))


class MeasureWindow(Workload):
    """High-frequency window bounds over planar measures: no oscint at all.

    Each slot has its own rung on a ladder of Gram work, nodes times
    columns, where the node count follows the largest frequency
    difference times the measure's radius; the seed draws s, the window
    and the measure's place in the pool, and N follows.  The decay fit
    runs on 8 radii over two decades (the library default is 36 up to
    200), which keeps it near half of an op so that the Gram assembly
    shows as well.  The top rungs need more nodes than one 65536-node
    chunk of the Gram assembly, so peak memory does not hang on the draw.
    """

    name = "measure-window"
    FIT_RADII = tuple(np.geomspace(1.0, 100.0, 8))
    block_len = 12
    trace_rate = 6.0

    def context(self, seed: int):
        return [_radius(doc) for doc in measure_pool(seed)]

    @staticmethod
    def _work(N, window, s, radius):
        xi = math.hypot((N + window) ** s - N ** s, 2.0 * (N + window))
        return max(4096.0, 16.0 * xi * radius) * (2 * window + 2)

    def block(self, rng, b, radii):
        ops = []
        for slot in range(self.block_len):
            s = round(rng.uniform(2.0, 3.0), 3)
            window = rng.choice((6, 8, 10, 12))
            measure = (slot + rng.randrange(2) * 3) % 6
            target = 0.3e6 * 8.0 ** ((slot * 5 % 12) / 11) * rng.uniform(0.97, 1.03)
            N = 4
            while self._work(N + 1, window, s, radii[measure]) <= target:
                N += 1
            ops.append({"measure": measure, "s": s, "N": N, "window": window,
                        "check_pair": rng.sample(range(2 * window + 2), 2)})
        return ops

    def setup(self, ih, seed, root):
        pool = [ih.curves.measure_from_dict(doc) for doc in measure_pool(seed)]
        state = {"ih": ih, "pool": pool, "captured": []}
        orig = ih.riesz.gram_matrix

        def capture(system, tol=1e-9):
            G = orig(system, tol)
            state["captured"].append((system, G))
            return G

        ih.riesz.gram_matrix = capture
        state["restore"] = orig
        self.run(state, {"measure": 0, "s": 2.0, "N": 4, "window": 4})
        return state

    def teardown(self, state):
        state["ih"].riesz.gram_matrix = state["restore"]

    def run(self, state, spec):
        state["captured"].clear()
        return state["ih"].riesz.highfreq_bounds(
            state["pool"][spec["measure"]], spec["s"], [spec["N"]], spec["window"],
            fit_radii=np.asarray(self.FIT_RADII))

    def check(self, state, spec, out):
        lo, hi = out.lambda_min[0], out.lambda_max[0]
        if not (0.0 < lo <= 1.0 + 1e-9 and hi >= 1.0 - 1e-9):
            return f"bounds ({lo:.4g}, {hi:.4g}) do not bracket the mass 1 from above 0"
        if len(state["captured"]) != 1:
            return f"{len(state['captured'])} Gram matrices built, expected 1"
        system, G = state["captured"][0]
        N, w = spec["N"], spec["window"]
        expected = list(range(-(N + w), -N + 1)) + list(range(N, N + w + 1))
        if list(system.indices) != expected:
            return "Gram built on the wrong index window"
        H, meas = G.entries, system.measure
        mass = float(meas.weights.sum())
        if abs(mass - 1.0) > 1e-12 or np.abs(H.diagonal() - mass).max() > 1e-12:
            return "diagonal differs from the measure's mass"
        if oracle.hermitian_defect(H) > 1e-13:
            return "Gram matrix is not Hermitian"
        ref_lo, ref_hi = oracle.extreme_eigs(H)
        if abs(ref_lo - lo) > 1e-10 or abs(ref_hi - hi) > 1e-10:
            return "riesz_bounds disagrees with the reference eigensolver"
        i, j = spec["check_pair"]
        phi = lambda n: (abs(n) ** system.s, float(n))
        ref = oracle.measure_entry(meas.nodes, meas.weights, phi(expected[i]),
                                   phi(expected[j]))
        if abs(H[i, j] - ref) > 1e-10:
            return f"entry ({expected[i]}, {expected[j]}) off by {abs(H[i, j] - ref):.2e}"
        return None


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

QUARTER = {"kind": "ArcLengthOnCircle",
           "params": {"radius": 1.0, "theta0": 0.0, "theta1": 1.5707963267948966},
           "resolution": 1024}


def _experiment(sub, rng, b):
    """Parameters of one experiment in block b.  Every choice is one on
    which the subcommand's own scientific check passes.  Choices that set
    an op's cost cycle with the block index, so that every seed sends the
    same mix of work; the seed draws the rest."""
    r, c = rng, rng.choice

    def cyc(*options):
        return options[b % len(options)]

    if sub == "validate-curve":
        return {"curve": c(CURVES), "T": c([0.5, 1.0, 2.0, 4.0]), "grid": c([128, 256, 512])}
    if sub == "integral":
        n, m = r.sample(range(-8, 9), 2)
        return {"curve": c(CURVES), "n": n, "m": m, "s": c([1.6, 2.0, 2.5]),
                "T": c([0.5, 1.0, 2.0])}
    if sub == "classify":
        return {"s": c([1.5, 2.0, 2.5]), "tau": c([2.0, 4.0, 8.0]),
                "N": cyc(18, 24, 30) + r.randint(-2, 2)}
    if sub == "boundary":
        return {"samples": r.randint(50, 300)}
    if sub == "lemma21":
        gamma, s = c([(0.5, 2.0), (0.5, 2.5), (1.0, 1.5), (1.0, 2.0), (1.0, 2.5)])
        return {"gamma": gamma, "s": s, "N": cyc(500, 1000, 2000)}
    if sub == "tails":
        gamma, delta, s = cyc((0.0, 1.0, 2.0), (0.0, 0.5, 2.5), (0.25, 0.25, 5.0))
        return {"gamma": gamma, "delta": delta, "s": s, "Ngrid": "100,316,1000,3163",
                "mset": ",".join(str(m) for m in sorted(r.sample([0, 1, 3, 7, 30], 3)))}
    if sub in ("gram", "riesz"):
        return {"curve": c(CURVES), "s": c([1.6, 2.0, 2.5]), "N": cyc(2, 3, 4),
                "T": c([0.5, 1.0]), "weight": cyc("lebesgue", "arclength")}
    if sub == "ingham-sweep":
        return {"curve": c(CURVES), "s": c([1.6, 2.0, 2.5]), "N": cyc(2, 3, 4),
                "Tgrid": cyc("0.5,1,2", "0.25,0.5,1")}
    if sub == "minimal-time":
        return {"curve": c([MONO2, MONO3]), "s": c([2.0, 2.5]),
                "jgrid": c(["2,5,10,50", "3,6,12,40"])}
    if sub == "highfreq":
        return {"measure": QUARTER, "s": 2.5, "Ngrid": cyc("6,10", "8,12"), "window": 10}
    if sub == "sharpness":
        delta, s = c([(0.5, 1.5), (0.4, 2.0), (0.3, 2.5)])
        return {"delta": delta, "s": s, "Ngrid": "32,64,128,256,512"}
    if sub == "merged":
        return {"curve": MONO2, "T": cyc(0.5, 1.0), "sgrid": "1.6,2,2.5", "N": cyc(4, 5, 6)}
    if sub == "wronskian":
        return {"gamma_curve": {"kind": "Polynomial",
                                "params": {"coeffs": [0.0, round(r.uniform(-1, 1), 3),
                                                      c([0.5, 1.0, 2.0])]}},
                "samples": r.randint(50, 200)}
    if sub == "threepoint":
        return {"points": c(["0,0.3;1,1.1;2.2,2.9", "0,0.2;0.7,1.3;1.9,2.4",
                             "0.1,0.5;1.3,0.9;2.6,2.2"])}
    if sub == "zeroprobe":
        return {"system": {"N": 1, "s": c([2.0, 2.5]), "lambdas": [-1.0, 0.0, 1.0],
                           "coefficients_re": [round(r.uniform(0.2, 1.0), 3)
                                               for _ in range(3)]},
                "gamma_curve": {"kind": "Horizontal", "params": {"x0": c([0.25, 0.4])}},
                "T": c([2.0, 3.0])}
    if sub == "schrodinger":
        V = {"kind": "Cosine", "params": {"amplitude": c([0.1, 0.3]), "mode": 1}}
        if b % 2 == 0:
            return {"curve": MONO2, "potential": V, "s": 2.0, "T": cyc(0.25, 0.25, 0.5, 0.5),
                    "K": 3, "trials": 3}
        coeffs = [0.0] * 13
        for n in r.sample(range(4, 9), 3):
            coeffs[n] = round(r.uniform(0.2, 1.0), 3)
        return {"u0": {"coeffs_re": coeffs, "K": 6, "s": 2.0}, "potential": V,
                "T": cyc(0.2, 0.2, 0.3, 0.3), "curve": cyc(MONO2, None, None, MONO2)}
    raise ValueError(sub)


SUBCOMMANDS = ("validate-curve", "integral", "classify", "boundary", "lemma21",
               "tails", "gram", "riesz", "ingham-sweep", "minimal-time", "highfreq",
               "sharpness", "merged", "wronskian", "threepoint", "zeroprobe",
               "schrodinger")


def _stable_lines(path: str) -> list:
    with open(path, "rb") as fh:
        return [ln for ln in fh.read().split(b"\n")
                if not ln.startswith(b"# generated") and b'"timestamp":' not in ln]


def _parse(path: str) -> None:
    """Raise if the file does not parse as its extension says."""
    if path.endswith(".json"):
        with open(path) as fh:
            json.load(fh)
    elif path.endswith(".csv"):
        with open(path) as fh:
            rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        width = len(rows[0].split(","))
        if any(len(r.split(",")) != width for r in rows[1:]):
            raise ValueError(f"{path}: ragged CSV")
    elif path.endswith(".dat"):
        with open(path) as fh:
            for ln in fh:
                if not ln.startswith("#"):
                    [float(v) for v in ln.split()]
    elif path.endswith(".svg"):
        ET.parse(path)
    else:
        raise ValueError(f"{path}: unexpected file type")


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


class Batch(Workload):
    """Experiment documents through cli.run_batch: the workload that writes."""

    name = "batch"
    block_len = len(SUBCOMMANDS)
    trace_rate = 17.0
    RERUN_SHARE = 0.1

    def block(self, rng, b, context):
        ops = []
        for slot, sub in enumerate(SUBCOMMANDS):
            params = {k: v for k, v in _experiment(sub, rng, b).items() if v is not None}
            ops.append({"subcommand": sub, "parameters": params,
                        "format": ("csv", "json")[(b * self.block_len + slot) % 2],
                        "rerun": rng.random() < self.RERUN_SHARE})
        return ops

    def setup(self, ih, seed, root):
        work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        state = {"ih": ih, "work": work, "n": 0}
        self.run(state, {"subcommand": "boundary", "parameters": {"samples": 10},
                         "format": "csv"})
        self.teardown(state)
        return state

    def run(self, state, spec):
        state["n"] += 1
        out = os.path.join(state["work"], f"op{state['n']}")
        doc = {"experiments": [{"subcommand": spec["subcommand"],
                                "parameters": spec["parameters"]}]}
        results, ok = state["ih"].cli.run_batch(doc, out, spec["format"])
        return results, ok, out

    def check(self, state, spec, out):
        results, ok, root = out
        try:
            if not (ok and len(results) == 1 and results[0]["ok"]):
                return "experiment not ok"
            listed = {os.path.relpath(p, root) for p in results[0]["tables"]}
            if not listed or listed != _files(root):
                return "written files differ from the listed tables"
            for rel in listed:
                _parse(os.path.join(root, rel))
            if spec["rerun"]:
                again = root + "_rerun"
                doc = {"experiments": [{"subcommand": spec["subcommand"],
                                        "parameters": spec["parameters"]}]}
                state["ih"].cli.run_batch(doc, again, spec["format"])
                if _files(again) != listed:
                    return "re-run wrote other files"
                for rel in listed:
                    if _stable_lines(os.path.join(root, rel)) != \
                            _stable_lines(os.path.join(again, rel)):
                        return f"re-run changed {rel}"
            return None
        except (OSError, ValueError, ET.ParseError, IndexError) as exc:
            return f"output does not parse: {exc}"
        finally:
            self.teardown(state)

    def teardown(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (CurveGram(), MeasureWindow(), Batch())}
