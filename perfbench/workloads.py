"""Seeded op lists for the three workloads, and the code that runs and checks
one op.

An op is a plain JSON-serialisable dict built from the seed before anything
is timed.  Its kind is fixed by its position (round-robin); the seed varies
only the parameters inside each kind.  Every op carries the outcome it must
produce, so a wrong verdict, exit code or artifact counts as a failed op.

Ops reach the program through ``ulambda.cli.main`` (``conjecture``,
``quadrature``) or through module attributes of the public library
(``subordination``), never through names bound at import time here, so the
traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("conjecture", "quadrature", "subordination")

# op kinds in round-robin order, one cycle per entry
CYCLES = {
    "conjecture": ("verify-conjecture",) * 4,
    "quadrature": ("fixed-point", "region-a2", "sharpness"),
    "subordination": ("member", "member-dilated", "member", "nonmember"),
}

CONJECTURE_LAMBDAS = (0.25, 0.5, 0.75, 1.0)
CONJECTURE_SAMPLES = 16
REGION_RESOLUTION = 1024
SUBORDINATION_ORDER = 256
SUBORDINATION_ANGLES = 2048
# Resolution of the sampled majorant boundaries.  The check still makes 2160
# containment tests per member op; 1024 segments (instead of the library
# default 4096) keeps an op near 0.25 s so a run holds the 100 ops its p90
# needs.
MAJORANT_RESOLUTION = 1024


def _polar(rng: random.Random, r_lo: float, r_hi: float) -> list:
    r = rng.uniform(r_lo, r_hi)
    t = rng.uniform(0.0, 2 * math.pi)
    return [r * math.cos(t), r * math.sin(t)]


def _moebius(rng: random.Random, a_max: float) -> dict:
    return {"kind": "moebius", "a": _polar(rng, 0.0, a_max), "psi": rng.uniform(0.0, 2 * math.pi)}


def _conjecture_op(i: int, rng: random.Random) -> dict:
    config = {
        "lambda": CONJECTURE_LAMBDAS[i % len(CONJECTURE_LAMBDAS)],
        "n_max": 10,
        "samples": CONJECTURE_SAMPLES,
        "seed": rng.randrange(2**31),
    }
    return {"kind": "verify-conjecture", "config": config, "expect": {"exit": 0}}


def _fixed_point_op(rng: random.Random) -> dict:
    # |a2| >= 2.2 with lam <= 0.9 and |omega| <= 1 keeps the map contractive:
    # r = (1 + lam v)/|a2| < 1 and lam (r + v)/|a2| < 1 since v <= 1
    config = {
        "lambda": rng.uniform(0.25, 0.9),
        "a2": _polar(rng, 2.2, 3.2),
        "omega": _moebius(rng, 0.9),
    }
    return {"kind": "fixed-point", "config": config, "expect": {"exit": 0}}


def _region_op(rng: random.Random) -> dict:
    # The curve is e^{-it} + lam * int_0^z omega with |int_0^z omega| <= 1,
    # so points with |p| < 1 - lam are enclosed and points with
    # |p| > 1 + lam are not; the margins keep queries off the curve.
    # |a| <= 0.8 keeps the sampled curve injective.
    lam = rng.uniform(0.25, 0.75)
    inside = [_polar(rng, 0.0, 0.9 * (1 - lam)) for _ in range(3)]
    outside = [_polar(rng, 1.1 * (1 + lam), 2.5) for _ in range(3)]
    config = {
        "lambda": lam,
        "resolution": REGION_RESOLUTION,
        "omega": _moebius(rng, 0.8),
        "queries": inside + outside,
    }
    where = ["inside"] * len(inside) + ["outside"] * len(outside)
    return {"kind": "region-a2", "config": config, "expect": {"exit": 0, "where": where}}


def _sharpness_op(rng: random.Random) -> dict:
    # a real in (0, 1) runs both constructions
    config = {"lambda": rng.uniform(0.25, 1.0), "a": rng.uniform(0.2, 0.8)}
    return {"kind": "sharpness", "config": config, "expect": {"exit": 0}}


def _subordination_op(kind: str, rng: random.Random) -> dict:
    # Members are rotated extremal functions z/((1 - e^{it} z)(1 - lam e^{it} z)),
    # dilated on every other op.  A non-member subtracts c z from q with
    # |c| >= 6 > max |q| / 0.3, so q gets a zero in |z| < 0.3 (a pole of f)
    # while U = q - z q' - 1 is unchanged: the sweep still says Inside, the
    # first subordination still holds, and only q < (1 - z)(1 - lam z) fails.
    op = {
        "kind": kind,
        "lambda": rng.uniform(0.25, 0.9),
        "theta": rng.uniform(0.0, 2 * math.pi),
        "R": rng.uniform(0.3, 0.95) if kind != "member" else None,
        "c": _polar(rng, 6.0, 7.0) if kind == "nonmember" else None,
    }
    if kind == "nonmember":
        op["expect"] = {"sweep": "Inside", "zeros": 1, "h1": "Holds", "h2": "Fails"}
    else:
        op["expect"] = {"sweep": "Inside", "zeros": 0, "h1": "Holds", "h2": "Holds"}
    return op


def generate(workload: str, seed: int, count: int) -> list:
    """The first ``count`` ops of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    ops = []
    for i in range(count):
        kind = cycle[i % len(cycle)]
        if workload == "conjecture":
            ops.append(_conjecture_op(i, rng))
        elif kind == "fixed-point":
            ops.append(_fixed_point_op(rng))
        elif kind == "region-a2":
            ops.append(_region_op(rng))
        elif kind == "sharpness":
            ops.append(_sharpness_op(rng))
        else:
            ops.append(_subordination_op(kind, rng))
    return ops


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running one op


class CliOp:
    """Runs one CLI op in a scratch directory: ``prepare`` writes the config,
    ``__call__`` is the timed part, ``check`` reads and removes the
    artifacts."""

    def __init__(self, op: dict, workdir: Path):
        self.op = op
        self.config = workdir / "config.json"
        self.out = workdir / "out"

    def prepare(self) -> None:
        self.config.write_text(json.dumps(self.op["config"]))
        self.out.mkdir(exist_ok=True)

    def __call__(self, ulambda) -> int:
        return ulambda.cli.main(
            [self.op["kind"], "--config", str(self.config), "--out", str(self.out)]
        )

    def check(self, code) -> tuple:
        """(outcome record, passed, extra counts) for the exit code returned."""
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        for p in self.out.iterdir():
            p.unlink()
        outcome = {"exit": code, "files": {k: hashlib.sha256(v).hexdigest()[:16] for k, v in files.items()}}
        extra = {"cli.bytes_written": sum(len(v) for v in files.values())}
        ok = code == self.op["expect"]["exit"]
        try:
            ok = ok and _CHECKS[self.op["kind"]](self.op, files, extra)
        except (KeyError, ValueError, IndexError):
            ok = False
        return outcome, ok, extra


def _check_conjecture(op, files, extra) -> bool:
    report = json.loads(files["verify_conjecture.json"])
    rows = files["bounds.csv"].decode().splitlines()
    extra["core.members_kept"] = report["members_kept"]
    return report["violations"] == 0 and len(rows) == op["config"]["n_max"]


def _check_fixed_point(op, files, extra) -> bool:
    report = json.loads(files["fixed_point.json"])
    z0 = complex(*report["z0"])
    return report["iterations"] >= 1 and abs(z0) <= report["r"] + 1e-9 and report["q_residual"] < 1e-9


def _check_region(op, files, extra) -> bool:
    report = json.loads(files["region.json"])
    where = [q["where"] for q in report["queries"]]
    rows = files["region.csv"].decode().splitlines()
    return (
        where == op["expect"]["where"]
        and len(rows) == REGION_RESOLUTION + 2
        and files["region.svg"].startswith(b"<svg")
    )


def _check_sharpness(op, files, extra) -> bool:
    report = json.loads(files["sharpness.json"])
    return "refined_a2" in report and "region_a2" in report


_CHECKS = {
    "verify-conjecture": _check_conjecture,
    "fixed-point": _check_fixed_point,
    "region-a2": _check_region,
    "sharpness": _check_sharpness,
}


class SubordinationOp:
    """The representation-theorem check on one candidate, through the library."""

    def __init__(self, op: dict):
        self.op = op

    def prepare(self) -> None:
        pass

    def __call__(self, ulambda) -> tuple:
        core, series = ulambda.core, ulambda.series
        op = self.op
        lam = op["lambda"]
        phi = ulambda.diskfun.Monomial(theta=op["theta"], k=1)
        cand = core.q_from_phi(lam, phi, order=SUBORDINATION_ORDER)
        if op["R"] is not None:
            cand = core.dilate(cand, op["R"])
        if op["c"] is not None:
            q = cand.q.coeffs.copy()
            q[1] -= complex(*op["c"])
            cand = core.UCandidate(series.TruncatedSeries(q), lam)
        h1 = core.majorant_h_boundary(lam, resolution=MAJORANT_RESOLUTION)
        h2 = core.extremal_q_boundary(lam, resolution=MAJORANT_RESOLUTION)
        sweep = core.sup_u(cand, core.GridSpec(angles=SUBORDINATION_ANGLES))
        zeros = core.count_disk_zeros(cand)
        # z/f + a2 z < 1 + 2 lam z + lam z^2
        g1 = cand.q.coeffs.copy()
        g1[1] += cand.a2
        v1 = core.subordination_check(series.TruncatedSeries(g1), h1, 1.0)
        # z/f < (1 - z)(1 - lam z)
        v2 = core.subordination_check(cand.q, h2, 1.0)
        return sweep.verdict, zeros, v1.verdict, v2.verdict

    def check(self, result) -> tuple:
        sweep, zeros, h1, h2 = result
        outcome = {"sweep": sweep, "zeros": zeros, "h1": h1, "h2": h2}
        return outcome, outcome == self.op["expect"], {}


def make_runner(op: dict, workdir: Path):
    return CliOp(op, workdir) if op["kind"] in _CHECKS else SubordinationOp(op)
