"""Batch experiment driver.

Every subcommand reads a JSON config, writes CSV/JSON/SVG artifacts into the
output directory and encodes its verdict in the exit code:

    0  ok / membership Inside
    2  an asserted inequality observed violated (or membership Outside)
    3  inconclusive (tolerance band, or a precondition estimate failed)
    4  malformed configuration

Identical configs (including the seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .core import (
    ZERO_COUNT_COARSE,
    ZERO_COUNT_SAMPLES,
    GridSpec,
    phi_verdict,
    phi_verdicts,
    q_from_phi,
    q_rows_from_omega,
    l_of_phi,
    julia_quotient,
    obstruction_value,
)
from .diskfun import Blaschke, Monomial, MoebiusShift, ScaledPolynomial, _cplx, _list, _real, diskfun_from_json, gauss_legendre
from .errors import ConfigError, NoConvergence, NotContractive, UlambdaError
from .geometry import LABELS
from .series import series_reciprocal_rows

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 4


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _grid(cfg: dict) -> GridSpec:
    return GridSpec.from_json(cfg.get("grid", {}))


def _lam(cfg: dict) -> float:
    try:
        lam = _real(cfg["lambda"], "lambda")
    except KeyError as e:
        raise ConfigError("config requires 'lambda'") from e
    if not (0 < lam <= 1):
        raise ConfigError("lambda must lie in (0, 1]")
    return lam


def _int(cfg: dict, key: str, default: int, minimum: int | None = None) -> int:
    # int() would truncate a float and read a bool as 0 or 1
    value = cfg.get(key, default)
    bad = isinstance(value, bool) or not isinstance(value, numbers.Integral)
    if bad or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
    return int(value)


def _fraction(v, name: str) -> float:
    """A real number in (0, 1) as a float; a config error naming ``name``
    otherwise."""
    v = _real(v, name)
    if not 0 < v < 1:
        raise ConfigError(f"{name} must lie in (0, 1), got {v!r}")
    return v


def _unused(cfg: dict, *keys: str) -> dict:
    """The validated value of each of ``keys`` the config gives, for keys
    that a representation's verdict does not read.  They are checked like
    used keys, so a malformed one is still a config error."""
    # no verdict reads order; it keeps the rule it had when a truncated q
    # did (an integer >= 2), so every config keeps its exit code
    check = {"grid": lambda: _grid(cfg).describe(), "order": lambda: _int(cfg, "order", 64, minimum=2)}
    return {key: check[key]() for key in keys if key in cfg}


# ---------------------------------------------------------------------------
# seeded family sampling


def sample_phi(rng: np.random.Generator):
    """Random member of the origin-fixing families used by the theorems."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return Monomial(theta=float(rng.uniform(0, 2 * math.pi)), k=int(rng.integers(1, 4)))
    if kind == 1:
        deg = int(rng.integers(2, 5))
        zeros = [0j] + _random_points(rng, 0.8, deg - 1)  # keep the origin fixed
        return Blaschke(zeros=tuple(zeros), rotation=float(rng.uniform(0, 2 * math.pi)))
    deg = int(rng.integers(2, 9))
    raw = [0j] + _random_points(rng, 1.0, deg)
    return ScaledPolynomial(raw=tuple(raw))


def sample_omega(rng: np.random.Generator):
    """Random unit-bounded function (origin value free)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return MoebiusShift(a=_random_point(rng, 0.9), psi=float(rng.uniform(0, 2 * math.pi)))
    if kind == 1:
        deg = int(rng.integers(1, 5))
        zeros = tuple(_random_points(rng, 0.8, deg))
        return Blaschke(zeros=zeros, rotation=float(rng.uniform(0, 2 * math.pi)))
    deg = int(rng.integers(1, 9))
    raw = tuple(_random_points(rng, 1.0, deg + 1))
    return ScaledPolynomial(raw=raw)


def _random_point(rng: np.random.Generator, radius: float) -> complex:
    return _random_points(rng, radius, 1)[0]


def _random_points(rng: np.random.Generator, radius: float, count: int) -> list:
    # each point from the doubles u, v of rng.uniform() and rng.uniform(0,
    # 2 pi) = 0 + 2 pi v, and the 2 count doubles in one call
    uv = rng.random(2 * count).tolist()
    return [radius * math.sqrt(u) * cmath.exp(1j * (2 * math.pi * v)) for u, v in zip(uv[::2], uv[1::2])]


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_conjecture(cfg: dict, out: Path) -> int:
    lam = _lam(cfg)
    n_max = _int(cfg, "n_max", 10)
    samples = _int(cfg, "samples", 100, minimum=0)
    seed = _int(cfg, "seed", 0)
    unused = _unused(cfg, "grid")
    # coefficient k of f(z)/z is a_{k+1}, and the reciprocal's recurrence is
    # triangular, so a_2..a_{n_max} need only q_0..q_{n_max-1}: a candidate,
    # decided from its representation, is built at that order once kept
    head = max(n_max, 1)
    rng = np.random.default_rng(seed)

    # the q of each candidate as a row: the extremal one first, then each
    # kept phi draw's; each kept omega draw's comes later, from one call
    phi_rows = [q_from_phi(lam, Monomial(theta=math.pi, k=1), order=head - 1).q.coeffs]
    kept_a2s, kept_omegas = [], []
    # the draws (phi, omega, a2), each block decided by one row-wise call
    # per representation; a block's coarse pass of each representation
    # holds ZERO_COUNT_SAMPLES circle points, so memory does not grow with
    # samples
    block = ZERO_COUNT_SAMPLES // ZERO_COUNT_COARSE
    for start in range(0, samples, block):
        draws = [(sample_phi(rng), sample_omega(rng), _random_point(rng, 1.0))
                 for _ in range(min(block, samples - start))]
        phis, omegas, a2s = zip(*draws)
        decided = zip(draws, phi_verdicts(lam, phis), bounds.omega_verdicts(lam, a2s, omegas))
        for (phi, omega, a2), by_phi, by_omega in decided:
            if by_phi.verdict == "Inside":
                phi_rows.append(q_from_phi(lam, phi, order=head - 1).q.coeffs)
            if by_omega.verdict == "Inside":
                kept_a2s.append(a2)
                kept_omegas.append(omega)
    kept = len(phi_rows) - 1 + len(kept_omegas)

    # one reciprocal of all rows, q_0..q_{n_max-1} each; the order of the
    # kept rows does not matter, since every one is "random" and only the
    # largest value is written.  hypot is abs() of each coefficient bit for
    # bit, as np.abs is not, and argmax gives a tie to the first row, the
    # extremal candidate
    q = np.vstack([*phi_rows, q_rows_from_omega(kept_a2s, lam, kept_omegas, order=head - 1)])
    a = series_reciprocal_rows(q)
    moduli = np.hypot(a.real, a.imag)
    best = moduli.argmax(axis=0).tolist()
    rows = [(n, bounds.conjecture_bound(n, lam), bounds.theorem2_bound(n, lam),
             float(moduli[best[n - 1], n - 1]), "random" if best[n - 1] else "extremal")
            for n in range(2, n_max + 1)]
    table = bounds.BoundTable(rows)
    (out / "bounds.csv").write_text(table.to_csv())
    report = {
        "lambda": lam, "n_max": n_max, "samples": samples, "seed": seed,
        "members_kept": kept, "violations": len(table.violations()),
    }
    if unused:
        report["unused"] = unused
    _write_json(out / "verify_conjecture.json", report)
    if table.violations():
        print("conjectured bound violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _membership_verdict(cfg: dict) -> tuple:
    """The verdict on the config's candidate, and the given keys that it
    does not read.  An omega candidate is decided by the zeros of its q on
    |z| = 1 (``bounds.omega_verdict``), a phi or extremal one by phi alone;
    neither reads ``order`` or ``grid``."""
    lam = _lam(cfg)
    spec = cfg.get("candidate")
    if not isinstance(spec, dict):
        raise ConfigError("config requires a 'candidate' object")
    kind = spec.get("type")
    unused = _unused(cfg, "grid", "order")
    if kind == "omega":
        a2, omega = _cplx(spec["a2"], "a2"), diskfun_from_json(spec["omega"])
        return bounds.omega_verdict(lam, a2, omega), unused
    if kind == "phi":
        phi = diskfun_from_json(spec["phi"])
    elif kind == "extremal":
        phi = Monomial(theta=_real(spec.get("phase", math.pi), "phase"), k=1)
    else:
        raise ConfigError(f"unknown candidate type {kind!r}")
    return phi_verdict(lam, phi), unused


def cmd_membership(cfg: dict, out: Path) -> int:
    verdict, unused = _membership_verdict(cfg)
    payload = verdict.to_json()
    if unused:
        payload["unused"] = unused
    _write_json(out / "membership.json", payload)
    if verdict.verdict == "Inside":
        return EXIT_OK
    if verdict.verdict == "Outside":
        return EXIT_VIOLATION
    return EXIT_INCONCLUSIVE


def cmd_julia(cfg: dict, out: Path) -> int:
    lam = _lam(cfg)
    unused = _unused(cfg, "grid", "order")
    phi = diskfun_from_json(cfg["phi"])
    theta0 = _real(cfg.get("theta0", 0.0), "theta0")
    m = julia_quotient(phi, theta0)
    value = obstruction_value(lam, phi, theta0)
    direct = l_of_phi(lam, phi, cmath.exp(1j * theta0))
    membership = phi_verdict(lam, phi)
    payload = {
        "lambda": lam,
        "theta0": theta0,
        "m": m,
        "obstruction_value": value,
        "l_at_boundary": direct,
        "membership": membership.to_json(),
    }
    if unused:
        payload["unused"] = unused
    _write_json(out / "julia.json", payload)
    # the theorem says the candidate cannot be a member
    if value > lam and membership.verdict == "Inside":
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_region_a2(cfg: dict, out: Path) -> int:
    lam = _lam(cfg)
    omega = diskfun_from_json(cfg["omega"])
    resolution = cfg.get("resolution", 512)
    region = bounds.c_omega_curve(omega, lam, resolution=resolution)
    points = [_cplx(q, "queries") for q in _list(cfg.get("queries", []), "queries")]
    (out / "region.csv").write_text(region.to_csv())
    (out / "region.svg").write_text(region.to_svg())
    codes, distances = region.locate(points)
    queries = [{"a2": [p.real, p.imag], "where": LABELS[code], "distance_to_curve": d}
               for p, code, d in zip(points, codes.tolist(), distances.tolist())]
    _write_json(out / "region.json", {"lambda": lam, "resolution": resolution, "queries": queries})
    return EXIT_OK


def cmd_f_roots(cfg: dict, out: Path) -> int:
    lams = cfg.get("lambdas")
    if lams is None:
        n = _int(cfg, "lambda_count", 50)
        lams = list(np.linspace(0.02, 0.98, n))
    lams = _list(lams, "lambdas")
    rs = cfg.get("Rs")
    if rs is None:
        n = _int(cfg, "R_count", 50)
        rs = list(np.linspace(0.02, 0.98, n))
    rs = _list(rs, "Rs")
    lams, rs = [_fraction(v, "lambdas") for v in lams], [_fraction(v, "Rs") for v in rs]
    lines = ["lambda,R,root,r_star"]
    mismatches = 0
    for lam in lams:
        thr = bounds.r_star(lam) if 0.5 < lam < 1 else 0.0
        for R in rs:
            root = bounds.f_root_in_unit_interval(lam, R)
            # theorem criterion, away from the threshold band
            expected = lam <= 0.5 or R > thr
            band = abs(R - thr) <= 1e-9 if thr else False
            if not band and (root is not None) != expected:
                mismatches += 1
            lines.append(
                f"{lam:.17g},{R:.17g},{'' if root is None else format(root, '.17g')},{thr:.17g}"
            )
    (out / "f_roots.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "f_roots.json", {"mismatches": mismatches})
    return EXIT_VIOLATION if mismatches else EXIT_OK


def cmd_sharpness(cfg: dict, out: Path) -> int:
    lam = _lam(cfg)
    a = _cplx(cfg.get("a", 0.5), "a")
    result = {"lambda": lam, "a": [a.real, a.imag]}
    # one witness; at a real a it is also thm5's, so both sections describe one f
    real = abs(a.imag) < 1e-15 and 0 < a.real < 1
    witness = bounds.sharpness_construction_thm6(lam, a.real if real else a)
    theta, psi, _, a2c, _, rep6 = witness
    result["region_a2"] = {**rep6, "theta": theta, "psi": psi, "a2": [a2c.real, a2c.imag]}
    worst = max(rep6["d_boundary_residual"], rep6["a2_bound_residual"])
    if real:
        _, _, rep5 = bounds.sharpness_g_thm5(lam, a.real, witness)
        result["refined_a2"] = rep5
        worst = max(worst, rep5["expr_disagreement"], rep5["g_at_1_abs"], rep5["bound_residual"])
    _write_json(out / "sharpness.json", result)
    return EXIT_VIOLATION if worst > 1e-8 else EXIT_OK


def cmd_fixed_point(cfg: dict, out: Path) -> int:
    lam = _lam(cfg)
    omega = diskfun_from_json(cfg["omega"])
    a2 = _cplx(cfg["a2"], "a2")
    # one boundary scan serves both the default radius and the contraction test
    v = bounds.v_of_omega(omega)
    try:
        if "r" in cfg:
            r = _real(cfg["r"], "r")
        else:
            r = (1 + lam * v) / abs(a2) if a2 else math.inf
            if not r < 1:
                # then |a2| <= 1 + lam v, and F maps no r-disk with r < 1 into itself
                raise NotContractive(f"default radius (1 + lam v)/|a2| = {r:.6f} is not below 1")
        res = bounds.fixed_point_zero(a2, lam, omega, r, v=v)
    except (NotContractive, NoConvergence) as e:
        # JSON has no infinity; an a2 of 0 gives no radius at all
        _write_json(out / "fixed_point.json", {"error": str(e), "r": r if math.isfinite(r) else None})
        return EXIT_INCONCLUSIVE
    # q(z0) = 1 - a2 z0 + lam z0 int_0^z0 omega, by quadrature: fixed_point_zero
    # iterates on antiderivative, which would check itself
    q_residual = abs(1 - a2 * res.z0 + lam * res.z0 * gauss_legendre(omega, res.z0))
    _write_json(out / "fixed_point.json", {**res.to_json(), "r": r, "q_residual": q_residual})
    return EXIT_OK


_COMMANDS = {
    "verify-conjecture": cmd_verify_conjecture,
    "membership": cmd_membership,
    "julia": cmd_julia,
    "region-a2": cmd_region_a2,
    "f-roots": cmd_f_roots,
    "sharpness": cmd_sharpness,
    "fixed-point": cmd_fixed_point,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call rather than at import, so importing the
    # module stays cheap; every later call reuses it
    parser = argparse.ArgumentParser(
        prog="ulambda",
        description="Numerical experiments on the univalence class U(lambda)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](cfg, out)
    except (ConfigError, KeyError, ValueError, MemoryError) as e:
        # a MemoryError is a size the machine cannot allocate, such as a
        # resolution, n_max or lambda_count of 2**55
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except UlambdaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return code


if __name__ == "__main__":
    sys.exit(main())
