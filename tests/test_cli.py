import json
import math
import sys

import numpy as np
import pytest

from ulambda import bounds, cli, core
from ulambda.cli import main
from ulambda.diskfun import MoebiusShift, gauss_legendre


def run(tmp_path, command, cfg, outdir="out"):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / outdir
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out


class TestVerifyConjecture:
    def test_extremal_rows_hit_conjecture(self, tmp_path):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": 10, "samples": 0, "seed": 1})
        assert code == 0
        lines = (out / "bounds.csv").read_text().strip().split("\n")
        assert lines[0] == "n,conjecture,theorem2,observed_max,family"
        for line in lines[1:]:
            n, conj, th2, obs, fam = line.split(",")
            assert abs(float(obs) - float(conj)) < 1e-11
            assert fam == "extremal"

    def test_koebe_at_lambda_one(self, tmp_path):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 1.0, "n_max": 8, "samples": 0, "seed": 1})
        assert code == 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")[1:]
        for line in rows:
            n, conj, th2, obs, fam = line.split(",")
            assert abs(float(obs) - int(n)) < 1e-10

    def test_random_samples_within_bound(self, tmp_path):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.3, "n_max": 10, "samples": 40, "seed": 42})
        assert code == 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")[1:]
        for line in rows:
            n, conj, th2, obs, fam = line.split(",")
            assert float(obs) <= float(conj) + 1e-9


    def test_one_reciprocal_per_candidate(self, tmp_path, monkeypatch):
        calls = []
        taylor_of_f = cli.taylor_of_f
        monkeypatch.setattr(cli, "taylor_of_f", lambda cand: calls.append(cand) or taylor_of_f(cand))
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": 10, "samples": 12, "seed": 3})
        assert code == 0
        kept = json.loads((out / "verify_conjecture.json").read_text())["members_kept"]
        assert kept > 0
        # the extremal candidate and each kept member, once each
        assert len(calls) == kept + 1
        assert len({id(c) for c in calls}) == len(calls)

    def test_truncated_reciprocal_is_the_full_one(self, tmp_path, monkeypatch):
        # each candidate is inverted from q_0..q_{n_max-1} only; the table
        # and the coefficients equal those of the full-order reciprocal
        n_max, lam = 10, 0.5
        built, inverted = [], []
        for name in ("q_from_phi", "q_from_omega"):
            make = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, make=make, **k: built.append(make(*a, **k)) or built[-1])
        taylor_of_f = cli.taylor_of_f
        monkeypatch.setattr(cli, "taylor_of_f", lambda cand: inverted.append((cand, taylor_of_f(cand))) or inverted[-1][1])
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": lam, "n_max": n_max, "samples": 12, "seed": 3})
        assert code == 0
        full = iter(built)
        coeffs = []
        for cand, got in inverted:
            assert cand.q.order == n_max - 1
            # the candidate it was cut from, in the order they were built
            source = next(c for c in full if np.array_equal(c.q.coeffs[:n_max], cand.q.coeffs))
            expect = taylor_of_f(source).coeffs
            assert np.array_equal(got.coeffs, expect[:n_max])
            coeffs.append(expect)
        rows = []
        for n in range(2, n_max + 1):
            obs = [abs(a[n - 1]) for a in coeffs]
            best = int(np.argmax(obs))
            rows.append((n, bounds.conjecture_bound(n, lam), bounds.theorem2_bound(n, lam),
                         float(obs[best]), "extremal" if best == 0 else "random"))
        assert (out / "bounds.csv").read_text() == bounds.BoundTable(rows).to_csv()

    def test_boundary_excess_draw_dropped(self, tmp_path, monkeypatch):
        # seed 195 draws the phi of BOUNDARY_EXCESS_PHI, which the sweep kept;
        # it sets no row's maximum, so the table does not move
        cfg = {"lambda": 1.0, "n_max": 10, "samples": 16, "seed": 195}
        code, out = run(tmp_path, "verify-conjecture", cfg, outdir="new")
        assert code == 0
        assert json.loads((out / "verify_conjecture.json").read_text())["members_kept"] == 10
        monkeypatch.setattr(cli, "generator_verdict", sweep_verdict)
        code, old = run(tmp_path, "verify-conjecture", cfg, outdir="old")
        assert code == 0
        assert json.loads((old / "verify_conjecture.json").read_text())["members_kept"] == 11
        assert (out / "bounds.csv").read_bytes() == (old / "bounds.csv").read_bytes()

    def test_grid_reported_unused(self, tmp_path):
        cfg = {"lambda": 0.5, "n_max": 6, "samples": 4, "seed": 2}
        _, plain = run(tmp_path, "verify-conjecture", cfg, outdir="plain")
        _, gridded = run(tmp_path, "verify-conjecture", {**cfg, "grid": {"radii": [0.5], "angles": 1}},
                         outdir="gridded")
        report = json.loads((gridded / "verify_conjecture.json").read_text())
        assert report.pop("unused") == {"grid": {"radii": [0.5], "angles": 1}}
        assert report == json.loads((plain / "verify_conjecture.json").read_text())
        assert (plain / "bounds.csv").read_bytes() == (gridded / "bounds.csv").read_bytes()
        code, _ = run(tmp_path, "verify-conjecture", {**cfg, "grid": {"angles": 2.5}}, outdir="bad")
        assert code == 4

    @pytest.mark.parametrize("n_max", [1, 0, -2])
    def test_no_rows_below_two(self, tmp_path, n_max):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": n_max, "samples": 3, "seed": 1})
        assert code == 0
        assert (out / "bounds.csv").read_text() == "n,conjecture,theorem2,observed_max,family\n"


# lambda = 1 and a phi whose boundary maximum exceeds 1; verify-conjecture
# draws it on seed 195
BOUNDARY_EXCESS_PHI = {
    "type": "phi",
    "phi": {"kind": "poly",
            "coeffs": [0, [-0.9883178170007982, -0.10675812160893149],
                       [0.21784328856907229, 0.029515181842464832]]},
}


def sweep_verdict(cand):
    """The rule ``generator_verdict`` replaced: the default order-64 sweep,
    and for omega candidates the zero count as well."""
    verdict = core.sup_u(cand).verdict
    if cand.provenance == "omega" and core.count_disk_zeros(cand):
        verdict = "Outside"
    return core.GeneratorVerdict(verdict, "sweep", 0.0)


class TestMembership:
    def test_extremal_inside(self, tmp_path):
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5, "candidate": {"type": "extremal"}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Inside"

    def test_z_squared_outside(self, tmp_path):
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5,
                         "candidate": {"type": "phi",
                                       "phi": {"kind": "monomial", "theta": math.pi, "k": 2}}})
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside"

    def test_omega_candidate(self, tmp_path):
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.7,
                         "candidate": {"type": "omega", "a2": 0.9,
                                       "omega": {"kind": "poly", "coeffs": [0.0],
                                                 "normalizer": 1.0}}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert rep["q_disk_zeros"] == 0

    def test_pole_carrying_candidate_outside(self, tmp_path):
        # the operator stays below threshold for every (a2, omega) pair, but
        # this q vanishes inside the disk, so f = z/q has a pole there
        cfg = {"lambda": 0.3,
               "candidate": {"type": "omega",
                             "a2": [0.3007386830957319, 0.8294213293396829],
                             "omega": {"kind": "moebius",
                                       "a": [0.5268221954758235, -0.09810406994221266],
                                       "psi": 5.611645507023389}}}
        code, out = run(tmp_path, "membership", cfg)
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside"
        assert rep["path"] == "zero_count"
        assert rep["q_disk_zeros"] == 1
        # the sweep, which the zero-count path no longer runs, stays below
        # the threshold on this candidate
        cand = core.q_from_omega(0.3007386830957319 + 0.8294213293396829j, 0.3,
                                 MoebiusShift(a=0.5268221954758235 - 0.09810406994221266j,
                                              psi=5.611645507023389))
        assert core.sup_u(cand).sup_estimate < 0.3

    def test_near_boundary_moebius_omega_inside(self, tmp_path):
        # U = -lam z^2 omega is below lam everywhere and q has no zero; the
        # order-64 sweep read 0.796 here and called it Outside
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.7,
                         "candidate": {"type": "omega", "a2": 0.5,
                                       "omega": {"kind": "moebius", "a": 0.98}}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert rep == {"path": "zero_count", "q_disk_zeros": 0, "verdict": "Inside"}

    def test_z_squared_on_a_one_point_grid_outside(self, tmp_path):
        # the one-point grid at r = 0.5 used to read 0.469 < 0.5 and exit 0
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5,
                         "candidate": {"type": "phi",
                                       "phi": {"kind": "monomial", "theta": math.pi, "k": 2}},
                         "grid": {"radii": [0.5], "angles": 1}})
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside" and rep["path"] == "boundary_max"
        assert abs(rep["boundary_max"] - 3.0) < 1e-12 and rep["t"] == 0.0
        assert rep["unused"] == {"grid": {"radii": [0.5], "angles": 1}}

    def test_boundary_excess_outside(self, tmp_path):
        # the boundary maximum is 1.00232 > lambda, while the sweep's outer
        # circle, r = 0.999, read 0.99953 and exited 0
        code, out = run(tmp_path, "membership", {"lambda": 1.0, "candidate": BOUNDARY_EXCESS_PHI})
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside" and rep["path"] == "boundary_max"
        assert 1.0023 < rep["boundary_max"] < 1.0024
        assert "unused" not in rep

    @pytest.mark.parametrize("extra,unused", [
        ({"order": 2}, {"order": 2}),
        ({"grid": {"angles": 90}, "order": 128},
         {"grid": {"radii": list(core.DEFAULT_RADII), "angles": 90}, "order": 128}),
    ])
    @pytest.mark.parametrize("candidate", [
        {"type": "extremal"},
        {"type": "phi", "phi": {"kind": "monomial", "theta": 1.0, "k": 1}},
    ])
    def test_unused_keys_reported(self, tmp_path, candidate, extra, unused):
        code, out = run(tmp_path, "membership", {"lambda": 0.5, "candidate": candidate, **extra})
        assert code == 0
        assert json.loads((out / "membership.json").read_text())["unused"] == unused

    def test_omega_order_truncates_q(self, tmp_path):
        # the zeros counted are those of q truncated at the given order: at
        # order 2 this q is 1 - 1.45 z + 0.35 z^2, with a zero at 0.874; from
        # order 3 on it has none
        cfg = {"lambda": 0.7,
               "candidate": {"type": "omega", "a2": 1.45, "omega": {"kind": "moebius", "a": 0.5}}}
        code, out = run(tmp_path, "membership", {**cfg, "order": 2, "grid": {"angles": 90}}, outdir="low")
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["q_disk_zeros"] == 1
        assert rep["unused"] == {"grid": {"radii": list(core.DEFAULT_RADII), "angles": 90}}
        for extra in ({}, {"order": 3}):
            code, out = run(tmp_path, "membership", {**cfg, **extra}, outdir=f"high{len(extra)}")
            assert code == 0
            assert json.loads((out / "membership.json").read_text()) == {
                "path": "zero_count", "q_disk_zeros": 0, "verdict": "Inside"}
        code, _ = run(tmp_path, "membership", {**cfg, "order": 1}, outdir="bad")
        assert code == 4


@pytest.fixture
def no_sweep(monkeypatch):
    """``sup_u`` raises wherever the package binds it: the verdicts of phi
    and omega candidates come from their representations, never a sweep."""
    def sweep(*args, **kwargs):
        raise AssertionError("sup_u called")

    bound = [mod for name, mod in sys.modules.items()
             if (name == "ulambda" or name.startswith("ulambda.")) and hasattr(mod, "sup_u")]
    assert core in bound and cli not in bound
    for mod in bound:
        monkeypatch.setattr(mod, "sup_u", sweep)


# the README's membership candidates, with their exit codes
README_MEMBERSHIP = [
    ({"lambda": 0.5, "candidate": {"type": "extremal"}}, 0),
    ({"lambda": 0.5, "candidate": {"type": "phi",
                                   "phi": {"kind": "monomial", "theta": math.pi, "k": 2}}}, 2),
    ({"lambda": 0.7, "candidate": {"type": "omega", "a2": [0.9, 0.1],
                                   "omega": {"kind": "moebius", "a": 0.3, "psi": 0.0}}}, 0),
]


@pytest.mark.usefixtures("no_sweep")
class TestNoSweep:
    def test_verify_conjecture_readme_config(self, tmp_path):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": 10, "samples": 100, "seed": 7})
        assert code == 0
        assert json.loads((out / "verify_conjecture.json").read_text())["violations"] == 0

    @pytest.mark.parametrize("cfg,expect", README_MEMBERSHIP)
    def test_membership_readme_candidates(self, tmp_path, cfg, expect):
        code, _ = run(tmp_path, "membership", cfg)
        assert code == expect


def test_phi_verdicts_build_no_q(tmp_path, monkeypatch):
    # a phi or extremal candidate is decided by phi alone in membership and
    # julia, so neither builds the candidate's truncated q
    def build(*args, **kwargs):
        raise AssertionError("q_from_phi called")

    monkeypatch.setattr(cli, "q_from_phi", build)
    for cfg, expect in README_MEMBERSHIP[:2]:
        code, _ = run(tmp_path, "membership", cfg)
        assert code == expect
    code, out = run(tmp_path, "julia", {"lambda": 0.5, "phi": {"kind": "monomial", "theta": math.pi, "k": 2},
                                        "theta0": 0.0})
    assert code == 0
    assert json.loads((out / "julia.json").read_text())["membership"]["verdict"] == "Outside"


@pytest.mark.usefixtures("no_sweep")
class TestJulia:
    def test_z_squared(self, tmp_path):
        code, out = run(tmp_path, "julia",
                        {"lambda": 0.5,
                         "phi": {"kind": "monomial", "theta": math.pi, "k": 2},
                         "theta0": 0.0})
        assert code == 0
        rep = json.loads((out / "julia.json").read_text())
        assert abs(rep["m"] - 2) < 1e-10
        assert abs(rep["obstruction_value"] - 3.0) < 1e-10
        assert rep["membership"]["verdict"] == "Outside"

    def test_blaschke(self, tmp_path):
        code, out = run(tmp_path, "julia",
                        {"lambda": 0.25,
                         "phi": {"kind": "blaschke", "zeros": [[0, 0], [0.5, 0]],
                                 "rotation": math.pi},
                         "theta0": 0.0})
        assert code == 0
        rep = json.loads((out / "julia.json").read_text())
        assert abs(rep["obstruction_value"] - 5.5) < 1e-10

    def test_extremal_generator_is_borderline(self, tmp_path):
        # phi = -z gives m = 1, so the obstruction collapses to lambda and the
        # candidate stays a member
        code, out = run(tmp_path, "julia",
                        {"lambda": 0.5,
                         "phi": {"kind": "monomial", "theta": math.pi, "k": 1},
                         "theta0": 0.0})
        assert code == 0
        rep = json.loads((out / "julia.json").read_text())
        assert abs(rep["obstruction_value"] - 0.5) < 1e-10
        assert rep["membership"]["verdict"] == "Inside"

    def test_unnormalized_boundary_point_rejected(self, tmp_path):
        # phi(1) != -1 violates the boundary normalization
        code, _ = run(tmp_path, "julia",
                      {"lambda": 0.5,
                       "phi": {"kind": "monomial", "theta": 0.3, "k": 1},
                       "theta0": 0.0})
        assert code == 3


class TestRegionA2:
    def test_unit_circle_queries(self, tmp_path):
        code, out = run(tmp_path, "region-a2",
                        {"lambda": 0.5, "resolution": 128,
                         "omega": {"kind": "poly", "coeffs": [0.0], "normalizer": 1.0},
                         "queries": [[0.9, 0], [1.1, 0]]})
        assert code == 0
        rep = json.loads((out / "region.json").read_text())
        assert rep["queries"][0]["where"] == "inside"
        assert rep["queries"][1]["where"] == "outside"
        # omega = 0 makes the curve the unit circle: the distance is to it,
        # not to the 128-gon, which lies up to 3e-4 inside
        assert [abs(q["distance_to_curve"] - 0.1) < 1e-15 for q in rep["queries"]] == [True, True]
        assert (out / "region.csv").read_text().startswith("theta,re,im")
        assert (out / "region.svg").read_text().startswith("<svg")

    def test_moebius_bound_query(self, tmp_path):
        from ulambda.bounds import v_of_x

        lam, a = 0.5, 0.5
        code, out = run(tmp_path, "region-a2",
                        {"lambda": lam, "resolution": 256,
                         "omega": {"kind": "moebius", "a": a, "psi": 0.0},
                         "queries": [[1 + lam * v_of_x(a), 0.0]]})
        assert code == 0
        rep = json.loads((out / "region.json").read_text())
        # the sharp a2 sits on (numerically: next to) the curve
        assert rep["queries"][0]["distance_to_curve"] < 1e-3


class TestNearUnitBasePoint:
    """A Moebius omega with |a| = 1 - 1e-10 is not degenerate, and its pole
    -1/conj(a) lies 1e-10 beyond the circle.  The exact primitive guards no
    branch point, so the configs that integrate omega finish.  b_a keeps its
    guard, but sharpness evaluates it only at t0 = arg a and inside the
    disk, far from conj(a) z = -1, so it finishes too."""

    OMEGA = {"kind": "moebius", "a": 0.9999999999}

    @pytest.mark.parametrize("psi", [0.0, 2.0])
    def test_region(self, tmp_path, psi):
        code, out = run(tmp_path, "region-a2",
                        {"lambda": 0.5, "omega": {**self.OMEGA, "psi": psi}, "queries": [0.1, 3.0]})
        assert code == 0
        where = [q["where"] for q in json.loads((out / "region.json").read_text())["queries"]]
        assert where == ["inside", "outside"]

    @pytest.mark.parametrize("psi", [0.0, 2.0])
    def test_fixed_point(self, tmp_path, psi):
        code, out = run(tmp_path, "fixed-point",
                        {"lambda": 0.5, "a2": 2.5, "omega": {**self.OMEGA, "psi": psi}})
        assert code == 0
        assert json.loads((out / "fixed_point.json").read_text())["q_residual"] < 1e-9

    def test_sharpness(self, tmp_path):
        code, out = run(tmp_path, "sharpness", {"lambda": 0.5, "a": 0.9999999999})
        assert code == 0
        rep = json.loads((out / "sharpness.json").read_text())
        assert rep["refined_a2"]["g_at_1_abs"] <= 1e-8
        assert rep["refined_a2"]["bound_residual"] <= 1e-8
        assert rep["region_a2"]["d_boundary_residual"] <= 1e-8
        assert rep["region_a2"]["a2_bound_residual"] <= 1e-8


class TestFRoots:
    def test_grid_consistency(self, tmp_path):
        code, out = run(tmp_path, "f-roots", {"lambda_count": 20, "R_count": 20})
        assert code == 0
        lines = (out / "f_roots.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,R,root,r_star"

    def test_spec_cases(self, tmp_path):
        code, out = run(tmp_path, "f-roots",
                        {"lambdas": [0.3, 0.75], "Rs": [0.3, 0.34, 0.5]})
        assert code == 0
        rows = {}
        for line in (out / "f_roots.csv").read_text().strip().split("\n")[1:]:
            lam, R, root, thr = line.split(",")
            rows[(round(float(lam), 3), round(float(R), 3))] = root
        assert abs(float(rows[(0.3, 0.5)]) - 0.22504) < 1e-4
        assert rows[(0.75, 0.3)] == ""
        assert rows[(0.75, 0.34)] != ""


class TestSharpness:
    def test_residuals(self, tmp_path):
        code, out = run(tmp_path, "sharpness", {"lambda": 0.5, "a": 0.5})
        assert code == 0
        rep = json.loads((out / "sharpness.json").read_text())
        assert rep["refined_a2"]["g_at_1_abs"] < 1e-8
        assert rep["region_a2"]["d_boundary_residual"] < 1e-8

    def test_high_lambda_small_a(self, tmp_path):
        code, out = run(tmp_path, "sharpness", {"lambda": 0.9, "a": 0.1})
        assert code == 0

    def test_degenerate_a_zero(self, tmp_path):
        code, out = run(tmp_path, "sharpness", {"lambda": 0.6, "a": 0.0})
        assert code == 0
        rep = json.loads((out / "sharpness.json").read_text())
        a2 = complex(*rep["region_a2"]["a2"])
        assert abs(abs(a2) - (1 + 0.6 / 2)) < 1e-9

    def test_one_witness(self, tmp_path, monkeypatch):
        # thm5 and thm6 used to build a q_from_omega series each
        calls = []
        build = bounds.q_from_omega
        monkeypatch.setattr(bounds, "q_from_omega", lambda *a, **k: calls.append(a) or build(*a, **k))
        code, _ = run(tmp_path, "sharpness", {"lambda": 0.5, "a": 0.5})
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("a", [0.5, [0.3, 0.0], [0.8, 1e-16]])
    def test_real_a_sections_describe_one_f(self, tmp_path, a):
        # an imaginary part below 1e-15 used to give thm6 a witness of its own
        code, out = run(tmp_path, "sharpness", {"lambda": 1.0, "a": a})
        assert code == 0
        rep = json.loads((out / "sharpness.json").read_text())
        refined, region = rep["refined_a2"], rep["region_a2"]
        assert region["a2"] == [refined["a2"], 0.0]
        assert region["theta"] == region["psi"] == 0.0
        assert refined["min_interior_abs_g"] == region["min_interior_abs_d"]

    def test_complex_a_has_no_refined_section(self, tmp_path):
        code, out = run(tmp_path, "sharpness", {"lambda": 0.5, "a": [0.3, -0.2]})
        assert code == 0
        assert set(json.loads((out / "sharpness.json").read_text())) == {"lambda", "a", "region_a2"}


class TestFixedPoint:
    def test_trace_and_zero(self, tmp_path):
        code, out = run(tmp_path, "fixed-point",
                        {"lambda": 0.5, "a2": 1.5625,
                         "omega": {"kind": "poly", "coeffs": [0, 1.0], "normalizer": 1.0}})
        assert code == 0
        rep = json.loads((out / "fixed_point.json").read_text())
        assert rep["q_residual"] < 1e-9
        assert len(rep["residuals"]) == rep["iterations"]

    def test_q_residual_from_the_representation(self, tmp_path, monkeypatch):
        # q(z0) = 1 - a2 z0 + lam z0 int_0^z0 omega by quadrature; no truncated q is built
        def build(*args, **kwargs):
            raise AssertionError("q_from_omega called")

        monkeypatch.setattr(cli, "q_from_omega", build)
        omega = {"kind": "moebius", "a": [0.3, 0.4], "psi": 1.0}
        code, out = run(tmp_path, "fixed-point", {"lambda": 0.6, "a2": [2.0, 1.0], "omega": omega})
        assert code == 0
        rep = json.loads((out / "fixed_point.json").read_text())
        z0 = complex(*rep["z0"])
        q = 1 - (2 + 1j) * z0 + 0.6 * z0 * gauss_legendre(MoebiusShift(0.3 + 0.4j, 1.0), z0)
        assert abs(rep["q_residual"] - abs(q)) < 1e-15 and rep["q_residual"] < 1e-12

    def test_q_residual_catches_a_wrong_primitive(self, tmp_path, monkeypatch):
        # fixed_point_zero iterates on the family's primitive; q_residual
        # integrates omega by quadrature, so it does not read 0 regardless
        primitive = MoebiusShift._primitive
        monkeypatch.setattr(MoebiusShift, "_primitive", lambda self, z: primitive(self, z) + 1e-6)
        omega = {"kind": "moebius", "a": [0.3, 0.4], "psi": 1.0}
        code, out = run(tmp_path, "fixed-point", {"lambda": 0.6, "a2": [2.0, 1.0], "omega": omega})
        assert code == 0
        assert json.loads((out / "fixed_point.json").read_text())["q_residual"] > 1e-7

    def test_not_contractive_inconclusive(self, tmp_path):
        code, out = run(tmp_path, "fixed-point",
                        {"lambda": 0.9, "a2": 0.5, "r": 0.9,
                         "omega": {"kind": "poly", "coeffs": [0, 1.0], "normalizer": 1.0}})
        assert code == 3
        assert "error" in json.loads((out / "fixed_point.json").read_text())

    @pytest.mark.parametrize("a2,modulus", [(0, 0.0), (1.1, 1.1), ([0.3, -0.4], 0.5)])
    def test_default_radius_not_below_one(self, tmp_path, a2, modulus):
        # with |a2| <= 1 + lam v the default radius (1 + lam v)/|a2| is >= 1
        # (infinite for a2 = 0): no disk inside the unit disk is mapped into
        # itself, which is the NotContractive outcome
        code, out = run(tmp_path, "fixed-point",
                        {"lambda": 0.5, "a2": a2, "omega": {"kind": "moebius", "a": 0.3}})
        assert code == 3
        text = (out / "fixed_point.json").read_text()
        rep = json.loads(text)
        assert set(rep) == {"error", "r"}
        assert "Infinity" not in text
        if modulus == 0:
            assert rep["r"] is None
        else:
            v = bounds.v_of_omega(MoebiusShift(0.3))
            assert rep["r"] == pytest.approx((1 + 0.5 * v) / modulus, rel=1e-15)
            assert rep["r"] >= 1

    def test_given_radius_keeps_its_checks(self, tmp_path):
        omega = {"kind": "moebius", "a": 0.3}
        # a radius outside (0, 1) is still an error with no JSON
        code, out = run(tmp_path, "fixed-point", {"lambda": 0.5, "a2": 1.1, "r": 1.5, "omega": omega})
        assert code == 3 and not (out / "fixed_point.json").exists()
        # a2 = 0 with a given radius reports NotContractive, not a traceback
        code, out = run(tmp_path, "fixed-point", {"lambda": 0.5, "a2": 0, "r": 0.5, "omega": omega}, outdir="zero")
        assert code == 3
        assert json.loads((out / "fixed_point.json").read_text())["r"] == 0.5

    @pytest.mark.parametrize("extra,code,keys", [
        ({}, 0, {"z0", "iterations", "residuals", "contraction_constant", "v", "r", "q_residual"}),
        ({"r": 0.8}, 0, {"z0", "iterations", "residuals", "contraction_constant", "v", "r", "q_residual"}),
        ({"lambda": 0.9, "a2": 0.5, "r": 0.9}, 3, {"error", "r"}),
    ])
    def test_one_boundary_scan_per_run(self, tmp_path, monkeypatch, extra, code, keys):
        calls = []
        v_of_omega = bounds.v_of_omega
        monkeypatch.setattr(bounds, "v_of_omega", lambda *a, **k: calls.append(a) or v_of_omega(*a, **k))
        cfg = {"lambda": 0.5, "a2": 1.5625,
               "omega": {"kind": "poly", "coeffs": [0, 1.0], "normalizer": 1.0}, **extra}
        got, out = run(tmp_path, "fixed-point", cfg)
        assert got == code
        assert len(calls) == 1
        assert set(json.loads((out / "fixed_point.json").read_text())) == keys


# the README's -z^2 configs
Z_SQUARED = {
    "membership": {"lambda": 0.5,
                   "candidate": {"type": "phi",
                                 "phi": {"kind": "monomial", "theta": math.pi, "k": 2}}},
    "julia": {"lambda": 0.5, "phi": {"kind": "monomial", "theta": math.pi, "k": 2},
              "theta0": 0.0},
}


class TestHarness:
    def test_config_error_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "membership", {"lambda": 0.5})
        assert code == 4

    def test_empty_grid_is_a_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "membership",
                      {"lambda": 0.5, "candidate": {"type": "extremal"}, "grid": {"angles": 0}})
        assert code == 4
        assert "angles must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", [2.9, True, 720.0, "720"])
    def test_non_integral_angles_are_a_config_error(self, tmp_path, capsys, angles):
        # 2.9 used to run a 2-angle sweep
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5, "candidate": {"type": "extremal"}, "grid": {"angles": angles}})
        assert code == 4
        assert "angles must be an integer" in capsys.readouterr().err
        assert not (out / "membership.json").exists()

    def test_integral_angles_accepted(self, tmp_path):
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5, "candidate": {"type": "extremal"}, "grid": {"angles": 720}})
        assert code == 0
        # validated, then reported as not read by the verdict
        assert json.loads((out / "membership.json").read_text())["unused"]["grid"]["angles"] == 720

    @pytest.mark.parametrize("command", ["membership", "julia"])
    @pytest.mark.parametrize("order", [0, 1, 2.9, True, "64"])
    def test_bad_order_is_a_config_error(self, tmp_path, capsys, command, order):
        # below order 2 every coefficient (1 - k) q_k of U is 0: -z^2 with
        # order 0 used to come out Inside with exit 0
        code, out = run(tmp_path, command, dict(Z_SQUARED[command], order=order))
        assert code == 4
        assert "order must be an integer >= 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, expect", [("membership", 2), ("julia", 0)])
    def test_order_two_accepted(self, tmp_path, command, expect):
        code, _ = run(tmp_path, command, dict(Z_SQUARED[command], order=2))
        assert code == expect

    @pytest.mark.parametrize("command,cfg,key", [
        # 512.9 used to run at resolution 512, and n_max 6.7 with samples
        # true at n_max 6 with 1 sample, both with exit 0
        ("region-a2", {"resolution": 512.9}, "resolution"),
        ("verify-conjecture", {"n_max": 6.7, "samples": True}, "n_max"),
        ("verify-conjecture", {"samples": True}, "samples"),
        ("verify-conjecture", {"seed": "3"}, "seed"),
        ("f-roots", {"lambda_count": 8.0}, "lambda_count"),
        ("f-roots", {"R_count": False}, "R_count"),
    ])
    def test_non_integral_counts_are_a_config_error(self, tmp_path, capsys, command, cfg, key):
        base = {"lambda": 0.5, "omega": {"kind": "moebius", "a": 0.3}}
        code, out = run(tmp_path, command, {**base, **cfg})
        assert code == 4
        err = capsys.readouterr().err
        assert f"{key} must be an integer" in err and f"got {cfg[key]!r}" in err
        assert list(out.iterdir()) == []

    def test_region_resolution_below_64_is_a_config_error(self, tmp_path, capsys):
        # c_omega_curve's OutOfRange used to exit 3, inconclusive
        code, out = run(tmp_path, "region-a2",
                        {"lambda": 0.5, "resolution": 32, "omega": {"kind": "moebius", "a": 0.3}})
        assert code == 4
        assert "resolution must be an integer >= 64, got 32" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("query", [[float("nan"), 0.0], [0.5, float("inf")]])
    def test_region_non_finite_query_is_a_config_error(self, tmp_path, capsys, query):
        # it used to exit 0 with "outside" and a NaN distance
        code, out = run(tmp_path, "region-a2",
                        {"lambda": 0.5, "omega": {"kind": "moebius", "a": 0.3}, "queries": [[0.1, 0.0], query]})
        assert code == 4
        assert "queries must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,cfg", [
        # each used to escape main as a traceback (exit 1)
        ("fixed-point", {"a2": None}),
        ("fixed-point", {"a2": [2.5]}),
        ("region-a2", {"queries": [[1]]}),
        ("julia", {"phi": {"kind": "blaschke", "zeros": [0, [0.5]]}}),
        ("sharpness", {"a": {"re": 0.5}}),
        ("sharpness", {"a": [0.5]}),
        ("membership", {"candidate": {"type": "omega", "a2": 2.5, "omega": "moebius"}}),
        # each used to exit 3, inconclusive
        ("fixed-point", {"omega": {"kind": "moebius", "a": 1.5}}),
        ("region-a2", {"omega": {"kind": "blaschke", "zeros": [0.5, [0.0, 1.0]]}}),
        # each used to exit 0 and write sharpness.json with no construction
        ("sharpness", {"a": 1.5}),
        ("sharpness", {"a": 1.0}),
        ("sharpness", {"a": [0, 1]}),
    ])
    def test_malformed_input_is_a_config_error(self, tmp_path, command, cfg):
        base = {"lambda": 0.5, "a2": 2.5, "omega": {"kind": "moebius", "a": 0.3}}
        code, out = run(tmp_path, command, {**base, **cfg})
        assert code == 4
        assert list(out.iterdir()) == []

    def test_threads_variable_is_not_read(self, tmp_path, monkeypatch):
        # it used to be validated (0 exited 4) and then never used
        monkeypatch.setenv("ULAMBDA_THREADS", "0")
        code, _ = run(tmp_path, "membership", {"lambda": 0.5, "candidate": {"type": "extremal"}})
        assert code == 0

    def test_missing_config_file(self, tmp_path):
        code = main(["membership", "--config", str(tmp_path / "nope.json")])
        assert code == 4

    @pytest.mark.parametrize("command,cfg", [
        ("verify-conjecture", {"lambda": 0.4, "n_max": 6, "samples": 10, "seed": 7}),
        ("membership", {"lambda": 0.5, "candidate": {"type": "extremal"}}),
        ("f-roots", {"lambda_count": 8, "R_count": 8}),
        ("region-a2", {"lambda": 0.5, "resolution": 64,
                       "omega": {"kind": "moebius", "a": 0.3, "psi": 0.2},
                       "queries": [[0.5, 0.5]]}),
    ])
    def test_determinism(self, tmp_path, command, cfg):
        _, out1 = run(tmp_path, command, cfg, outdir="out1")
        _, out2 = run(tmp_path, command, cfg, outdir="out2")
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()
