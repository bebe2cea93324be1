import cmath
import json
import math
import sys
import warnings

import numpy as np
import pytest
from test_bounds import reference_csv, reference_svg
from test_diskfun import mp_blaschke_integral

from ulambda import bounds, cli, core
from ulambda.cli import main
from ulambda.diskfun import Monomial, MoebiusShift, antiderivative, diskfun_from_json, gauss_legendre
from ulambda.errors import OutOfRange
from ulambda.geometry import INSIDE
from ulambda.series import TruncatedSeries, series_reciprocal_rows


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
        reciprocal_rows = cli.series_reciprocal_rows
        monkeypatch.setattr(cli, "series_reciprocal_rows", lambda q: calls.append(q) or reciprocal_rows(q))
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": 10, "samples": 12, "seed": 3})
        assert code == 0
        kept = json.loads((out / "verify_conjecture.json").read_text())["members_kept"]
        assert kept > 0
        # one call, with a row for the extremal candidate and for each kept
        # member, once each
        [q] = calls
        assert len(q) == kept + 1
        assert len({row.tobytes() for row in q}) == len(q)

    def test_truncated_reciprocal_is_the_full_one(self, tmp_path, monkeypatch):
        # each candidate is built and inverted at order n_max - 1 only; the
        # table and the coefficients equal those of the order-64 reciprocal
        # of the same candidate, which ``built`` records
        n_max, lam = 10, 0.5
        built, inverted = [], []
        make_phi, make_omega = cli.q_from_phi, cli.q_rows_from_omega
        monkeypatch.setattr(cli, "q_from_phi", lambda *a, **k: built.append(
            make_phi(*a, **{**k, "order": 64}).q.coeffs) or make_phi(*a, **k))
        monkeypatch.setattr(cli, "q_rows_from_omega", lambda *a, **k: built.extend(
            make_omega(*a, **{**k, "order": 64})) or make_omega(*a, **k))
        reciprocal_rows = cli.series_reciprocal_rows
        monkeypatch.setattr(cli, "series_reciprocal_rows", lambda q: inverted.append(
            (q, reciprocal_rows(q))) or inverted[-1][1])
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": lam, "n_max": n_max, "samples": 12, "seed": 3})
        assert code == 0
        [(q, got)] = inverted
        full = iter(built)
        coeffs = []
        for row, got_row in zip(q, got):
            assert len(row) == n_max
            # the candidate it was cut from, in the order they were built
            source = next(c for c in full if np.array_equal(c[:n_max], row))
            expect = series_reciprocal_rows(source[None])[0]
            assert np.array_equal(got_row, expect[:n_max])
            coeffs.append(expect)
        assert len(coeffs) == len(q) > 1
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
        monkeypatch.setattr(cli, "phi_verdicts",
                            lambda lam, phis: [sweep_verdict(core.q_from_phi(lam, phi)) for phi in phis])
        code, old = run(tmp_path, "verify-conjecture", cfg, outdir="old")
        assert code == 0
        assert json.loads((old / "verify_conjecture.json").read_text())["members_kept"] == 11
        assert (out / "bounds.csv").read_bytes() == (old / "bounds.csv").read_bytes()

    def test_phi_q_built_only_once_kept(self, tmp_path, monkeypatch):
        # a phi draw is decided from phi alone; only the extremal candidate
        # and each kept draw get a q, and only at the order the table reads
        n_max = 7
        decided, built = [], []
        verdicts, make = cli.phi_verdicts, cli.q_from_phi
        monkeypatch.setattr(cli, "phi_verdicts", lambda lam, phis: [
            decided.append((phi, v)) or v for phi, v in zip(phis, verdicts(lam, phis))])
        monkeypatch.setattr(cli, "q_from_phi", lambda lam, phi, order: built.append((phi, order)) or make(lam, phi, order))
        code, _ = run(tmp_path, "verify-conjecture", {"lambda": 0.5, "n_max": n_max, "samples": 24, "seed": 3})
        assert code == 0
        kept = [phi for phi, v in decided if v.verdict == "Inside"]
        assert len(decided) == 24 and 0 < len(kept) < 24
        assert built[0][0] == Monomial(theta=math.pi, k=1) and len(built) == 1 + len(kept)
        assert all(phi is draw for (phi, _), draw in zip(built[1:], kept))
        assert all(order == n_max - 1 for _, order in built)

    def test_omega_q_built_only_once_kept(self, tmp_path, monkeypatch):
        # an omega draw is decided on |z| = 1 by bounds.omega_verdicts, which
        # takes no order (the stand-in below accepts none); only each kept
        # draw gets a q of the CLI's own, the one the table reads
        n_max = 7
        decided, built = [], []
        verdicts, make = bounds.omega_verdicts, cli.q_rows_from_omega
        monkeypatch.setattr(bounds, "omega_verdicts", lambda lam, a2s, omegas: [
            decided.append((omega, v)) or v for omega, v in zip(omegas, verdicts(lam, a2s, omegas))])
        monkeypatch.setattr(cli, "q_rows_from_omega", lambda a2s, lam, omegas, order: built.extend(
            (omega, order) for omega in omegas) or make(a2s, lam, omegas, order))
        code, _ = run(tmp_path, "verify-conjecture", {"lambda": 0.5, "n_max": n_max, "samples": 24, "seed": 4})
        assert code == 0
        assert len(decided) == 24
        kept = [omega for omega, v in decided if v.verdict == "Inside"]
        assert 0 < len(kept) < 24 and len(built) == len(kept)
        assert all(omega is draw for (omega, _), draw in zip(built, kept))
        assert all(order == n_max - 1 for _, order in built)

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

    def test_inconclusive_draw_rejected(self, tmp_path, monkeypatch):
        # seed 35's sixth omega draw at lambda 1, a polynomial, lies 3.4e-4
        # outside gamma, and only the halving of the failing arcs proves it
        # Outside; without the halving it is Inconclusive, which rejects the
        # draw as Outside does, never exit 3
        cfg = {"lambda": 1.0, "n_max": 6, "samples": 16, "seed": 35}
        verdicts = []
        decide = bounds.omega_verdicts
        monkeypatch.setattr(bounds, "omega_verdicts", lambda *a: [verdicts.append(v) or v for v in decide(*a)])
        code, plain = run(tmp_path, "verify-conjecture", cfg, outdir="plain")
        assert code == 0
        assert ["total_samples" in v.budget for v in verdicts].count(True) == 1
        assert (verdicts[5].verdict, verdicts[5].budget["samples"]) == ("Outside", 256)
        assert 256 < verdicts[5].budget["total_samples"] < 256 + 20
        verdicts.clear()
        monkeypatch.setattr(core, "_halve", lambda sample_at, vals, size, slope, judged: judged)
        code, out = run(tmp_path, "verify-conjecture", cfg, outdir="unhalved")
        assert code == 0
        assert verdicts[5].verdict == "Inconclusive"
        for name in ("bounds.csv", "verify_conjecture.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("n_max", [1, 0, -2])
    def test_no_rows_below_two(self, tmp_path, n_max):
        code, out = run(tmp_path, "verify-conjecture",
                        {"lambda": 0.5, "n_max": n_max, "samples": 3, "seed": 1})
        assert code == 0
        assert (out / "bounds.csv").read_text() == "n,conjecture,theorem2,observed_max,family\n"

    def test_observed_max_is_abs_bit_for_bit(self, tmp_path, monkeypatch):
        # each observed_max is abs() of the first candidate's coefficient that
        # attains it, the table that a loop over the candidates writes;
        # numpy's array abs differs from abs() in the last bit for about a
        # third of complex values
        n_max, lam = 40, 0.5
        inverted = []

        def reciprocal_rows(q, rows=cli.series_reciprocal_rows):
            # each row as a series, whose items are Python complex numbers
            a = rows(q)
            inverted.extend(map(TruncatedSeries, a))
            return a

        monkeypatch.setattr(cli, "series_reciprocal_rows", reciprocal_rows)
        code, out = run(tmp_path, "verify-conjecture", {"lambda": lam, "n_max": n_max, "samples": 100, "seed": 5})
        assert code in (0, 2)
        assert len(inverted) > 50
        rows = []
        for n in range(2, n_max + 1):
            best, family = -1.0, None
            for i, series in enumerate(inverted):
                if abs(series[n - 1]) > best:
                    best, family = abs(series[n - 1]), "random" if i else "extremal"
            rows.append((n, bounds.conjecture_bound(n, lam), bounds.theorem2_bound(n, lam), best, family))
        assert (out / "bounds.csv").read_text() == bounds.BoundTable(rows).to_csv()

    def test_ties_go_to_the_extremal_candidate(self, tmp_path, monkeypatch):
        # every candidate inverted to the extremal one's coefficients ties it
        # in every row, and the first, the extremal one, attains each
        n_max = 8
        reciprocal_rows = cli.series_reciprocal_rows
        monkeypatch.setattr(cli, "series_reciprocal_rows", lambda q: np.tile(reciprocal_rows(q)[:1], (len(q), 1)))
        code, out = run(tmp_path, "verify-conjecture", {"lambda": 0.5, "n_max": n_max, "samples": 12, "seed": 3})
        assert code == 0
        assert json.loads((out / "verify_conjecture.json").read_text())["members_kept"] > 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == ["extremal"] * (n_max - 1)


# lambda = 1 and a phi whose boundary maximum exceeds 1; verify-conjecture
# draws it on seed 195
BOUNDARY_EXCESS_PHI = {
    "type": "phi",
    "phi": {"kind": "poly",
            "coeffs": [0, [-0.9883178170007982, -0.10675812160893149],
                       [0.21784328856907229, 0.029515181842464832]]},
}


def sweep_verdict(cand):
    """The rule ``phi_verdict`` replaced: the default order-64 sweep."""
    return core.GeneratorVerdict(core.sup_u(cand).verdict, "sweep", 0.0)


class TestRandomPoint:
    @staticmethod
    def two_calls(rng, radius):
        # uniform() is the next double v and uniform(0, 2 pi) is 0 + 2 pi v
        return radius * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    def test_one_call_draws_the_two_call_doubles(self):
        for seed in range(200):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for radius in (1.0, 0.8, 0.9, 1.0) * 50:
                got, want = cli._random_point(mine, radius), self.two_calls(theirs, radius)
                assert (got.real, got.imag) == (want.real, want.imag)
            assert mine.random() == theirs.random()

    def test_points_of_one_call_are_the_per_point_draws(self):
        # the 2 count doubles of one call, as count points drawn one by one
        for seed in range(200):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for radius, count in ((0.8, 1), (1.0, 9), (0.8, 3), (1.0, 2)) * 10:
                got = cli._random_points(mine, radius, count)
                want = [self.two_calls(theirs, radius) for _ in range(count)]
                assert [(z.real, z.imag) for z in got] == [(z.real, z.imag) for z in want]
            assert mine.random() == theirs.random()


class TestMembership:
    @pytest.mark.parametrize("a2", [1e308, 1e160, [1e200, 1e200]])
    def test_huge_a2_outside_with_finite_budget(self, tmp_path, a2):
        # the mean of |g| over neighbours and the winding's products used to
        # overflow: "min_mean_abs_q": Infinity (not JSON) and a RuntimeWarning
        code, out = run(tmp_path, "membership", {"lambda": 0.5, "candidate": {
            "type": "omega", "a2": a2, "omega": {"kind": "moebius", "a": 0.3}}})
        assert code == 2
        text = (out / "membership.json").read_text()
        rep = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text}"))
        assert (rep["verdict"], rep["path"], rep["q_disk_zeros"], rep["samples"]) == ("Outside", "zero_count", 1, 256)
        assert rep["min_mean_abs_q"] == pytest.approx(abs(complex(*a2) if isinstance(a2, list) else a2), rel=1e-12)

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

    @pytest.mark.parametrize("lam,a2,halved", [(0.7, 0.5, False), (1.0, 0.5, False), (1.0, 1.45, True)])
    def test_near_boundary_moebius_omega_inside(self, tmp_path, lam, a2, halved):
        # U = -lam z^2 omega is below lam everywhere and q has no zero; the
        # order-64 sweep read 0.796 at lambda 0.7 and called it Outside.
        # Samples of the exact q prove the count, and the budget has no
        # truncation tail.  At lambda 1, min |q| on the circle is 7.0e-3 and
        # 1.4e-3: the tail of q's order-64 truncation, 7.2e-3, would hide
        # both.  gamma has a cusp there, which a sampled self-intersection
        # check took for a crossing; locate agrees on both.  1.45 takes the
        # halving of the 256-point pass's failing arcs
        code, out = run(tmp_path, "membership",
                        {"lambda": lam,
                         "candidate": {"type": "omega", "a2": a2,
                                       "omega": {"kind": "moebius", "a": 0.98}}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        halving = {key: rep[key] for key in ("total_samples", "narrowest_arc")} if halved else {}
        assert rep == {"path": "zero_count", "q_disk_zeros": 0, "verdict": "Inside",
                       "samples": 256,
                       "threshold": pytest.approx(2 * math.pi / 256 * (1 + lam) / 2, rel=1e-6),
                       "min_mean_abs_q": rep["min_mean_abs_q"], **halving}
        if halved:
            assert rep["min_mean_abs_q"] <= rep["threshold"]
            assert 256 < rep["total_samples"] < 256 + 20
            assert 2 * math.pi / 256 / 32 < rep["narrowest_arc"] < 2 * math.pi / 256 / 8
        else:
            assert rep["min_mean_abs_q"] > rep["threshold"]
        if lam == 1.0:
            assert bounds.c_omega_curve(MoebiusShift(0.98), lam).locate([0.5, 1.45])[0].tolist() == [INSIDE] * 2

    def test_near_circle_blaschke_omega_inside(self, tmp_path):
        # the zero 0.995 puts a pole 0.005 beyond the circle; the quadrature
        # of gamma was off by 5.5e-5 there and this a2, 2.76e-5 inside
        # gamma, exited 2.  The same function as a Moebius shift was Inside
        omega = {"kind": "blaschke", "zeros": [0.995]}
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.7, "candidate": {"type": "omega", "a2": [0.3338230352176687, 0.0],
                                                      "omega": omega}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["q_disk_zeros"]) == ("Inside", "zero_count", 0)
        codes, distances = bounds.c_omega_curve(diskfun_from_json(omega), 0.7).locate([0.3338230352176687])
        assert codes.tolist() == [INSIDE] and 2.7e-5 < distances[0] < 2.8e-5
        same = bounds.omega_verdict(0.7, 0.3338230352176687, MoebiusShift(-0.995))
        assert (same.verdict, same.path, same.value) == ("Inside", "zero_count", 0)

    @pytest.mark.parametrize("a2, code, verdict", [
        ([0.8462415563639936, -0.34403709731330867], 2, "Outside"),
        ([0.8461879067585139, -0.3440102324695187], 0, "Inside"),
    ])
    def test_zeros_one_ulp_apart(self, tmp_path, a2, code, verdict):
        # a2 3e-5 to either side of gamma (taken at 40 digits) at t = 0.4; as
        # two residue terms of about 7e15 each gamma was off by 3 and both
        # exited 3.  Summed as one cluster, they read as the double zero does
        omega = {"kind": "blaschke", "zeros": [0.5, 0.5000000000000001]}
        got, out = run(tmp_path, "membership",
                       {"lambda": 0.7, "candidate": {"type": "omega", "a2": a2, "omega": omega}})
        assert got == code
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"]) == (verdict, "zero_count")
        distances = bounds.c_omega_curve(diskfun_from_json(omega), 0.7).locate([complex(*a2)])[1]
        assert distances[0] == pytest.approx(3e-5, rel=1e-6)
        double = bounds.omega_verdict(0.7, complex(*a2), diskfun_from_json({"kind": "blaschke", "zeros": [0.5, 0.5]}))
        assert double.verdict == verdict

    def test_z_squared_on_a_one_point_grid_outside(self, tmp_path):
        # the one-point grid at r = 0.5 used to read 0.469 < 0.5 and exit 0
        code, out = run(tmp_path, "membership",
                        {"lambda": 0.5,
                         "candidate": {"type": "phi",
                                       "phi": {"kind": "monomial", "theta": math.pi, "k": 2}},
                         "grid": {"radii": [0.5], "angles": 1}})
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside" and rep["path"] == "closed_form"
        assert rep["boundary_max"] == 3.0 and rep["t"] == 0.0
        assert rep["unused"] == {"grid": {"radii": [0.5], "angles": 1}}

    def test_boundary_excess_outside(self, tmp_path):
        # the boundary maximum is 1.00232 > lambda, while the sweep's outer
        # circle, r = 0.999, read 0.99953 and exited 0
        code, out = run(tmp_path, "membership", {"lambda": 1.0, "candidate": BOUNDARY_EXCESS_PHI})
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        # 256 samples decide it: their largest, 1.00230, exceeds lambda + 1e-6
        assert rep["verdict"] == "Outside" and rep["path"] == "bernstein"
        assert rep["samples"] == 256 and 1.0022 < rep["boundary_max"] < 1.0024
        assert rep["bound"] > rep["boundary_max"] * rep["bernstein_factor"]
        assert "unused" not in rep

    def test_bernstein_band_decided_on_the_last_pass(self, tmp_path):
        # max |U| is within 2 pi d / 4096 (d = 12) of lambda relative: 4096
        # samples bound it by 0.50175 only, and this exited 3; 16384 bound
        # it by 0.49479 < 0.5
        phi = {"kind": "poly", "coeffs": [0, 0.7] + [0] * 10 + [0.01], "normalizer": 1.0}
        code, out = run(tmp_path, "membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": phi}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["samples"]) == ("Inside", "bernstein", 16384)
        assert rep["bernstein_factor"] == pytest.approx(1 / (1 - 2 * math.pi * 12 / 16384), rel=1e-15)
        assert 0.4947 < rep["bound"] < 0.4949
        assert rep["boundary_max"] * rep["bernstein_factor"] <= rep["bound"]

    @pytest.mark.parametrize("phi", [
        {"kind": "poly", "coeffs": [0, 1.0]},
        {"kind": "blaschke", "zeros": [0], "rotation": 2.0},
        {"kind": "moebius", "a": 0, "psi": 1.0},
    ], ids=lambda phi: phi["kind"])
    def test_exact_rotation_inside(self, tmp_path, phi):
        # phi = e^{i theta} z in another family's form reaches lambda on the
        # whole circle, which no sample bound can certify; the closed form does
        code, out = run(tmp_path, "membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": phi}})
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["boundary_max"]) == ("Inside", "closed_form", 0.5)

    @pytest.mark.parametrize("radius", [0.9995, 0.99999])
    @pytest.mark.parametrize("omega", [
        {"kind": "moebius", "a": 0.5},
        {"kind": "moebius", "a": 0.9},
        {"kind": "blaschke", "zeros": [[0.6, 0.3], [-0.5, 0.2]]},
    ], ids=["moebius-0.5", "moebius-0.9", "blaschke"])
    def test_pole_next_to_the_circle_outside(self, tmp_path, omega, radius):
        # a2 = 1/z* + lam W(z*) puts a zero of q, a pole of f, at z*; the
        # zero count on |z| < 0.999 of q truncated at 64 called each Inside
        lam, zs = 0.7, radius * cmath.exp(0.7j)
        a2 = 1 / zs + lam * antiderivative(diskfun_from_json(omega), zs)
        if omega == {"kind": "moebius", "a": 0.5} and radius == 0.9995:
            assert a2 == pytest.approx(1.1002301497359797 - 0.22364822742507573j, abs=1e-15)
        cfg = {"lambda": lam, "candidate": {"type": "omega", "a2": [a2.real, a2.imag], "omega": omega}}
        code, out = run(tmp_path, "membership", cfg)
        assert code == 2
        rep = json.loads((out / "membership.json").read_text())
        assert rep["verdict"] == "Outside"
        # what region-a2 says of the same a2
        _, where = run(tmp_path, "region-a2", {"lambda": lam, "omega": omega, "queries": [[a2.real, a2.imag]]},
                       outdir="region")
        query = json.loads((where / "region.json").read_text())["queries"][0]
        assert query["where"] == "outside"
        assert (rep["path"], rep["q_disk_zeros"]) == ("zero_count", 1)

    @pytest.mark.parametrize("omega", [
        {"kind": "moebius", "a": [0.5, 0.2], "psi": 1.0},
        {"kind": "poly", "coeffs": [0.3, [0.2, 0.4], -0.1]},
    ], ids=["moebius", "poly"])
    def test_zero_just_beyond_the_circle_inside(self, tmp_path, omega):
        # q's zero at |z*| = 1 + 1e-4: f has no pole in the disk.  Each
        # omega's primitive extends past the circle
        lam, zs = 0.7, (1 + 1e-4) * cmath.exp(0.7j)
        a2 = 1 / zs + lam * complex(diskfun_from_json(omega)._primitive(np.asarray(zs)))
        cfg = {"lambda": lam, "candidate": {"type": "omega", "a2": [a2.real, a2.imag], "omega": omega}}
        code, out = run(tmp_path, "membership", cfg)
        assert code == 0
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["q_disk_zeros"]) == ("Inside", "zero_count", 0)
        assert rep["samples"] == 256 and rep["min_mean_abs_q"] <= rep["threshold"]
        assert 256 < rep["total_samples"] < 256 + 20
        distances = bounds.c_omega_curve(diskfun_from_json(omega), lam).locate([a2])[1]
        assert 1e-5 < distances[0] < 1e-3

    def test_on_the_curve_exits_3(self, tmp_path):
        # a2 = gamma(0.7) puts q's zero on the circle: the halving stops at
        # its rounding floor, with no zero count
        zs = cmath.exp(0.7j)
        a2 = 1 / zs + 0.7 * antiderivative(MoebiusShift(0.5), zs)
        code, out = run(tmp_path, "membership", {"lambda": 0.7, "candidate": {
            "type": "omega", "a2": [a2.real, a2.imag], "omega": {"kind": "moebius", "a": 0.5}}})
        assert code == 3
        rep = json.loads((out / "membership.json").read_text())
        assert (rep["verdict"], rep["path"], rep["q_disk_zeros"]) == ("Inconclusive", "zero_count", None)
        assert rep["samples"] == 256 < rep["total_samples"] < 256 + 100

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

    def test_omega_order_unused(self, tmp_path):
        # order 2 used to truncate this q to 1 - 1.45 z + 0.35 z^2, with a
        # zero at 0.874, and exit 2; the true q has none, as a2 lies inside
        # gamma, 0.084 from it.  No omega verdict reads order now: it is
        # validated and listed under unused, as for phi
        cfg = {"lambda": 0.7,
               "candidate": {"type": "omega", "a2": 1.45, "omega": {"kind": "moebius", "a": 0.5}}}
        grid = {"grid": {"radii": list(core.DEFAULT_RADII), "angles": 90}}
        reps = []
        for extra in ({}, {"order": 2}, {"order": 3}):
            code, out = run(tmp_path, "membership", {**cfg, **extra, "grid": {"angles": 90}},
                            outdir=f"order{len(reps)}")
            assert code == 0
            rep = json.loads((out / "membership.json").read_text())
            assert rep.pop("unused") == {**grid, **extra}
            reps.append(rep)
        assert reps[0] == reps[1] == reps[2]
        assert (reps[0]["path"], reps[0]["q_disk_zeros"], reps[0]["verdict"]) == ("zero_count", 0, "Inside")
        assert reps[0]["samples"] == 256 and "tail" not in reps[0]
        codes, distances = bounds.c_omega_curve(MoebiusShift(0.5), 0.7).locate([1.45])
        assert codes.tolist() == [INSIDE] and 0.083 < distances[0] < 0.085
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
        region = bounds.c_omega_curve(diskfun_from_json({"kind": "poly", "coeffs": [0.0], "normalizer": 1.0}),
                                      0.5, resolution=128)
        assert (out / "region.csv").read_bytes() == reference_csv(region).encode()
        assert (out / "region.svg").read_bytes() == reference_svg(region, 512).encode()

    def test_artifacts_are_the_per_sample_renderings(self, tmp_path):
        # a config shaped as perfbench's region-a2 ops: resolution 1024, a
        # Moebius omega, three queries inside and three outside gamma
        cfg = {"lambda": 0.4375, "resolution": 1024,
               "omega": {"kind": "moebius", "a": [0.41, -0.52], "psi": 2.3},
               "queries": [[0.1, 0.2], [-0.3, 0.05], [0, -0.4], [1.7, 0.3], [-0.5, 1.8], [0.2, -2.1]]}
        code, out = run(tmp_path, "region-a2", cfg)
        assert code == 0
        where = [q["where"] for q in json.loads((out / "region.json").read_text())["queries"]]
        assert where == ["inside"] * 3 + ["outside"] * 3
        region = bounds.c_omega_curve(diskfun_from_json(cfg["omega"]), cfg["lambda"], resolution=1024)
        assert (out / "region.csv").read_bytes() == reference_csv(region).encode()
        assert (out / "region.svg").read_bytes() == reference_svg(region, 512).encode()

    def test_artifacts_of_several_curves_in_one_process(self, tmp_path):
        # perfbench renders many curves in one process: two at resolution
        # 1024 share the theta column's text, one at 4096 needs its own
        queries = [[0.1, 0.2], [-0.3, 0.05], [0, -0.4], [1.7, 0.3], [-0.5, 1.8], [0.2, -2.1]]
        configs = [
            {"lambda": 0.4375, "resolution": 1024,
             "omega": {"kind": "moebius", "a": [0.41, -0.52], "psi": 2.3}, "queries": queries},
            {"lambda": 0.6, "resolution": 1024,
             "omega": {"kind": "moebius", "a": [-0.7, 0.1], "psi": 0.4}, "queries": queries},
            {"lambda": 0.3, "resolution": 4096,
             "omega": {"kind": "moebius", "a": [0.05, 0.6], "psi": 5.9}, "queries": queries},
        ]
        bounds._theta_text.cache_clear()
        for k, cfg in enumerate(configs):
            code, out = run(tmp_path, "region-a2", cfg, outdir=f"out-{k}")
            assert code == 0
            region = bounds.c_omega_curve(diskfun_from_json(cfg["omega"]), cfg["lambda"],
                                          resolution=cfg["resolution"])
            assert (out / "region.csv").read_bytes() == reference_csv(region).encode()
            assert (out / "region.svg").read_bytes() == reference_svg(region, 512).encode()
        info = bounds._theta_text.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_cusp_labels_match_membership(self, tmp_path):
        # Moebius a = 0.98 at lambda 1: gamma has a cusp at t = 0, where a
        # sampled self-intersection check found 2 close sample pairs and
        # exited 3
        omega = {"kind": "moebius", "a": 0.98}
        queries = [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3]]
        code, out = run(tmp_path, "region-a2", {"lambda": 1.0, "omega": omega, "queries": queries})
        assert code == 0
        where = [q["where"] for q in json.loads((out / "region.json").read_text())["queries"]]
        proven = []
        for k, a2 in enumerate(queries):
            _, member = run(tmp_path, "membership",
                            {"lambda": 1.0, "candidate": {"type": "omega", "a2": a2, "omega": omega}},
                            outdir=f"member-{k}")
            rep = json.loads((member / "membership.json").read_text())
            assert rep["path"] == "zero_count"
            proven.append(rep["verdict"].lower())
        assert where == proven == ["inside", "inside", "outside", "outside"]

    def test_near_circle_blaschke_query_outside(self, tmp_path):
        # zeros 0.99i and -0.5 at lambda 1: at t = pi/2, where the pole
        # -i/0.99 lies just beyond the circle, the 16-node quadrature of
        # gamma was off by 1.1e-5 and read a point 2.6e-6 outside as inside.
        # gamma(pi/2) = -i + W(i) takes W at 40 digits; the exterior lies to
        # the left of gamma'
        omega = {"kind": "blaschke", "zeros": [[0, 0.99], -0.5]}
        fun = diskfun_from_json(omega)
        w = mp_blaschke_integral(fun, 1j)
        assert abs(gauss_legendre(fun, 1j) - w) > 1e-5
        tangent = 1j * (1j * fun.eval(1j) + 1j)
        a2 = -1j + w + 2.6e-6 * 1j * tangent / abs(tangent)
        code, out = run(tmp_path, "region-a2", {"lambda": 1.0, "omega": omega, "queries": [[a2.real, a2.imag]]})
        assert code == 0
        (query,) = json.loads((out / "region.json").read_text())["queries"]
        assert query["where"] == "outside"
        assert query["distance_to_curve"] == pytest.approx(2.6e-6, rel=1e-3)

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
            raise AssertionError("q_rows_from_omega called")

        # the one builder of an omega q, which q_from_omega calls, under both
        # names that the package holds it by
        monkeypatch.setattr(core, "q_rows_from_omega", build)
        monkeypatch.setattr(cli, "q_rows_from_omega", build)
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
        # a radius outside (0, 1) is a config error with no JSON (it exited
        # 3, inconclusive, before it was checked with the config)
        code, out = run(tmp_path, "fixed-point", {"lambda": 0.5, "a2": 1.1, "r": 1.5, "omega": omega})
        assert code == 4 and not (out / "fixed_point.json").exists()
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


# a [re, im] pair whose modulus overflows, though each part is finite
HUGE = [1.7e308, 1.7e308]

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
        ("region-a2", {"lambda": 0.5, "resolution": 2**55, "omega": {"kind": "moebius", "a": 0.3}}),
        ("verify-conjecture", {"lambda": 0.5, "n_max": 2**55, "samples": 16, "seed": 1}),
        ("f-roots", {"lambda_count": 2**55, "Rs": [0.5]}),
    ], ids=["region-a2", "verify-conjecture", "f-roots"])
    def test_unallocatable_size_is_a_config_error(self, tmp_path, capsys, command, cfg):
        # each ended in numpy's _ArrayMemoryError traceback (exit 1).  2**55
        # samples exceed any 64-bit address space, so the allocation fails
        # at once, whatever the machine's overcommit
        code, out = run(tmp_path, command, cfg)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
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
        # each used to run after a silent coercion, with exit 0: lambda true
        # as 1.0, k 1.9 as 1, a string psi, r, theta0 or R as its number,
        # and phase true as 1.0
        ("sharpness", {"lambda": True, "a": 0.5}),
        ("julia", {"phi": {"kind": "monomial", "theta": math.pi, "k": 1.9}}),
        ("fixed-point", {"omega": {"kind": "moebius", "a": 0.3, "psi": "1.2"}}),
        ("fixed-point", {"r": "0.5"}),
        ("julia", {"phi": {"kind": "monomial", "theta": math.pi, "k": 2}, "theta0": "0"}),
        ("membership", {"candidate": {"type": "extremal", "phase": True}}),
        ("f-roots", {"lambdas": [0.3], "Rs": ["0.5"]}),
        # JSON's NaN and Infinity are read as floats; none is a parameter
        ("julia", {"phi": {"kind": "moebius", "a": math.nan}}),
        ("fixed-point", {"omega": {"kind": "moebius", "a": 0.3, "psi": math.inf}}),
        ("julia", {"phi": {"kind": "blaschke", "zeros": [0, math.nan]}}),
        ("julia", {"phi": {"kind": "blaschke", "zeros": [0], "rotation": math.nan}}),
        # each used to exit 3, inconclusive; membership wrote a NaN
        # boundary_max
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "monomial", "theta": math.nan}}}),
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, [math.nan, 0]]}}}),
        ("membership", {"candidate": {"type": "extremal", "phase": math.nan}}),
        ("fixed-point", {"a2": [math.nan, 0]}),
        ("fixed-point", {"r": math.nan}),
        ("f-roots", {"lambdas": [math.nan], "Rs": [0.5]}),
        ("f-roots", {"lambdas": [0.3], "Rs": [math.inf]}),
        # each used to exit 0: Inside, or NaN m, obstruction_value and
        # l_at_boundary
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, 0.5],
                                                              "normalizer": math.inf}}}),
        ("julia", {"phi": {"kind": "monomial", "theta": math.pi, "k": 2}, "theta0": math.nan}),
        ("julia", {"phi": {"kind": "monomial", "theta": math.nan, "k": 1}}),
        # used to end in an OverflowError traceback (exit 1)
        ("membership", {"candidate": {"type": "extremal", "phase": 10**400}}),
        # used to exit 0 and write "samples": -5
        ("verify-conjecture", {"samples": -5}),
        # each used to end in a TypeError traceback (exit 1): a list given
        # as a scalar
        ("f-roots", {"lambdas": 0.5}),
        ("f-roots", {"lambdas": [0.3], "Rs": 0.5}),
        ("region-a2", {"queries": 5}),
        ("julia", {"phi": {"kind": "blaschke", "zeros": 0.5}}),
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": 0.5}}}),
        # each used to exit 3, inconclusive: a value outside (0, 1)
        ("f-roots", {"lambdas": [0.0], "Rs": [0.5]}),
        ("f-roots", {"lambdas": [1.0], "Rs": [0.5]}),
        ("f-roots", {"lambdas": [0.3], "Rs": [0.0]}),
        ("f-roots", {"lambdas": [0.3, 0.7], "Rs": [0.5, 1.0]}),
        ("fixed-point", {"r": 1.5}),
        ("fixed-point", {"r": -0.2}),
        # each used to end in an AttributeError (grid not an object) or a
        # TypeError (radii not a list of reals) traceback, exit 1
        ("membership", {"candidate": {"type": "extremal"}, "grid": 5}),
        ("membership", {"candidate": {"type": "extremal"}, "grid": None}),
        ("membership", {"candidate": {"type": "extremal"}, "grid": [1, 2]}),
        ("verify-conjecture", {"grid": 5}),
        ("membership", {"candidate": {"type": "extremal"}, "grid": {"radii": 5}}),
        ("membership", {"candidate": {"type": "extremal"}, "grid": {"radii": [0.5, None]}}),
        ("membership", {"candidate": {"type": "extremal"}, "grid": {"radii": [[0.5]]}}),
        # used to run after a silent coercion, with exit 0
        ("membership", {"candidate": {"type": "extremal"}, "grid": {"radii": ["0.5"]}}),
    ])
    def test_malformed_input_is_a_config_error(self, tmp_path, command, cfg):
        base = {"lambda": 0.5, "a2": 2.5, "omega": {"kind": "moebius", "a": 0.3}}
        code, out = run(tmp_path, command, {**base, **cfg})
        assert code == 4
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,cfg", [
        # each used to end in an OverflowError traceback (exit 1)
        ("membership", {"candidate": {"type": "omega", "a2": HUGE, "omega": {"kind": "moebius", "a": 0.3}}}),
        ("fixed-point", {"a2": HUGE}),
        ("sharpness", {"a": HUGE}),
        ("julia", {"phi": {"kind": "moebius", "a": HUGE}}),
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "blaschke", "zeros": [0, HUGE]}}}),
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, HUGE]}}}),
        # used to exit 3 with a RuntimeWarning: the projection did not settle
        ("region-a2", {"queries": [[0.9, 0.0], HUGE]}),
    ])
    def test_overflowing_modulus_is_a_config_error(self, tmp_path, capsys, command, cfg):
        base = {"lambda": 0.5, "a2": 2.5, "omega": {"kind": "moebius", "a": 0.3}}
        code, out = run(tmp_path, command, {**base, **cfg})
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must have a finite modulus" in err
        assert "Warning" not in err and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,cfg,message", [
        ("membership", {"candidate": {"type": "extremal"}, "grid": {"angles": 0}}, "angles must be >= 1, got 0"),
        ("region-a2", {"resolution": 32}, "resolution must be an integer >= 64, got 32"),
        ("sharpness", {"a": 1.2}, "sharpness needs |a| < 1, got 1.2"),
        ("fixed-point", {"r": 1.5}, "r must lie in (0, 1), got 1.5"),
        # f-roots checks its lists itself: with no lambdas the library sees no R
        ("f-roots", {"lambdas": [], "Rs": [1.5]}, "Rs must lie in (0, 1), got 1.5"),
    ])
    def test_range_errors_keep_their_text(self, tmp_path, capsys, command, cfg, message):
        # the library raises each; OutOfRange is a ValueError, so none is
        # converted on the way to exit 4
        base = {"lambda": 0.5, "a2": 2.5, "omega": {"kind": "moebius", "a": 0.3}}
        code, out = run(tmp_path, command, {**base, **cfg})
        assert code == 4
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(out.iterdir()) == []

    def test_out_of_range_is_a_value_error(self):
        assert issubclass(OutOfRange, ValueError)

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


# (1e-310 + 1e-310 z)/2e-310, the function (1 + z)/2
SUBNORMAL_OMEGA = {"kind": "poly", "coeffs": [1e-310, 1e-310], "normalizer": 2e-310}


def run_strict(tmp_path, command, cfg, outdir="out"):
    """``run`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(tmp_path, command, cfg, outdir)


class TestDegenerateParameters:
    def test_empty_polynomial_phi_is_inside(self, tmp_path, capsys):
        # used to end in an IndexError traceback from base_point
        code, out = run_strict(tmp_path, "membership", {"lambda": 0.5, "candidate": {
            "type": "phi", "phi": {"kind": "poly", "coeffs": []}}})
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads((out / "membership.json").read_text())["verdict"] == "Inside"

    def test_empty_polynomial_omega_is_zero(self, tmp_path):
        omega = {"kind": "poly", "coeffs": []}
        code, out = run_strict(tmp_path, "membership", {"lambda": 0.5, "candidate": {
            "type": "omega", "a2": 0.9, "omega": omega}})
        assert code == 0
        zero = {"kind": "poly", "coeffs": [0.0]}
        assert run_strict(tmp_path, "membership", {"lambda": 0.5, "candidate": {
            "type": "omega", "a2": 0.9, "omega": zero}}, "zero")[0] == 0
        assert (out / "membership.json").read_bytes() == (tmp_path / "zero" / "membership.json").read_bytes()

    @pytest.mark.parametrize("command,cfg", [
        # membership used to exit 4 on a NaN, region-a2 too, and fixed-point
        # 3 on v(omega) = inf
        ("membership", {"candidate": {"type": "omega", "a2": 0.9, "omega": SUBNORMAL_OMEGA}}),
        ("region-a2", {"omega": SUBNORMAL_OMEGA, "queries": [[0.9, 0]]}),
        ("fixed-point", {"a2": 3, "omega": SUBNORMAL_OMEGA}),
        # used to read Inconclusive with "boundary_max": NaN, which is not JSON
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, 3e-311, 3e-312]}}}),
        # read Inside by the closed form; rejected by the same rule
        ("membership", {"candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, 5e-324]}}}),
    ])
    def test_subnormal_normalizer_is_a_config_error(self, tmp_path, capsys, command, cfg):
        code, out = run_strict(tmp_path, command, {"lambda": 0.5, **cfg})
        assert code == 4
        assert "below the least normal float" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("a", [5e-324, 1e-310])
    @pytest.mark.parametrize("command,config", [
        ("membership", lambda a: {"candidate": {"type": "omega", "a2": 0.9, "omega": {"kind": "moebius", "a": a}}}),
        ("region-a2", lambda a: {"omega": {"kind": "moebius", "a": a}, "queries": [[0.9, 0], [1.4, 0]]}),
        ("sharpness", lambda a: {"a": a}),
        ("fixed-point", lambda a: {"a2": 1.1, "omega": {"kind": "moebius", "a": a}}),
    ], ids=["membership", "region-a2", "sharpness", "fixed-point"])
    def test_subnormal_moebius_runs_as_zero_does(self, tmp_path, command, config, a):
        # the right verdict, but a RuntimeWarning from 1/conj(a) first
        expect, zero = run_strict(tmp_path, command, {"lambda": 0.5, **config(0)}, "zero")
        code, out = run_strict(tmp_path, command, {"lambda": 0.5, **config(a)})
        assert code == expect
        if command == "membership":
            verdict = [json.loads((d / "membership.json").read_text())["verdict"] for d in (out, zero)]
            assert verdict == ["Inside", "Inside"]
