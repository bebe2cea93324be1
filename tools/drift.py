"""Compare the CLI's exit codes and artifacts between two checkouts.

Runs a fixed set of configs through ``ulambda.cli.main`` in-process, once
on this checkout and once on another one (each in its own child process,
importing ulambda from that checkout's ``src``), and prints every config
whose exit code, stderr or artifact sha256 differs::

    python tools/drift.py ../other-checkout

The set: 384 ``verify-conjecture`` configs (n_max -1..70 in steps of 3,
lambda 0.25/0.5/0.8/1, seeds 1/2/3/195, 16 samples), 1008 omega
``membership`` configs (8 omega x 7 a2 x lambda 0.3/0.7/1 x order
absent/2/3/9/64/128), 15 Blaschke omega ``membership`` configs (a zero near
the circle, alone and beside a second zero, a double zero, zeros at the
origin and two zeros one ulp apart, each at one lambda with three a2), 23
``region-a2`` (each omega at lambda 0.5 and 1, the slit omega = 1 at both,
and each of those Blaschke omegas at its lambda), 40 ``fixed-point``, 8 ``sharpness``,
11 phi and 3 extremal ``membership``, 11 ``julia`` (a phi of each family,
and each phi that is e^{i theta} z in another family's form), 4 malformed
configs and the README examples; then 6 configs with a value outside (0, 1)
(f-roots' lambdas and Rs, fixed-point's r), 3 omega ``membership`` configs
with a huge a2 (1e308, 1e160, [1e200, 1e200]), 4 ``verify-conjecture``
configs with 400 samples (lambda 0.25/1, seeds 1/2), 7 configs with a value
whose modulus overflows (an a2, a sharpness a, a Moebius a, a Blaschke zero,
a polynomial coefficient and a region-a2 query), 5 with a polynomial
whose coefficients sum to infinity and 3 ``verify-conjecture`` configs at
lambda 0.1 with 0, 1 and 33 samples (no draw, one, and one more than a
block of 32 draws), 20 phi ``membership`` configs with 0 < |phi(0)| <= 1e-9
(10 Moebius, Blaschke and polynomial phi at lambda 0.3 and 1), 7 ``julia``
configs with such a phi at a point where it is -1, 8 with a malformed
``grid`` (7 ``membership``, 1 ``verify-conjecture``), and 10 with a2 1e-6
and 1e-10 to either side of gamma, where only halving arcs proves the
winding (8 omega ``membership``, a Moebius shift and a near-circle Blaschke
product, and one ``region-a2`` of the four a2 for each), 18
``verify-conjecture`` configs (n_max 1, 2, 3 x samples 31, 32, 33 x lambda
0.1 and 1), 12 phi ``membership`` and 6 ``julia`` configs with a
Blaschke phi of degree 1 to 6, 6 ``region-a2`` configs at resolution 1024
and 4096 (a Moebius, a Blaschke and a polynomial omega at lambda 0.5), and
3 configs with a size no machine can allocate (a ``region-a2``
``resolution``, a ``verify-conjecture`` ``n_max`` and an ``f-roots``
``lambda_count`` of 2**55), and 6 with a Blaschke omega whose primitive
takes a cluster branch (a double zero at 0.9, by the closed-form K_n, and
zeros 0.999 and 0.9998, a cluster split into its zeros), each in two
omega ``membership`` configs, a2 inside and outside gamma, and one
``region-a2``, and 32 omega ``membership`` configs with a2 1e-2 and 1e-3
to either side of gamma (Moebius shifts with |a| = 0.3 and 0.7, a Blaschke
product and a polynomial, each at lambda 0.7 and 1), most of which only
halving the 256-point pass's failing arcs proves: 1672 in all.
Standard library only; exit status 1 when anything differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

OMEGAS = [
    {"kind": "moebius", "a": 0.3},
    {"kind": "moebius", "a": [0.5268221954758235, -0.09810406994221266], "psi": 5.611645507023389},
    {"kind": "moebius", "a": 0.5},
    {"kind": "moebius", "a": 0.98},
    {"kind": "blaschke", "zeros": [[0.6, 0.3], [-0.5, 0.2]]},
    {"kind": "blaschke", "zeros": [[0.3, -0.4], 0.5], "rotation": 1.0},
    {"kind": "poly", "coeffs": [0.3, [0.2, 0.4], -0.1]},
    {"kind": "poly", "coeffs": [0.0], "normalizer": 1.0},
]
# (omega, lambda, a2s): Blaschke products with a zero near the circle (so a
# pole just beyond it), a repeated zero, zeros at the origin and two zeros
# one ulp apart (with a2 3e-5 to either side of gamma)
BLASCHKE = [
    ({"kind": "blaschke", "zeros": [0.995]}, 0.7, [0.3338230352176687, 1.45, [0.9, 0.1]]),
    ({"kind": "blaschke", "zeros": [[0, 0.99], -0.5]}, 1.0, [[0, 1.5], 0.5, [-1.2, 0.3]]),
    ({"kind": "blaschke", "zeros": [0.5, 0.5]}, 0.5, [0.9, [1.2, -0.3], [0, 1.05]]),
    ({"kind": "blaschke", "zeros": [0, 0, [0, 0.5]], "rotation": 1.0}, 0.7, [1.1, [0.2, -1.05], 0.5]),
    ({"kind": "blaschke", "zeros": [0.5, 0.5000000000000001]}, 0.7,
     [[0.8462415563639936, -0.34403709731330867], [0.8461879067585139, -0.3440102324695187], 0.5]),
]
A2S = [1.45, [0.3007386830957319, 0.8294213293396829], [1.1002301497359797, -0.22364822742507573],
       0.5, [0.9, 0.1], -1.2, [0.2, -1.05]]
PHIS = [
    {"kind": "monomial", "theta": 3.141592653589793, "k": 1},
    {"kind": "monomial", "theta": 3.141592653589793, "k": 2},
    {"kind": "monomial", "theta": 0.4, "k": 3},
    {"kind": "blaschke", "zeros": [0, [0.5, 0]], "rotation": 3.141592653589793},
    {"kind": "blaschke", "zeros": [0, [0.3, 0.2], [-0.4, 0.1]]},
    {"kind": "poly", "coeffs": [0, [-0.9883178170007982, -0.10675812160893149],
                                [0.21784328856907229, 0.029515181842464832]]},
    {"kind": "poly", "coeffs": [0, 1.0]},
    {"kind": "poly", "coeffs": [0, 0.7, [0.1, 0.2]]},
    {"kind": "blaschke", "zeros": [0, 0]},
    {"kind": "poly", "coeffs": [0, 0.8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.005], "normalizer": 1.0},
    {"kind": "moebius", "a": 0},
]
# values outside (0, 1), each a config error
OUT_OF_RANGE = [
    ("f-roots", {"lambdas": [0.0], "Rs": [0.5]}),
    ("f-roots", {"lambdas": [1.0], "Rs": [0.5]}),
    ("f-roots", {"lambdas": [0.3], "Rs": [0.0]}),
    ("f-roots", {"lambdas": [0.3], "Rs": [1.0]}),
    ("fixed-point", {"lambda": 0.5, "a2": 2.5, "omega": OMEGAS[0], "r": 1.5}),
    ("fixed-point", {"lambda": 0.5, "a2": 2.5, "omega": OMEGAS[0], "r": -0.2}),
]
# a value whose modulus overflows: each ended in an OverflowError traceback
# (exit 1), the region-a2 query in a projection that did not settle (exit 3)
HUGE = [1.7e308, 1.7e308]
OVERFLOW = [
    ("membership", {"lambda": 0.5, "candidate": {"type": "omega", "a2": HUGE, "omega": OMEGAS[0]}}),
    ("fixed-point", {"lambda": 0.5, "a2": HUGE, "omega": OMEGAS[0]}),
    ("sharpness", {"lambda": 0.5, "a": HUGE}),
    ("julia", {"lambda": 0.5, "phi": {"kind": "moebius", "a": HUGE}}),
    ("membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": {"kind": "blaschke", "zeros": [0, HUGE]}}}),
    ("membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": {"kind": "poly", "coeffs": [0, HUGE]}}}),
    ("region-a2", {"lambda": 0.5, "omega": OMEGAS[0], "queries": [[0.9, 0], HUGE]}),
]
# a polynomial whose finite coefficients sum to infinity, so that every
# value was divided by an infinite normalizer
INFINITE_SUM = {"kind": "poly", "coeffs": [0, 1e308, 1e308]}
FAMILY = [
    ("membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": INFINITE_SUM}}),
    ("membership", {"lambda": 0.5, "candidate": {"type": "omega", "a2": 1.5, "omega": INFINITE_SUM}}),
    ("julia", {"lambda": 0.5, "phi": INFINITE_SUM}),
    ("region-a2", {"lambda": 0.5, "omega": INFINITE_SUM, "queries": [[0.9, 0]]}),
    ("fixed-point", {"lambda": 0.5, "a2": 2.5, "omega": INFINITE_SUM}),
]
# (phi, theta0) with 0 < |phi(0)| <= 1e-9, and a point where phi = -1 for
# julia (None where phi is never -1)
PI = 3.141592653589793
TINY_BASE_POINT = [
    ({"kind": "moebius", "a": 1e-10}, PI),
    ({"kind": "moebius", "a": -1e-10}, PI),
    ({"kind": "moebius", "a": [0, 1e-9]}, 3.141592655589793),
    ({"kind": "blaschke", "zeros": [1e-10]}, PI),
    ({"kind": "blaschke", "zeros": [1e-10, 0.5]}, 1.0471975511099951),
    ({"kind": "blaschke", "zeros": [2e-10, [0.3, 0.2], -0.4]}, 3.061997528266716),
    ({"kind": "poly", "coeffs": [1e-10, 0.3, 0.1]}, None),
    ({"kind": "poly", "coeffs": [1e-10, 0.9, [0, 0.1]]}, None),
    ({"kind": "poly", "coeffs": [5e-10, 0.5], "normalizer": 1.0}, None),
    ({"kind": "poly", "coeffs": [1e-10, -0.3, -0.1]}, 0.0),
]
# (omega, lambda, a2s): a2 1e-6 and 1e-10 outside, then inside, gamma(t)
# along its normal, at t = 3.224 for the Moebius shift and t = 0.4 for the
# Blaschke product (z - 0.995)/(1 - 0.995 z)
NEAR_GAMMA = [
    ({"kind": "moebius", "a": 0.9826, "psi": 0.131}, 0.5,
     [[-1.4730228205304292, 0.06129066455257869], [-1.4730208275341239, 0.06129049732301762],
      [-1.4730218241319264, 0.061290580946159634], [-1.4730218239326267, 0.06129058092943668]]),
    ({"kind": "blaschke", "zeros": [0.995]}, 0.7,
     [[0.27960604176436465, -0.6538002510779317], [0.279604048865123, -0.6538000826955908],
      [0.2796050454143888, -0.6538001668951804], [0.2796050452150989, -0.6538001668783421]]),
]
# (omega, lambda, a2s): a2 1e-2 outside, then inside, gamma(t) along its
# normal, then 1e-3 outside and inside, at t = 2 (t = 1 for the Moebius
# shifts at lambda 1), where the halving of the 256-point pass's failing
# arcs decides most of them
HALVED_FROM_COARSE = [
    ({"kind": "moebius", "a": 0.3, "psi": 0.5}, 0.7,
     [[-0.6354657386363023, -1.0797033188472405], [-0.6366813986893824, -1.0597402987692224],
      [-0.6360127856601884, -1.0707199598121324], [-0.6361343516654964, -1.0687236578043304]]),
    ({"kind": "moebius", "a": 0.3, "psi": 0.5}, 1.0,
     [[0.41218826395536107, -0.27339210958004734], [0.4032207044367266, -0.2555152285243445],
      [0.40815286217197555, -0.26534751310498106], [0.4072561062201121, -0.2635598249994108]]),
    ({"kind": "moebius", "a": 0.7, "psi": 1.0}, 0.7,
     [[-0.5836771506578635, -0.8243183306401463], [-0.571683243179985, -0.8083137630604804],
      [-0.5782798922928182, -0.8171162752292966], [-0.5770805015450303, -0.81551581847133]]),
    ({"kind": "moebius", "a": 0.7, "psi": 1.0}, 1.0,
     [[0.7012270220976144, -0.10309077539928511], [0.6959268210750584, -0.0838058624069873],
      [0.6988419316374642, -0.0944125645527511], [0.6983119115352087, -0.09248407325352132]]),
    ({"kind": "blaschke", "zeros": [[0.3, -0.4], 0.9], "rotation": 1.0}, 0.7,
     [[-0.6158168706782313, -0.43417362807912646], [-0.613682927402459, -0.41428779678909017],
      [-0.6148565962041338, -0.42522500399861013], [-0.6146432018765565, -0.4232364208696065]]),
    ({"kind": "blaschke", "zeros": [[0.3, -0.4], 0.9], "rotation": 1.0}, 1.0,
     [[-0.7001981089321895, -0.22633944463762706], [-0.699532885571246, -0.20635051075209793],
      [-0.6998987584197649, -0.21734442438913895], [-0.6998322360836706, -0.21534553100058604]]),
    ({"kind": "poly", "coeffs": [0.3, [0.2, 0.4], -0.1]}, 0.7,
     [[-0.4788686756588271, -0.8558405963558624], [-0.47050884361275963, -0.8376715785463731],
      [-0.47510675123809676, -0.8476645383415922], [-0.47427076803349, -0.8458476365606433]]),
    ({"kind": "poly", "coeffs": [0.3, [0.2, 0.4], -0.1]}, 1.0,
     [[-0.5039673041882898, -0.8290329113053317], [-0.4955890063021405, -0.8108724012758489],
      [-0.5001970701395226, -0.8208606817920645], [-0.49935924035090773, -0.8190446307891162]]),
]
# (phi, theta0): Blaschke phi of degree 1 (a zero 5e-10 from the origin)
# to 6, one with a double zero, each with a point where it is -1 for julia
BLASCHKE_PHIS = [
    ({"kind": "blaschke", "zeros": [[0, 5e-10]], "rotation": 2.0}, 1.14159265400594),
    ({"kind": "blaschke", "zeros": [0, [0.6, -0.2]], "rotation": 0.7}, 0.5364028536813231),
    ({"kind": "blaschke", "zeros": [0, 0.9, [-0.3, 0.5]], "rotation": 5.0}, 6.222702496646347),
    ({"kind": "blaschke", "zeros": [0, [0.1, 0.2], [0.1, 0.2], -0.7]}, 3.4903612128622545),
    ({"kind": "blaschke", "zeros": [0, 0.5, [0, 0.5], -0.5, [0, -0.5]], "rotation": 1.3}, 1.6197717934738431),
    ({"kind": "blaschke", "zeros": [0, 0.95, [0.2, 0.9], [-0.4, -0.3], [0.3, -0.1], [-0.6, 0.6]],
      "rotation": 4.0}, 0.02082537834205835),
]
# (omega, lambda, a2s): Blaschke products whose primitive takes
# diskfun._k_n_closed (a repeated zero near the circle) and the split of a
# cluster wider than its room into its repeated zeros; a2 inside gamma, then
# outside
CLUSTER_BRANCHES = [
    ({"kind": "blaschke", "zeros": [0.9, 0.9]}, 0.5, [0.5, 1.6]),
    ({"kind": "blaschke", "zeros": [0.999, 0.9998]}, 0.5, [0.5, 1.6]),
]
# a size no 64-bit address space holds: each ended in numpy's
# _ArrayMemoryError traceback (exit 1)
UNALLOCATABLE = [
    ("region-a2", {"lambda": 0.5, "resolution": 2**55, "omega": OMEGAS[0]}),
    ("verify-conjecture", {"lambda": 0.5, "n_max": 2**55, "samples": 16, "seed": 1}),
    ("f-roots", {"lambda_count": 2**55, "Rs": [0.5]}),
]
EXTREMAL = {"type": "extremal"}
BAD_GRIDS = [
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": 5}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": None}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": [1, 2]}),
    ("verify-conjecture", {"lambda": 0.5, "grid": 5}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": {"radii": 5}}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": {"radii": [0.5, None]}}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": {"radii": [[0.5]]}}),
    ("membership", {"lambda": 0.5, "candidate": EXTREMAL, "grid": {"radii": ["0.5"]}}),
]
README = [
    ("verify-conjecture", {"lambda": 0.5, "n_max": 10, "samples": 100, "seed": 7}),
    ("membership", {"lambda": 0.5, "candidate": {"type": "extremal"}}),
    ("membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": PHIS[1]}}),
    ("membership", {"lambda": 0.7, "candidate": {"type": "omega", "a2": [0.9, 0.1],
                                                 "omega": {"kind": "moebius", "a": 0.3, "psi": 0.0}}}),
    ("julia", {"lambda": 0.5, "phi": PHIS[1], "theta0": 0.0}),
    ("region-a2", {"lambda": 0.5, "resolution": 512, "omega": {"kind": "moebius", "a": 0.5, "psi": 0.0},
                   "queries": [[0.9, 0.0], [1.4, 0.0]]}),
    ("f-roots", {"lambdas": [0.3, 0.75], "Rs": [0.3, 0.34, 0.5]}),
    ("sharpness", {"lambda": 0.5, "a": 0.5}),
    ("fixed-point", {"lambda": 0.5, "a2": 1.5625, "omega": {"kind": "poly", "coeffs": [0.0, 1.0], "normalizer": 1.0}}),
]


def configs() -> list:
    """(name, command, config) for every config of the set."""
    out = []

    def add(group, command, cfg):
        out.append((f"{group}#{len(out)}", command, cfg))

    for n_max in range(-1, 71, 3):
        for lam in (0.25, 0.5, 0.8, 1.0):
            for seed in (1, 2, 3, 195):
                add("verify-conjecture", "verify-conjecture",
                    {"lambda": lam, "n_max": n_max, "samples": 16, "seed": seed})
    for omega in OMEGAS:
        for a2 in A2S:
            for lam in (0.3, 0.7, 1.0):
                for order in (None, 2, 3, 9, 64, 128):
                    cfg = {"lambda": lam, "candidate": {"type": "omega", "a2": a2, "omega": omega}}
                    add("membership-omega", "membership", cfg if order is None else {**cfg, "order": order})
    for omega in OMEGAS:
        for lam in (0.5, 1.0):
            add("region-a2", "region-a2",
                {"lambda": lam, "omega": omega, "queries": [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3]]})
        for a2 in (1.5625, 2.5, [2.0, 1.0], 1.1, 0):
            add("fixed-point", "fixed-point", {"lambda": 0.5, "a2": a2, "omega": omega})
    for lam in (0.5, 1.0):
        # omega = 1 makes gamma an ellipse at lambda 0.5 and the slit 2 cos t at 1
        add("region-a2", "region-a2",
            {"lambda": lam, "omega": {"kind": "poly", "coeffs": [1.0], "normalizer": 1.0},
             "queries": [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3], [0.5, 0.001], [0.5, -0.001], [2.5, 0]]})
    for a in (0.3, 0.7, [0.4, 0.5], 0.5):
        for lam in (0.5, 1.0):
            add("sharpness", "sharpness", {"lambda": lam, "a": a})
    for phi in PHIS:
        add("membership-phi", "membership", {"lambda": 0.5, "candidate": {"type": "phi", "phi": phi}})
        add("julia", "julia", {"lambda": 0.5, "phi": phi, "theta0": 0.0})
    for phase in (3.141592653589793, 0.0, 1.0):
        add("membership-phi", "membership", {"lambda": 0.7, "candidate": {"type": "extremal", "phase": phase}})
    for command, cfg in (("f-roots", {"lambdas": 0.5}),
                         ("region-a2", {"lambda": 0.5, "omega": OMEGAS[0], "queries": 5}),
                         ("julia", {"lambda": 0.5, "phi": {"kind": "blaschke", "zeros": 0.5}}),
                         ("membership", {"lambda": 0.5})):
        add("malformed", command, cfg)
    for command, cfg in README:
        add("readme", command, cfg)
    # last, so that the configs above keep their names
    for omega, lam, a2s in BLASCHKE:
        for a2 in a2s:
            add("membership-blaschke", "membership",
                {"lambda": lam, "candidate": {"type": "omega", "a2": a2, "omega": omega}})
        add("region-a2", "region-a2",
            {"lambda": lam, "omega": omega, "queries": [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3]] + a2s})
    for command, cfg in OUT_OF_RANGE:
        add("malformed", command, cfg)
    for a2 in (1e308, 1e160, [1e200, 1e200]):
        add("membership-huge", "membership",
            {"lambda": 0.5, "candidate": {"type": "omega", "a2": a2, "omega": OMEGAS[0]}})
    # every sampler family, and the 8192-sample passes, at volume
    for lam in (0.25, 1.0):
        for seed in (1, 2):
            add("verify-conjecture", "verify-conjecture", {"lambda": lam, "n_max": 10, "samples": 400, "seed": seed})
    for command, cfg in OVERFLOW + FAMILY:
        add("malformed", command, cfg)
    # verify-conjecture decides its draws in blocks of 32
    for samples in (0, 1, 33):
        add("verify-conjecture", "verify-conjecture", {"lambda": 0.1, "n_max": 10, "samples": samples, "seed": 5})
    for phi, theta0 in TINY_BASE_POINT:
        for lam in (0.3, 1.0):
            add("membership-tiny", "membership", {"lambda": lam, "candidate": {"type": "phi", "phi": phi}})
        if theta0 is not None:
            add("julia", "julia", {"lambda": 0.3, "phi": phi, "theta0": theta0})
    for command, cfg in BAD_GRIDS:
        add("malformed", command, cfg)
    for omega, lam, a2s in NEAR_GAMMA:
        for a2 in a2s:
            add("membership-near", "membership",
                {"lambda": lam, "candidate": {"type": "omega", "a2": a2, "omega": omega}})
        add("region-a2", "region-a2", {"lambda": lam, "omega": omega, "queries": a2s})
    # the reciprocal's row widths 1-3, and one block of 32 draws and either
    # side of it
    for n_max in (1, 2, 3):
        for samples in (31, 32, 33):
            for lam in (0.1, 1.0):
                add("verify-conjecture", "verify-conjecture",
                    {"lambda": lam, "n_max": n_max, "samples": samples, "seed": 5})
    for phi, theta0 in BLASCHKE_PHIS:
        for lam in (0.3, 1.0):
            add("membership-phi", "membership", {"lambda": lam, "candidate": {"type": "phi", "phi": phi}})
        add("julia", "julia", {"lambda": 0.5, "phi": phi, "theta0": theta0})
    # region.csv and region.svg at perfbench's resolution and above
    for omega in (OMEGAS[1], OMEGAS[4], OMEGAS[6]):
        for resolution in (1024, 4096):
            add("region-a2", "region-a2", {"lambda": 0.5, "resolution": resolution, "omega": omega,
                                           "queries": [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3]]})
    for command, cfg in UNALLOCATABLE:
        add("malformed", command, cfg)
    for omega, lam, a2s in CLUSTER_BRANCHES:
        for a2 in a2s:
            add("membership-cluster", "membership",
                {"lambda": lam, "candidate": {"type": "omega", "a2": a2, "omega": omega}})
        add("region-a2", "region-a2",
            {"lambda": lam, "omega": omega, "queries": [[0.9, 0], [1.4, 0], [0, 0.5], [-1.2, 0.3]] + a2s})
    for omega, lam, a2s in HALVED_FROM_COARSE:
        for a2 in a2s:
            add("membership-near", "membership",
                {"lambda": lam, "candidate": {"type": "omega", "a2": a2, "omega": omega}})
    return out


def run_tree(src: str) -> None:
    """Child process: run the configs on the ulambda under ``src`` and print
    one JSON line per config (exit code, stderr, sha256 per artifact)."""
    sys.path.insert(0, src)
    import ulambda.cli

    if not Path(ulambda.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {ulambda.cli.__file__}, not the one under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, cfg in configs():
            work = Path(tmp) / name.replace("#", "-")
            work.mkdir()
            (work / "config.json").write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = ulambda.cli.main([command, "--config", str(work / "config.json"),
                                             "--out", str(work / "out")])
                except Exception as e:  # a traceback is an outcome to compare too
                    code = f"{type(e).__name__}: {e}"
            out = work / "out"
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())} if out.exists() else {}
            print(json.dumps({"name": name, "code": code, "stderr": err.getvalue(), "files": files}))


def collect(tree: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", str(tree / "src")]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
    return {rec["name"]: rec for rec in map(json.loads, lines)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", help="the checkout to compare this one with")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        run_tree(args.run)
        return 0
    if not args.other:
        parser.error("give the other checkout")
    mine, theirs = collect(HERE), collect(Path(args.other).resolve())
    given = {name: (command, cfg) for name, command, cfg in configs()}
    differ = 0
    for name, a in theirs.items():
        b = mine[name]
        lines = []
        if a["code"] != b["code"]:
            lines.append(f"  exit {a['code']} -> {b['code']}")
        if a["stderr"] != b["stderr"]:
            lines.append(f"  stderr {a['stderr'].strip()!r} -> {b['stderr'].strip()!r}")
        for file in sorted(set(a["files"]) | set(b["files"])):
            old, new = a["files"].get(file), b["files"].get(file)
            if old != new:
                lines.append(f"  {file} {old and old[:16]} -> {new and new[:16]}")
        if lines:
            differ += 1
            command, cfg = given[name]
            print(f"{name} {command} {json.dumps(cfg)}", *lines, sep="\n")
    print(f"{differ} of {len(theirs)} configs differ ({args.other} -> this checkout)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
