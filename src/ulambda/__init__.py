"""Numerical toolkit for the univalence class U(lambda)."""

from .series import (
    TruncatedSeries,
    ring,
    series_mul,
    series_integrate,
    series_eval,
)
from .diskfun import (
    Blaschke,
    DiskFunction,
    Monomial,
    MoebiusShift,
    ScaledPolynomial,
    antiderivative,
    diskfun_from_json,
)
from .core import (
    GridSpec,
    MembershipReport,
    UCandidate,
    dilate,
    julia_quotient,
    l_of_phi,
    obstruction_value,
    q_from_omega,
    q_from_phi,
    subordination_check,
    count_disk_zeros,
    sup_u,
)
from .bounds import (
    BoundTable,
    FixedPointResult,
    RegionA2,
    b_a,
    c_omega_curve,
    conjecture_bound,
    f_quadratic,
    f_root_in_unit_interval,
    fixed_point_zero,
    max_boundary_ba,
    r_star,
    rogosinski_check,
    sharpness_construction_thm6,
    sharpness_g_thm5,
    theorem2_bound,
    v_of_omega,
    v_of_x,
)

__version__ = "0.1.0"
