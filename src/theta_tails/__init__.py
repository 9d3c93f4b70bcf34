"""Exact tail constants and experiments for quadratic Weyl sums.

The value distribution of S_N(x) = sum_{n<=N} e((n^2/2 + beta n) x + alpha n)
with rational (alpha, beta) is governed by a finite orbit of torus points
under the theta group and by a handful of arithmetic constants of the
denominator. This package computes those constants exactly, evaluates the
sums and the associated theta functions with phase-exact arithmetic, and
reproduces the tail asymptotics by deterministic Monte-Carlo sampling of
the invariant measures.
"""
from .arith import (
    RationalPair,
    dedekind_psi,
    euler_phi,
    factorize,
    jordan_j2,
    normalize_pair,
    split_two_power,
)
from .constants import (
    D_rat_closed,
    D_rat_numeric,
    TailConstant,
    table_reciprocal_C,
    tail_constant,
)
from .errors import (
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
    ThetaTailsError,
    UnsupportedOperationError,
)
from .homog import (
    CHUNK_SIZE,
    DEFAULT_SEED,
    MuAbSampler,
    chunk_generator,
    conjugate_horoball,
    haar_from_uniforms,
    open_uniforms,
)
from .orbits import (
    DEFAULT_ORBIT_CAP,
    OrbitClass,
    OrbitData,
    Representative,
    count_U_formula,
    count_V_formula,
    enumerate_orbit,
    leading_constant,
    orbit_contains,
    orbit_partition,
    orbit_report,
    orbit_representatives,
    orbit_size_formula,
    theta_mins,
    which_representative,
)
from .tailsim import (
    SamplingLaw,
    TailCurve,
    TailFit,
    default_thresholds,
    fit_tail_constant,
    sampling_law,
    simulate_theta_tail,
    simulate_weyl_tail,
)
from .theta import (
    GaussianWeight,
    IwasawaPoint,
    SharpIndicatorWeight,
    WeightFunction,
    bound_constant,
    cusp_bound,
    cusp_main_term,
    f_phi_numeric,
    gaussian_weight,
    sharp_indicator_weight,
    sigma_phi,
    theta_f,
    theta_pair,
    theta_pair_gaussian_batch,
    theta_pair_gaussian_bound,
)
from .weylsum import (
    WeylSumSpec,
    partial_sums,
    weighted_weyl_sum,
    weyl_sum,
    weyl_values_batch,
)

__version__ = "0.1.0"
