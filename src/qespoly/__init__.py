"""Energy-polynomial toolkit for the quasi-exactly solvable double
sinh-Gordon and double sine-Gordon wells.

The package builds the two monic orthogonal chains of the sinh-Gordon well
in exact rational arithmetic, extracts and certifies the algebraic part of
the spectrum together with its weights, norms and moments, applies the
anti-isospectral map to the sine-Gordon side and to a periodic kink-dual
well, and checks every analytic statement against an independent
finite-difference eigensolver.
"""

__version__ = "0.1.0"

from .exactpoly import (
    EnergyPoly,
    ExactDivisionError,
    ParamPoly,
    eval_numeric,
    poly_arith,
    poly_divide_exact,
    real_roots,
    sturm_real_root_count,
)
from .families import (
    ChainSpec,
    FinkelForm,
    PolyFamily,
    ThreeTermForm,
    finkel_form,
    gen_R,
    gen_family,
    gen_quotient,
    three_term_form,
)
from .spectrum import (
    ChainPlan,
    MomentSequence,
    NormSequence,
    SpectrumReport,
    WeightTable,
    chain_plan,
    factorization_check,
    moments,
    norm_weight_crosscheck,
    norms_closed,
    norms_from_recursion,
    qes_energies,
    weights,
)
from .potentials import (
    PotentialSpec,
    potential_eval,
    sextic_qes_levels,
)
from .duality import (
    DsgRejection,
    dsg_spectrum,
    dsg_weights_moments,
    dual_energies,
    new_potential_states,
    periodicity_character,
)
from .wavefunctions import (
    QESState,
    build_qes_state,
    node_count,
    residual,
    schrodinger_residual,
)
from .oracle import (
    DualReport,
    OracleConfig,
    OracleResult,
    discretize,
    lowest_eigenvalues,
    verify_duality_pair,
    verify_qes,
)
