"""Two-time GKSL-like master equations: solvers and complete-positivity analysis.

The package propagates dynamical maps for kernels of Lindblad form whose
Hamiltonian and jump operators depend on two times under a memory integral,
and certifies the results: Choi spectra, Kraus representations, divisibility,
and witness states of CP violations in drift-only evolutions.
"""

from .cpanalysis import (
    CPReport,
    certify_trajectory,
    choi,
    cp_check,
    divisibility_check,
    find_drift_cp_witness,
    kraus_condition_check,
    kraus_extract,
)
from .experiments import (
    GScanResult,
    RedfieldModel,
    coherence_revival_kernel,
    convolution_case,
    corpus_kernels,
    dephasing_kernel,
    g_scan,
    observed_order,
    pair_distance,
    random_drift,
    random_kernel,
    redfield_kernel,
)
from .kernel import (
    GKSLKernel,
    TwoTimeOperatorFunction,
    load_drift_spec,
    load_kernel_spec,
    save_drift_spec,
    save_kernel_spec,
    split_kernel,
)
from .profiles import (
    ConstantProfile,
    ConvProfile,
    ExpProfile,
    GaussianProfile,
    SeparableProfile,
    SingleVarFactor,
    TabulatedProfile,
    profile_from_doc,
    profile_to_doc,
)
from .propagate import (
    ordered_exponential_from_drift,
    solve_family,
    solve_local,
    solve_local_full_via_transform,
    solve_nonlocal_from_drift,
)
from .trajectory import FAMILY_TAGS, MapTrajectory, OrderedExponential, TimeGrid

__version__ = "0.1.0"
