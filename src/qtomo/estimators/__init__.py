"""Kernel estimators, one submodule per measurement family."""

from .config import EstimatorConfig, SqueezeParams
from .glauber import (
    GlauberCheckReport,
    displacement_grid_set,
    generalized_glauber_check,
    glauber_reconstruct,
)
from .homodyne import (
    exact_homodyne_average,
    exact_squeezed_average,
    homodyne_estimate,
    homodyne_kernel_matrix,
    oscillator_wavefunctions,
)
from .kerr import (
    kerr_epsilon_sweep,
    kerr_estimate,
    kerr_exact_element,
    kerr_kernel,
    kerr_kernel_regularized,
    kerr_phase_distribution,
    kerr_sideband_coefficients,
)
from .nonunitary import (
    nonunitary_phase_trace,
    nonunitary_phase_trace_routes,
    nonunitary_reconstruct,
    phase_shift_ladder,
)
from .parity import (
    displaced_parity_expectation,
    displaced_parity_kernel,
    displaced_parity_kernel_matrix_route,
    parity_estimate,
    parity_exact_element,
    parity_kernel_element,
)
from .spin import (
    pauli_estimate,
    sphere_rule,
    spin_estimate,
    spin_kernel,
    spin_kernel_quadrature,
    spin_quadrature_expectation,
)

__all__ = [
    "EstimatorConfig",
    "SqueezeParams",
    "GlauberCheckReport",
    "displacement_grid_set",
    "generalized_glauber_check",
    "glauber_reconstruct",
    "homodyne_kernel_matrix",
    "homodyne_estimate",
    "exact_homodyne_average",
    "exact_squeezed_average",
    "oscillator_wavefunctions",
    "displaced_parity_kernel",
    "displaced_parity_kernel_matrix_route",
    "parity_kernel_element",
    "displaced_parity_expectation",
    "parity_estimate",
    "parity_exact_element",
    "spin_kernel",
    "spin_kernel_quadrature",
    "spin_estimate",
    "spin_quadrature_expectation",
    "pauli_estimate",
    "sphere_rule",
    "kerr_kernel",
    "kerr_kernel_regularized",
    "kerr_phase_distribution",
    "kerr_sideband_coefficients",
    "kerr_exact_element",
    "kerr_estimate",
    "kerr_epsilon_sweep",
    "nonunitary_phase_trace",
    "nonunitary_phase_trace_routes",
    "nonunitary_reconstruct",
    "phase_shift_ladder",
]
