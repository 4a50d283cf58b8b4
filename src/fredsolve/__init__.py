"""First-kind Fredholm integral equations via second-kind reformulation.

Subpackages follow the pipeline: ``grid`` (quadrature and Fourier helpers),
``kernels`` (Poisson kernel and resolvents), ``fredholm2`` (generic
second-kind solvers), ``problems`` (first-kind problem registry and noise
model), ``method_core`` (the reformulation itself plus the solvability
filter), ``baselines`` (classical regularization and iteration methods),
``reduction2d`` (boundary-problem reductions and the 2D method), and ``cli``.
"""

from .errors import (ConfigError, DegenerateProblemError, ExprParseError,
                     FredsolveError, InvalidRadiusError, NonFiniteValueError,
                     NoValidMuError, NumericalParameterError, OnSpectrumError,
                     ParameterExclusionError, UndefinedDeltaError)
from .grid import Grid1D, GridFunction, fourier_coeffs, gauss_legendre, kernel_fourier_coeffs
from .kernels import PoissonParams, poisson_h
from .fredholm2 import SpectrumEstimate, estimate_spectrum, solve_direct
from .problems import (FirstKindProblem, NoiseSpec, forward_apply,
                       green_triangular, make_manufactured, perturb)
from .method_core import (MethodParams, PipelineState, ResidualReport, method_v1, method_v2,
                          method_v2_single, select_mu, verify_solution)
from .baselines import (fridman_iterate, implicit_iterate, krasnoselskii_iterate,
                        lavrentiev, quasisolution, steepest_descent, tikhonov_weighted)
from .reduction2d import (Bvp2DReduction, GridFunction2D, Method2DResult,
                          closure_delta, forward2d, method2d_solve,
                          reconstruct_u, reduce_heat, reduce_membrane,
                          reduce_ode_fredholm, reduce_ode_volterra, verify2d)

__version__ = "0.1.0"
