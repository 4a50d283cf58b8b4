"""First-kind Fredholm integral equations via second-kind reformulation.

Subpackages follow the pipeline: ``grid`` (quadrature and Fourier helpers),
``kernels`` (Poisson kernel and resolvents), ``fredholm2`` (generic
second-kind solvers), ``problems`` (first-kind problem registry and noise
model), ``method_core`` (the reformulation itself plus the solvability
filter), ``baselines`` (classical regularization and iteration methods),
``reduction2d`` (boundary-problem reductions and the 2D method), and ``cli``.
"""

from .errors import (ConfigError, ContractionError, DegenerateProblemError,
                     ExprParseError, FredsolveError, InvalidRadiusError,
                     NonFiniteValueError, NoValidMuError, NumericalParameterError,
                     OnSpectrumError, ParameterExclusionError, UndefinedDeltaError)
from .grid import (FourierCoeffs, Grid1D, GridFunction, KernelFourierCoeffs,
                   fourier_coeffs, gauss_legendre, gauss_panels, integrate,
                   kernel_fourier_coeffs)
from .kernels import (ExclusionReport, PoissonParams, kernel_l, poisson_h,
                      poisson_h_series, resolvent_H, resolvent_L,
                      validate_lambda)
from .fredholm2 import (SecondKindSystem, SpectrumEstimate, deflate_on_spectrum,
                        estimate_spectrum, neumann_iterate, solve_direct,
                        solve_volterra2)
from .problems import (FirstKindProblem, NoiseSpec, forward_apply,
                       green_triangular, make_manufactured, perturb)
from .method_core import (FourierState, MethodParams, PipelineState,
                          ResidualReport, build_F0, build_F1, build_kappa,
                          build_rho, method_v1, method_v2, method_v2_single,
                          select_mu, solve_psi1, verify_solution)
from .baselines import (IterateHistory, averaged_iterate, fridman_iterate,
                        implicit_iterate, krasnoselskii_iterate, lavrentiev,
                        quasisolution, steepest_descent, stopping_rule,
                        tikhonov_weighted)
from .reduction2d import (Bvp2DReduction, GridFunction2D, Method2DResult,
                          closure_delta, forward2d, method2d_solve,
                          reconstruct_u, reduce_heat, reduce_membrane,
                          reduce_ode_fredholm, reduce_ode_volterra, verify2d)

__version__ = "0.1.0"
