"""Connectivity analysis for wireless networks coupled through small wall gaps.

Analytic connectivity masses (closed form and quadrature), Rician link
probabilities, reflection-region geometry in 2-D and 3-D, transport between
two gaps, and a reproducible Monte Carlo oracle.
"""

from .specfun import (ApproxFit, FitError, IntegrationError,
                      fit_exponential_approx, integrate_adaptive,
                      lower_inc_gamma, marcum_q1)
from .channel import (ChannelModel, make_channel_model,
                      pair_connect_prob_approx, pair_connect_prob_exact)
from .geometry2d import (Geometry2D, ReflectionRegion,
                         area_ratio_first_reflection, classify_point,
                         max_escape_angle, region_bounds)
from .mass2d import (ClusterInputs, FullConnectivity, MassBreakdown,
                     exterior_isolation_prob, full_connectivity_first_order,
                     internal_isolation_bridge_term,
                     internal_isolation_first_term, mass_closed_form,
                     mass_numeric, multi_external_bridge_prob)
from .escape3d import (Geometry3D, mass3d_closed_form, mass3d_numeric,
                       region_bounds_3d, volume_ratio_first_reflection)
from .transport import (TransportGeometry, averaged_connect_prob,
                        case1_bounds, case1_min_reflections, case2_bounds,
                        transport_mass_case1, transport_mass_case2,
                        transport_min_path)
from .montecarlo import (McConfig, McEstimate, RayPath, TransportEstimate,
                         run_escape_isolation, run_full_connectivity,
                         run_transport, trace_ray)

__version__ = "0.1.0"
