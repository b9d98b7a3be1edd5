"""Connectivity analysis for wireless networks coupled through small wall gaps.

Three layouts share one interface: the 2-D strip (``Geometry2D``), the 3-D
slab (``Geometry3D``) and two-gap transport (``TransportGeometry``). Each
gives its reflection regions, and ``mass`` integrates them by quadrature or
closed form. Also here: Rician link probabilities with reflection loss, the
first-order full-connectivity estimate, and a reproducible Monte Carlo
oracle.
"""

from .specfun import (ApproxFit, FitError, IntegrationError,
                      fit_exponential_approx, integrate_adaptive,
                      lower_inc_gamma, marcum_q1)
from .channel import (ChannelModel, make_channel_model,
                      pair_connect_prob_approx, pair_connect_prob_exact)
from .geometry2d import (Geometry2D, ReflectionRegion, RegionSet,
                         area_ratio_first_reflection, classify_point,
                         region_bounds)
from .mass2d import (ClusterInputs, FullConnectivity, MassBreakdown,
                     exterior_isolation_prob, full_connectivity_first_order,
                     internal_isolation_bridge_term,
                     internal_isolation_first_term, mass)
from .escape3d import (Geometry3D, region_bounds_3d,
                       volume_ratio_first_reflection)
from .transport import (TransportGeometry, averaged_connect_prob,
                        receiving_region)
from .montecarlo import (McConfig, McEstimate, RayPath, TransportEstimate,
                         run_escape_isolation, run_transport, trace_ray)

__version__ = "0.1.0"
