"""Multiphase weakly nonlinear geometric optics for semiclassical NLS.

Resonant lattice closures, coupled profile equations and their closed forms,
Wiener-algebra norms, a split-step spectral reference solver, the end-to-end
approximation pipeline, small-divisor surveys, and a scenario CLI.  The
package republishes each module's public names, its `__all__`.
"""

from . import (
    lattice_geometry,
    profile_dynamics,
    small_divisors,
    spectral_nls,
    wiener_norms,
    wkb_pipeline,
)
from .lattice_geometry import *
from .profile_dynamics import *
from .wiener_norms import *
from .spectral_nls import *
from .small_divisors import *
from .wkb_pipeline import *

__version__ = "0.1.0"

__all__ = []
__all__ += lattice_geometry.__all__
__all__ += profile_dynamics.__all__
__all__ += wiener_norms.__all__
__all__ += spectral_nls.__all__
__all__ += small_divisors.__all__
__all__ += wkb_pipeline.__all__
