"""Exact and numerical toolkit for the radial subalgebra of free group algebras.

Four layers:

* ``words`` / ``algebra`` -- exact rational arithmetic in the group algebra
  of a free group, the brute-force oracle for every identity here;
* ``identities`` -- the sandwich components, closed forms for their
  identities, and the one exhaustive exact verification sweep;
* ``spectral`` -- the radial polynomials, the Kesten spectral measure,
  quadrature against it, and the geometric-sine closed sum;
* ``density`` -- the left-right density on the spectral square, whose
  series coefficients are the ``pairing_closed`` pairings: by truncated
  series with rigorous tail bounds and by its rational closed form, both on
  grids, plus pairing checks and a zero-set scan.

The command line lives in ``radialmasa.cli``.
"""

from .algebra import (
    DEFAULT_CAP,
    GroupAlgebraElement,
    InversionEigenvector,
    chi,
    chi_support_size,
    inner_product,
    multiply,
    radial_moment_exact,
)
from .density import (
    PairingReport,
    ZeroScanReport,
    density_closed_grid,
    density_normalization,
    density_series_grid,
    pairing_sweep,
    series_tail_bound,
    zero_scan,
)
from .errors import QuadratureError, RankMismatchError, ResourceCapError
from .identities import (
    CheckReport,
    pairing_closed,
    run_identity_sweep,
    sandwich_inner_closed,
    standard_test_vectors,
)
from .spectral import (
    SpectralParams,
    chi_eval_recurrence,
    kesten_density,
    quad_lambda,
    trig_sum,
    trig_sum_partial,
)
from .words import EMPTY, Word, word_concat, word_from_letters, word_inverse, word_length

__version__ = "0.1.0"
