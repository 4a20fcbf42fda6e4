"""absfef: absolute fully entangled fraction toolkit.

Decides whether a bipartite d (x) d density matrix can be pushed past the
teleportation threshold FEF > 1/d by a global unitary, builds the witnesses
and activating unitaries involved, and exposes the state families and
marginal analyses behind those results.
"""

from .absolute import (ClassificationReport, MembershipVerdict, PurityBounds,
                       activating_unitary, classify, is_absolute_fef,
                       is_absolutely_separable_2q, purity_bounds)
from .bases import OperatorBasis, operator_basis
from .bloch import BlochParams, bloch_extract
from .errors import (AbsFefError, DensityValidationError, DomainError,
                     MatrixShapeError)
from .fef import FefResult, fef, fef_lower_bound, fef_two_qubit_closed_form
from .linalg import (DensityMatrix, Spectrum, eig_hermitian, partial_trace,
                     validate_density)
from .states import conjugate, construct, fixture_unitary
from .tripartite import (AcinParams, MarginalReport, acin_marginal, acin_state,
                         ghzw_marginal, three_qutrit_marginal)
from .witness import (BasisDecomposition, WitnessOperator, decompose, evaluate,
                      pullback, teleportation_witness)

__version__ = "0.1.0"
