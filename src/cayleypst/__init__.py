"""Perfect state transfer on Cayley graphs of finite abelian groups.

Decides transfer exactly from the structure of the connection set (for groups
with a cyclic Sylow-2-subgroup), computes exact integer spectra through group
characters, and cross-checks everything against dense matrix-exponential
numerics.
"""

import types

from .groups import (
    AbelianGroup,
    CapExceededError,
    ConnectionSet,
    GroupElement,
    GroupMismatchError,
    Subgroup4m,
    element_order,
    is_power_closed,
    list_power_classes,
    order_four_pair,
    parse_connection_set,
    parse_element,
    parse_group,
    partition_by_two_part,
    power_class,
    power_class_key,
    scalar_multiple_set,
    subgroup_4m,
    sylow2_cyclic,
    two_part,
    unique_involution,
)
from .pst import (
    CrossValidationError,
    ParityReport,
    PstReport,
    TRANSFER_TIME,
    Verdict,
    character_criterion,
    characterize_pst,
    check_4m_conditions,
    enumerate_pst_sets,
    parity_report,
    reduce_to_4m,
)
from .spectra import (
    NonIntegralSpectrumError,
    Spectrum,
    character_table,
    delta,
    integral_spectrum,
    odd_eigenvalue_exists,
)
from .walk import (
    PstDetection,
    TransitionMatrix,
    adjacency_matrix,
    dense_expm,
    detect_pst_numeric,
    is_periodic_numeric,
    transition_amplitude,
    transition_matrix,
)

__version__ = "0.1.0"

# every name imported above, and no module
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
