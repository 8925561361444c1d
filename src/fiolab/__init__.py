"""Numerics for time-frequency norms and oscillatory integral operators.

The package samples functions on uniform symmetric grids, computes
short-time Fourier transforms and the modulation-type norms built from
them, applies operators defined by a symbol and a phase, and runs
threshold experiments that compare measured norm growth with predicted
boundedness regions.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    FiolabError,
    ResourceError,
    StructuralError,
    ValidationError,
)
from .experiments import (
    ExperimentRow,
    SweepTuple,
    emit_report,
    fast_modulation_norms,
    render_report_svg,
    rows_from_csv,
    rows_to_csv,
    thm1_default_tuples,
    thm2_default_tuples,
    thm3_default_tuples,
    threshold_sweep,
)
from .extremal import (
    Bump,
    CoefficientSeq,
    annulus_profile,
    build_F,
    bump_train,
    build_modulated_train,
    chirp_modulate,
    decay_grid,
    default_bump,
    default_dispersive_grid,
    dispersive_sup,
    high_growth_decay,
)
from .fio import (
    BANDLIMIT_TOL,
    SymbolSpec,
    apply_fio,
    apply_fio_family,
    apply_kernel,
    bandlimit_leakage,
    constant_symbol,
    decaying_symbol,
    ensure_bandlimited,
    kernel,
    make_symbol,
    weak_pairing,
)
from .grid import (
    Grid,
    Runs,
    SampledFunction,
    bracket,
    fourier_transform,
    inner,
    inverse_fourier_transform,
    sampled_from_csv,
    sampled_to_csv,
)
from .phase import (
    ConditionVerdict,
    GrowthParams,
    PhaseSpec,
    bilinear,
    bracket_power,
    check_phase,
    high_growth,
    k_alpha,
    make_phase,
    mild_growth,
    mollifier,
    mu_gradient,
    nonseparated_x,
    nonseparated_xi,
    separation_margin,
    verify_growth,
    verify_separation,
)
from .spaces import (
    INF,
    SpaceSpec,
    Weight,
    embedding_holds,
    embedding_witness,
    fold_norms,
    modulation_norm,
    sequence_norm,
    stft_norms,
    thm1_predicate,
    thm2_predicate,
    thm3_predicate,
)
from .tf import (
    DEFAULT_WINDOW,
    TFMatrix,
    fundamental_identity_residual,
    make_window,
    stft,
    tf_to_csv,
)

__version__ = "0.1.0"

# every public name imported above, in sorted order
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
