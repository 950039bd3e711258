"""Decoders for one-shot entanglement transmission.

Construct and evaluate Petz, rotated-Petz, twirled-Petz,
Schumacher-Westmoreland, and SDP-optimal decoders, together with the
Renyi-divergence machinery that governs their entanglement fidelities.
"""

from . import bench, decoders, errors, infomeasures, matcore, optdec, quantum
from .decoders import (
    Decoder,
    RotatedFidelity,
    beta0_quadrature,
    build_petz,
    build_rotated_petz,
    build_sw,
    build_twirled_petz,
    fe_closed_form,
    fe_of_decoder,
    identity_decoder,
)
from .infomeasures import (
    DivergenceResult,
    entropy,
    entropy_derived,
    epsilon_sw,
    min_petz_mi_order2,
    petz_divergence,
    relative_entropy,
    sandwiched_divergence,
    sandwiched_mi_up,
    sandwiched_mi_upup_half,
    singly_min_petz_mi_half,
    sw_original_bound,
)
from .matcore import (
    HermEig,
    Svd,
    fidelity,
    herm_eig,
    matrix_power_on_support,
    partial_trace,
    schatten_norm,
)
from .optdec import (
    SdpProblem,
    SdpSolution,
    bk_bracket_check,
    build_fidelity_sdp,
    optimal_fidelity,
    reduce_problem,
    solve_sdp,
)
from .quantum import (
    DensityOperator,
    KrausChannel,
    PurifiedSource,
    StinespringIsometry,
    adjoint_apply,
    apply_channel,
    channel_from_choi,
    channel_on_purification,
    choi_of_channel,
    complementary_channel,
    density_operator,
    entanglement_fidelity_direct,
    kraus_channel,
    make_channel,
    make_code_source,
    purify,
    stinespring_dilation,
    tensor_power,
    validate_cptp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
