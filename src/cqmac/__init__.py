"""Rate regions and hybrid code simulation for compound quantum MACs."""

from .qmatrix import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    entanglement_fidelity,
    fidelity,
    hermitian_eig,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    purify,
    tensor,
    trace_norm,
)
from .channels import (
    BudgetExceededError,
    ChannelFormatError,
    ChoiMatrix,
    CompoundSet,
    CptpError,
    CqChannel,
    KrausChannel,
    build_net,
    choi_matrix,
    diamond_distance_bounds,
    load_compound_json,
    tensor_power,
)
from .entropic import (
    CqqState,
    alicki_fannes_bound,
    coherent_information,
    coherent_information_b_cx,
    effective_cqq_state,
    holevo_fano_rate_bound,
    mutual_information_x_c,
    quantum_mutual_information,
    von_neumann_entropy,
)
from .regions import (
    RateRegion,
    Rect,
    compound_rect,
    contains,
    fatten,
    intersect,
    one_shot_region,
    scale,
    timeshare_closure,
    union,
)

# The optimizer imports scipy.optimize, which only the frontier search
# needs, so its names are looked up on first use (PEP 562).
_OPTIMIZER_NAMES = (
    "InputAnsatz",
    "pareto_trace",
)


def __getattr__(name):
    if name == "optimizer" or name in _OPTIMIZER_NAMES:
        from importlib import import_module  # ``from . import`` would probe this hook again

        optimizer = import_module(".optimizer", __name__)
        return optimizer if name == "optimizer" else getattr(optimizer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["optimizer", *_OPTIMIZER_NAMES]
)
__version__ = "0.1.0"
