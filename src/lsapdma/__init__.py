"""Link-level simulator and pattern-mapping optimizer for beam/power-domain
multiple access with a large transmit antenna array."""

__version__ = "0.1.0"

from .channel import CellConfig, ChannelMatrix, UserDrop, drop_users, large_scale_gain, sample_channel
from .beamforming import (
    BeamformerSet,
    SelectedUserSet,
    SingularChannelError,
    compute_zfbf,
    select_users,
    zf_beamformers,
)
from .pattern import (
    PatternMatrix,
    correlation_matrix,
    equal_splits,
    fixed_ratio_ladders,
    oma_pattern,
    pnoma_pattern,
    simple_beam_allocation,
    validate_pattern,
)
from .receiver import beam_sum_rates, drop_link_states, pair_rates, sic_orders, sic_sinrs
from .optimizer import (
    BarrierParams,
    OptProblem,
    OptSolution,
    barrier_solve,
    check_constraints,
    feasible_start,
    gradient,
    hessian,
    objective,
    water_fill,
    water_fills,
)
from .harness import ExperimentConfig, ResultTable, emit_results, run_drop, run_monte_carlo
