"""spamm: sparse approximate matrix multiplication on quadtree matrices.

Matrices live in quadtrees whose nodes cache squared Frobenius norms; the
multiply recurses over the (i, j, k) product space and prunes whole cuboids
whose norm product falls below a threshold, trading a bounded Frobenius
error for skipped work.  A TC2 density-matrix purification driver and an
element-dropping baseline turn that trade into measurable flops-vs-error
benchmarks, with space-filling-curve orderings to restore locality when the
input ordering has none.
"""

from .quadtree import (
    DimensionMismatchError,
    QuadTreeMatrix,
    add,
    filter_drop,
    from_dense,
    scale,
    trace,
)
from .multiply import (
    ProductStats,
    PrunedBox,
    SpammConfig,
    spamm,
    write_box_log,
)
from .generators import (
    ModelHamiltonian,
    bin_profile,
    chain_positions,
    decay_profile,
    gen_algebraic,
    gen_exponential,
    gen_model_hamiltonian,
    log_linear_fit,
    write_profile_csv,
)
from .ordering import apply_ordering, order_atoms
from .purification import (
    DroppingMode,
    MatchResult,
    PurificationResult,
    SpammMode,
    ThresholdMatchError,
    match_error_threshold,
    purify,
    tc2_initial_guess,
    tc2_step,
    write_purify_report,
)
from .matrixmarket import read_matrix_market, write_matrix_market

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError", "QuadTreeMatrix", "add", "filter_drop",
    "from_dense", "scale", "trace",
    "ProductStats", "PrunedBox", "SpammConfig", "spamm", "write_box_log",
    "ModelHamiltonian", "bin_profile", "chain_positions", "decay_profile",
    "gen_algebraic", "gen_exponential", "gen_model_hamiltonian",
    "log_linear_fit", "write_profile_csv",
    "apply_ordering", "order_atoms",
    "DroppingMode", "MatchResult", "PurificationResult", "SpammMode",
    "ThresholdMatchError", "match_error_threshold", "purify",
    "tc2_initial_guess", "tc2_step", "write_purify_report",
    "read_matrix_market", "write_matrix_market",
]
