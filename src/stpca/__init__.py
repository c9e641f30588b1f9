"""Sparse tensor PCA toolkit: spiked-model sampling, limited brute-force
support recovery, exact low-degree chi-squared computation, and
information-theoretic thresholds."""

from .tensor import (
    CapacityError,
    DenseTensor,
    DenseUnitVector,
    DimensionMismatchError,
    SparseSignVector,
    add_rank1,
    contract_leave_mode,
    contract_leave_one,
    flat_index,
    rank1_inner,
    read_sstf1,
    unflatten,
    write_sstf1,
)
from .model import (
    SignalSpec,
    SstmInstance,
    make_flat_signal,
    sample_apx_flat_signal,
    sample_distinguishing,
    sample_general_instance,
    sample_noise_tensor,
    sample_rademacher_prior,
    sample_sstm,
    substream,
)
from .recovery import (
    RecoveryReport,
    argmax_over_Ut,
    distinguish,
    enumerate_candidates,
    match_supports,
    preprocess_split,
    recover_general,
    recover_multi,
    recover_single,
    threshold_lambda,
    threshold_lambda_general,
)
from .lowdeg import (
    ChiSqReport,
    LowDegParams,
    chi_squared_exact,
    chi_squared_oracle,
    degree_term,
    even_all_count,
    even_surj_count,
    lower_bound_lambda,
    upper_bound_lambda,
)
from .infotheory import (
    covering_number_oracle,
    kl_upper_bound,
    minimax_lambda,
    packing_lower_bound_log,
    risk_constant,
)
from .experiments import (
    PhaseConfig,
    check_concentration,
    estimate_phase_boundary,
    run_phase_diagram,
)

__version__ = "0.1.0"
