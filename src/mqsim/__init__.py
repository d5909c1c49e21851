"""Exact simulator and verification harness for class-segregated multi-queue
buffer management: an online greedy policy against the offline optimum, with
mechanical checks of every counter identity and the 1 + c* ratio bound."""

from .adversary import (
    BoundFalsified,
    BudgetExceeded,
    SearchResult,
    exhaustive_worst,
    random_trace,
    random_worst,
)
from .analysis import (
    ComparativeReport,
    MTooSmall,
    Verdict,
    check_D_bounds,
    check_aggregate_deficit,
    check_delta_chain,
    check_phi_nonneg,
    check_xi_nonneg,
    compute_delta,
    compute_phi,
    compute_xi,
    format_report,
    suffix_sums,
    u_candidates,
    u_explicit,
    u_recursion,
    verify_all,
)
from .engine import (
    ClassOutOfRange,
    DiligenceViolation,
    Ledger,
    LedgerMismatch,
    Schedule,
    ledger_to_tsv,
    replay_schedule,
    run_greedy,
)
from .model import (
    BadClassIndex,
    BoundReport,
    ConfigError,
    MQSimError,
    NonPositiveValue,
    NotIncreasing,
    QueueCapacities,
    SEND,
    TooFewClasses,
    Trace,
    TraceSyntaxError,
    ValueProfile,
    append_drain,
    compute_c,
    parse_config,
    parse_trace,
    trace_to_text,
    validate_profile,
)
from .opt import OptResult, StateSpaceExceeded, opt_bruteforce, opt_search

__version__ = "0.1.0"
