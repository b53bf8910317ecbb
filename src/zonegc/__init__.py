"""Zone-partitioned object lifecycle runtime.

Objects live in one of three fixed zones (red, green, blue) chosen at
allocation time from observed behavior. Liveness is tracked in a packed
3-bit checkpoint table and resolved with word-parallel gate sweeps; expiry
never moves an object, it reclaims the slot in place and any replacement is
a fresh allocation in the target zone. A partitioned scheduler fans kernels
out over deterministic index ranges so results stay bit-identical at any
worker count.
"""

from .bench import (
    ALLOC_KINDS,
    KINDS,
    TIMED_KINDS,
    AttemptRecord,
    BenchReport,
    WorkloadSpec,
    run_alloc_experiments,
    run_bench,
    run_loop,
    run_matrix,
    run_recursion,
    summarize,
    wrap16,
)
from .checkpoint import (
    Action,
    CheckpointTable,
    Signals,
    StateCode,
    SweepReport,
    address_of,
    dump_snapshot,
    index_of,
    step_state,
)
from .config import RuntimeConfig, load_config, parse_config
from .errors import (
    AlignmentError,
    ConfigError,
    DepthLimitError,
    EphemeralStateError,
    IndexRangeError,
    LifecycleError,
    ObjectiveUndefinedError,
    PartitionFaultError,
    PartitionPlanError,
    PromotionError,
    ShapeError,
    SignalConflictError,
    TopologyError,
    YieldOverflowError,
    ZoneCapacityError,
    ZonegcError,
)
from .gates import (
    eval_liveness_gate,
    gate_and,
    gate_nand,
    gate_nor,
    gate_not,
    gate_or,
    gate_xnor,
    gate_xor,
    transition_detect,
    zone_mask_update,
)
from .layout import SLOT_BYTES, Generation, ZoneId, ZoneLayout
from .objects import (
    EmaConfig,
    EventKind,
    FeatureVector,
    LogicalClock,
    ObjectHandle,
    RateTracker,
    ema_update,
    feature_snapshot,
    record_event,
)
from .ppe import (
    PartitionPlan,
    RebalancePlan,
    RebalanceSample,
    ThreadAllocation,
    allocate_threads,
    make_partitions,
    optimize_thread_allocation,
    probe_cores,
    rebalance_targets,
    run_parallel,
    scheduler_objective,
)
from .yield_memory import EphemeralState, PromotionTarget, YieldScope, promotion_target
from .zones import (
    CostParams,
    PoolStats,
    PredicateThresholds,
    RateThresholds,
    ZoneArena,
    ZoneWeights,
    classify_predicates,
    classify_simple,
    eligibility,
    zone_cost,
)

__version__ = "0.1.0"
