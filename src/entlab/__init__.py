"""entlab: a finite-dimensional laboratory for entangled ergodic averages.

Evaluate multi-index Cesaro means of operator chains whose power indices are
entangled by a surjective partition, assemble their norm limits from mean
ergodic projections over resonant unimodular spectra, and probe the
boundary: exact divergence on the shift lattice, and the continuous-time
analogue for matrix semigroups.
"""

from .errors import (
    BadAngleError,
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    EmptyAlphaError,
    EmptySequenceError,
    EntlabError,
    NonConvergenceError,
    NotBoundedSemigroupError,
    NotInvertibleError,
    NotPowerBoundedError,
    NotSurjectiveError,
    NotUnimodularError,
    ParseError,
    SpectralFailureError,
    ValidationError,
)
from .rng import CounterRng
from .linalg import (
    DIM_CAP,
    EigDecomposition,
    eig,
    expm,
    haar_unitary,
    spectral_norm,
)
from .operators import (
    Certificate,
    JdlSplit,
    OrthonormalBasis,
    PowerBoundReport,
    RandomSimilarity,
    SpectralOperator,
    SpectralPoint,
    certify_power_bounded,
    from_matrix,
    jdl_split,
    mean_ergodic_projection,
    parse_angle,
    synth_operator,
)
from .entangle import (
    EntangledSystem,
    Partition,
    StackedSystem,
    entangled_average,
    generalized_power_average,
    make_partition,
    make_system,
    multiple_ergodic_average,
    stacked_average,
    stacked_system,
)
from .spectral_limit import (
    KvnReport,
    ResonantTuple,
    ResonantTuples,
    kvn_diagnostic,
    limit_operator,
    limit_operator_with_tuples,
    resonant_tuples,
    unimodular_spectrum,
)
from .shiftlab import (
    BLOCK_SEQUENCE,
    BlockSequence,
    SparseZVector,
    counterexample_A,
    divergence_experiment,
    finite_section,
    iter_divergence,
    shift_apply,
)
from .continuous import (
    ContinuousAverage,
    ContinuousSystem,
    FrequencyPoint,
    QuadratureSpec,
    Semigroup,
    certify_bounded_semigroup,
    continuous_entangled_average,
    continuous_limit_operator,
    frequency_spectrum,
    make_continuous_system,
    semigroup_from_generator,
    suggest_points,
    synth_semigroup,
)

__version__ = "0.1.0"
