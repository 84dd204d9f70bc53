"""rigclust: degree-conditioned clustering in random intersection graphs.

Simulation of the weighted affiliation model, exact evaluation of its limiting
clustering coefficients, Pareto tail asymptotics with the regime-switching
exponent, and a CLI tying the two sides together.
"""

__version__ = "0.1.0"

from .weights import (
    Degenerate,
    DomainError,
    Finite,
    InfiniteMomentError,
    ModelParams,
    Pareto,
    WeightLaw,
)
from .mixedpoisson import (
    MixingSpec,
    Pmf,
    QuadratureError,
    mixing_spec,
    pmf_mixed_poisson,
    pmf_mixed_poissons,
    pmf_offspring,
    sample_biased,
)
from .stoppedsum import (
    convolve,
    pmf_stopped_sum,
    pmf_stopped_sums,
    tail_from_pmf,
)
from .theory import (
    Interval,
    LimitLaws,
    adaptive_limit_laws,
    attribute_tail_asymptotic,
    coefficient_from_ratio,
    degree_tail_asymptotic,
    delta_exponent,
    ratio_from_coefficient,
    tail_weight_asymptotics,
    theory_curve,
)
from .graphgen import (
    BipartiteSample,
    EdgeBudgetError,
    ProjectedGraph,
    graph_from_edges,
    project,
    sample_bipartite,
)
from .spectrum import (
    ClusteringSpectrum,
    DataFormatError,
    clustering_spectrum,
    pool,
    read_edge_list,
    triangle_counts,
    write_edge_list,
    write_spectrum_csv,
)
from .experiment import (
    ComparisonReport,
    ExperimentConfig,
    FitResult,
    UsageError,
    build_config,
    config_hash,
    fit_delta,
    parse_law,
    replicate_seed,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
