"""Statistics kernels used by the EDA compute module.

Every kernel is either *mergeable* (it exposes chunk / combine / finalize
pieces so it can run over a :class:`~repro.graph.partition.PartitionedFrame`
inside one task graph) or explicitly a *local-stage* computation that runs on
already-reduced data — mirroring the paper's Dask-stage / Pandas-stage split
(Section 5.2).
"""

from repro.stats.descriptive import (
    CategoricalSummary,
    NumericSummary,
    categorical_summary_of,
    numeric_summary_of,
)
from repro.stats.histogram import Histogram, compute_histogram, freedman_diaconis_bins
from repro.stats.kde import gaussian_kde_curve, silverman_bandwidth
from repro.stats.qq import box_plot_stats, normal_qq_points, quantiles_from_histogram
from repro.stats.correlation import (
    correlation_matrix,
    kendall_tau_matrix,
    pearson_matrix,
    spearman_matrix,
)
from repro.stats.association import (
    missing_spectrum,
    nullity_correlation,
    nullity_dendrogram,
)
from repro.stats.tests import (
    chi_square_uniformity,
    ks_similarity,
    normality_test,
)
from repro.stats.sketches import (
    DistinctSketch,
    MomentsSketch,
    NullitySketch,
    ReservoirSketch,
    StreamingHistogram,
    merge_all,
    merge_reservoirs,
)

__all__ = [
    "CategoricalSummary",
    "DistinctSketch",
    "Histogram",
    "MomentsSketch",
    "NullitySketch",
    "NumericSummary",
    "ReservoirSketch",
    "StreamingHistogram",
    "merge_all",
    "merge_reservoirs",
    "box_plot_stats",
    "categorical_summary_of",
    "chi_square_uniformity",
    "compute_histogram",
    "correlation_matrix",
    "freedman_diaconis_bins",
    "gaussian_kde_curve",
    "kendall_tau_matrix",
    "ks_similarity",
    "missing_spectrum",
    "normal_qq_points",
    "normality_test",
    "nullity_correlation",
    "nullity_dendrogram",
    "numeric_summary_of",
    "pearson_matrix",
    "quantiles_from_histogram",
    "silverman_bandwidth",
    "spearman_matrix",
]
