"""Leadership inference over cities from weekly listening charts."""

__version__ = "0.1.0"

from .charts import (
    ChartFormatError,
    ChartStore,
    GenreCatalog,
    WeeklyChart,
    WindowStack,
    read_chart_csv,
    read_genre_catalog,
    read_missing_weeks,
    write_chart_csv,
    write_missing_weeks,
)
from .cluster import (
    DistanceMatrix,
    average_linkage,
    flat_cut,
    summed_distances,
    to_newick,
)
from .exports import (
    ExportFormatError,
    read_edge_csv,
    read_manifest,
    read_populations,
    write_dot,
    write_edge_csv,
    write_graphml,
    write_manifest,
    write_populations,
)
from .lagcorr import (
    DyadResult,
    Dyads,
    VelocitySeries,
    compute_all_velocities,
    load_dyads,
    save_dyads,
    scan_dyads,
)
from .network import (
    AcyclicityReport,
    CentralityReport,
    Edge,
    LeadershipGraph,
    SizeLeadershipReport,
    build_graph,
    feedback_arc_set,
    pagerank,
    size_leadership,
)
from .pipeline import PipelineResult, RunConfig, build_windows, run_pipeline
from .stats import (
    DegenerateSampleError,
    SpearmanResult,
    TestResult,
    UndefinedCorrelationError,
    one_sample_ttest,
    paired_ttest,
    spearman,
    t_cdf,
)
from .synth import (
    PlantedEdge,
    PlantedHierarchy,
    SynthCity,
    SynthConfig,
    chain_hierarchy,
    generate_charts,
    load_hierarchy,
    load_synth_config,
    shuffle_null,
)

__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith("leadlag.")
)
