"""Open-set 1-to-many identification via rank feature vectors.

The pipeline: store embeddings (:mod:`rankgate.store`), search a gallery
exactly (:mod:`rankgate.search`), curate labeled rank vectors with the
dual-search protocol (:mod:`rankgate.curation`), train the classifier
(:mod:`rankgate.mlp`), compare against score and centroid baselines
(:mod:`rankgate.baselines`), and drive full evaluations
(:mod:`rankgate.experiment`), optionally on synthetic stores
(:mod:`rankgate.synth`). The binary formats are read, and the CSV and
JSON formats read and written, through :mod:`rankgate.codec`.

``rankgate.search`` is the function :func:`rankgate.search.search`, not
the submodule it shadows; ``import rankgate.search as m`` gives the
function too. Import the module's other names from it directly:
``from rankgate.search import similarities, screen, extract_rank_vector``.
"""

from .baselines import (
    CentroidModel,
    ThresholdModel,
    calibrate_threshold,
    centroid_classify,
    fit_centroid,
)
from .curation import (
    IN_GALLERY,
    OUT_OF_GALLERY,
    CurationConfig,
    RankSample,
    SplitDataset,
    curate_detailed,
    permute_augment,
    rank_distribution_report,
    select_probes,
    stratified_split,
)
from .experiment import (
    ConditionSpec,
    EvalReport,
    ExperimentPlan,
    cardinality_sweep,
    emit_report,
    run_experiment,
)
from .mlp import MlpConfig, MlpModel, TrainReport, load_model, predict, save_model, train
from .search import (
    GalleryIndex,
    SearchResult,
    build_gallery,
    extract_rank_vector,
    search,
)
from .store import (
    EmbeddingStore,
    StoreFormatError,
    ingest,
    l2_normalize,
    write_store,
)
from .synth import SynthConfig, degrade_probe, generate

__version__ = "0.1.0"

__all__ = [
    "CentroidModel",
    "ConditionSpec",
    "CurationConfig",
    "EmbeddingStore",
    "EvalReport",
    "ExperimentPlan",
    "GalleryIndex",
    "IN_GALLERY",
    "MlpConfig",
    "MlpModel",
    "OUT_OF_GALLERY",
    "RankSample",
    "SearchResult",
    "SplitDataset",
    "StoreFormatError",
    "SynthConfig",
    "ThresholdModel",
    "TrainReport",
    "build_gallery",
    "calibrate_threshold",
    "cardinality_sweep",
    "centroid_classify",
    "curate_detailed",
    "degrade_probe",
    "emit_report",
    "extract_rank_vector",
    "fit_centroid",
    "generate",
    "ingest",
    "l2_normalize",
    "load_model",
    "permute_augment",
    "predict",
    "rank_distribution_report",
    "run_experiment",
    "save_model",
    "search",
    "select_probes",
    "stratified_split",
    "train",
    "write_store",
]
