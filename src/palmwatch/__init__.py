"""palmwatch: palm crown detection and health classification from
multiband imagery.

Pipeline: vegetation indices -> vegetation mask -> tiling -> pixelwise
palm-probability map -> crown detection -> 3-class health labels ->
multiclass evaluation, with a synthetic scene generator providing
annotated ground truth for end-to-end verification.
"""

__version__ = "0.1.0"

from .annotations import (
    CLASS_LABELS,
    AnnotationSet,
    CrownAnnotation,
    load_annotations,
    rasterize_labels,
    save_annotations,
)
from .crown_detect import (
    CrownDetection,
    DetectorConfig,
    classify_detections,
    detect_crowns,
    match_detections,
    split_touching,
)
from .evaluate import (
    Aggregate,
    ConfusionMatrix,
    MetricsReport,
    confusion_matrix,
    metrics,
    pearson,
    prune_features,
    split_dataset,
)
from .indices import (
    ClassIndexStats,
    gndvi,
    index_stats_by_class,
    ndvi,
    vegetation_mask,
)
from .pixel_model import (
    ModelParams,
    TrainConfig,
    featurize,
    gradient,
    load_params,
    loss,
    predict_map,
    save_params,
    train,
)
from .raster_core import Band, Mask, MaskedGrid, Raster, load_raster, save_raster
from .synth_scene import SceneSpec, generate_scene
from .tiling import TilePlan, TileWindow, extract_tile, stitch, tile_plan
