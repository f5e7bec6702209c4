"""Synthetic annotated scenes for exercising the full pipeline.

Scenes are four-band (red, green, blue, nir) reflectance grids over a
bare-soil background. Crowns are discs with a cosine radial falloff
blending a per-class spectral profile into the background, plus
per-crown profile jitter and per-pixel sensor noise. Default profiles
are chosen so the stock detector rules label the generated classes
correctly: healthy crowns have strong NIR (NDVI around 0.7), dead crowns
are gray (near-equal bands, NDVI under 0.1), smallish crowns reuse the
healthy profile at small diameters, and the background sits near
NDVI 0.1.

Generation is a pure function of the spec (including its seed): the same
spec always produces byte-identical scenes and annotations, on any number
of CPUs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annotations import CLASS_LABELS, AnnotationSet, CrownAnnotation, disc_box
from .errors import CapacityError, ParameterError
from .jsondoc import from_fields, parse_document, read_document
from .raster_core import MAX_SAMPLE_PARAM, MAX_SCENE_PIXELS, Band, Raster, map_row_blocks, stream, stream_rows

BAND_NAMES = ("red", "green", "blue", "nir")

DEFAULT_PROFILES = {
    "healthy": {"red": 0.08, "green": 0.10, "blue": 0.06, "nir": 0.45},
    "smallish": {"red": 0.08, "green": 0.10, "blue": 0.06, "nir": 0.45},
    "dead": {"red": 0.17, "green": 0.17, "blue": 0.17, "nir": 0.19},
}
DEFAULT_BACKGROUND = {"red": 0.21, "green": 0.19, "blue": 0.15, "nir": 0.26}
DEFAULT_COUNTS = {"healthy": 90, "smallish": 45, "dead": 40}
DEFAULT_DIAMETERS = {"healthy": (16.0, 28.0), "smallish": (7.0, 11.0), "dead": (14.0, 26.0)}

_PLACEMENT_ATTEMPTS_PER_CROWN = 2000


@dataclass
class SceneSpec:
    width: int = 4096
    height: int = 4096
    counts: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    diameter_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_DIAMETERS)
    )
    profiles: dict[str, dict[str, float]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_PROFILES.items()}
    )
    background: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BACKGROUND))
    jitter_std: float = 0.01
    noise_sigma: float = 0.01
    min_spacing: float = 16.0
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.width < math.inf and 1 <= self.height < math.inf):
            raise ParameterError(f"scene dimensions must be finite and >= 1, got {self.width}x{self.height}")
        if self.width * self.height > MAX_SCENE_PIXELS:
            raise ParameterError(
                f"a {self.width}x{self.height} scene exceeds {MAX_SCENE_PIXELS} pixels"
            )
        for label, count in self.counts.items():
            if label not in CLASS_LABELS:
                raise ParameterError(f"unknown class {label!r} in counts")
            if not 0 <= count < math.inf:
                raise ParameterError(f"count for {label!r} must be finite and >= 0, got {count}")
            if count and not (label in self.diameter_ranges and label in self.profiles):
                raise ParameterError(f"class {label!r} has crowns but no diameter range or profile")
        for label, (lo, hi) in self.diameter_ranges.items():
            if not 0 < lo <= hi < math.inf:
                raise ParameterError(
                    f"diameter range for {label!r} must be finite with 0 < lo <= hi, got ({lo}, {hi})"
                )
        for profile in list(self.profiles.values()) + [self.background]:
            for band, value in profile.items():
                if band not in BAND_NAMES:
                    raise ParameterError(f"unknown band {band!r} in spectral profile")
                if not 0 <= value < MAX_SAMPLE_PARAM:
                    raise ParameterError(f"reflectance for {band!r} must be finite and in [0, {MAX_SAMPLE_PARAM:g}), got {value}")
        for name, limit in (("jitter_std", MAX_SAMPLE_PARAM), ("noise_sigma", MAX_SAMPLE_PARAM), ("min_spacing", math.inf)):
            if not 0 <= getattr(self, name) < limit:
                raise ParameterError(f"{name} must be finite and in [0, {limit:g}), got {getattr(self, name)}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


def spec_to_json(spec: SceneSpec) -> str:
    return json.dumps(asdict(spec), indent=2) + "\n"


def spec_from_json(text: str) -> SceneSpec:
    return from_fields(SceneSpec, parse_document(text, "scene spec"), "scene spec")


def load_spec(path) -> SceneSpec:
    return from_fields(SceneSpec, read_document(path, "scene spec"), f"scene spec {path}")


def _spaced(a: CrownAnnotation, b: CrownAnnotation, min_spacing: float) -> bool:
    """Whether crowns a and b keep ``min_spacing`` px between their discs."""
    return math.hypot(a.cx - b.cx, a.cy - b.cy) >= min_spacing + a.radius_px + b.radius_px


def _place_crowns(spec: SceneSpec, rng: np.random.Generator) -> list[CrownAnnotation]:
    """Seeded rejection sampling honoring pairwise spacing and edge margins.

    Each candidate is checked only against the crowns already placed near
    it, found through a background grid (Bridson, "Fast Poisson disk
    sampling in arbitrary dimensions", SIGGRAPH 2007 sketches): placed
    crowns are kept in buckets of square cells ``min_spacing + 2 x
    (largest upper radius + 1)`` px wide, so two crowns too close share
    a cell or touch neighbouring ones (the ``+ 1`` covers the 1/256 px
    snapping). The rng draws, their order and the spacing test are
    those of checking every pair, so the crowns are the same; placement
    costs near-linear time in the crown count, unless ``min_spacing`` is
    so large that one cell holds the scene.
    """
    counted = [label for label in CLASS_LABELS if spec.counts.get(label, 0)]
    largest = max((spec.diameter_ranges[label][1] / 2.0 for label in counted), default=0.0)
    cell = spec.min_spacing + 2.0 * (largest + 1.0)
    buckets: dict[tuple[int, int], list[CrownAnnotation]] = {}
    placed: list[CrownAnnotation] = []
    next_id = 1
    for label in counted:
        lo, hi = spec.diameter_ranges[label]
        for _ in range(spec.counts[label]):
            for attempt in range(_PLACEMENT_ATTEMPTS_PER_CROWN):
                radius = float(rng.uniform(lo, hi)) / 2.0
                margin = radius + 2.0
                if 2 * margin > spec.width - 1 or 2 * margin > spec.height - 1:
                    raise CapacityError(
                        f"a {label} crown of radius {radius:.1f} cannot fit a "
                        f"{spec.width}x{spec.height} scene"
                    )
                cx = float(rng.uniform(margin, spec.width - 1 - margin))
                cy = float(rng.uniform(margin, spec.height - 1 - margin))
                # spacing is checked on the stored (grid-snapped) geometry
                candidate = CrownAnnotation(
                    id=next_id, class_label=label, cx=cx, cy=cy, radius_px=radius
                )
                i, j = int(candidate.cx // cell), int(candidate.cy // cell)
                ok = all(
                    _spaced(candidate, c, spec.min_spacing)
                    for di in (-1, 0, 1)
                    for dj in (-1, 0, 1)
                    for c in buckets.get((i + di, j + dj), ())
                )
                if ok:
                    placed.append(candidate)
                    buckets.setdefault((i, j), []).append(candidate)
                    next_id += 1
                    break
            else:
                raise CapacityError(
                    f"could not place crown {next_id} ({label}) after "
                    f"{_PLACEMENT_ATTEMPTS_PER_CROWN} attempts; reduce counts, "
                    f"spacing or diameters"
                )
    return placed


def _render_crowns(spec: SceneSpec, crowns, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The noise-free float32 planes: background, then each crown in turn
    (a later crown overwrites an earlier one where they overlap), drawn
    over its ``disc_box`` with its class profile jittered by ``rng``. The
    background is filled one row block at a time on every CPU, so the
    first touch of the planes' memory is shared too."""
    grids = {band: np.empty((spec.height, spec.width), dtype=np.float32) for band in BAND_NAMES}

    def fill(rows, _):
        for band, samples in grids.items():
            samples[rows] = spec.background.get(band, 0.0)

    map_row_blocks(spec.height, spec.width, fill)
    for crown in crowns:
        profile = spec.profiles[crown.class_label]
        jitter = rng.normal(0.0, spec.jitter_std, size=len(BAND_NAMES)) if spec.jitter_std > 0 else np.zeros(len(BAND_NAMES))
        box, sq, inside = disc_box(crown.cx, crown.cy, crown.radius_px, spec.width, spec.height)
        d = np.sqrt(sq[inside])
        falloff = np.cos(0.5 * math.pi * np.minimum(d / crown.radius_px, 1.0))
        for i, band in enumerate(BAND_NAMES):
            target = max(profile.get(band, 0.0) + jitter[i], 0.0)
            base = spec.background.get(band, 0.0)
            grids[band][box][inside] = (base + (target - base) * falloff).astype(np.float32)
    return grids


def generate_scene(spec: SceneSpec) -> tuple[Raster, AnnotationSet]:
    """Render a scene and its annotations from a spec, deterministically.

    Crowns blend their (jittered) class profile into the background with
    a cosine falloff over the disc radius; their placement and jitter
    come from ``default_rng(spec.seed)``. Placement finds a candidate's
    neighbours through a background grid (Bridson 2007) and each crown
    is drawn over its own bounding box, so both cost near-linear time in
    the crown count. Independent Gaussian sensor noise is added last, on
    every CPU, and reflectance is clamped at zero. The noise of row band
    j (``raster_core.stream_rows``) of band i is float32 standard
    normals from ``stream(spec.seed, i, j)`` times ``noise_sigma``.
    """
    rng = np.random.default_rng(spec.seed)
    crowns = _place_crowns(spec, rng)
    grids = _render_crowns(spec, crowns, rng)

    sigma = np.float32(spec.noise_sigma)
    band_rows = stream_rows(spec.width)

    def add_noise(rows, noise):
        noise = noise[: rows.stop - rows.start]
        for i, samples in enumerate(grids.values()):
            block = samples[rows]
            if sigma > 0:
                stream(spec.seed, i, rows.start // band_rows).standard_normal(out=noise, dtype=np.float32)
                noise *= sigma
                block += noise
            np.maximum(block, 0.0, out=block)

    map_row_blocks(
        spec.height, spec.width, add_noise, workers=None,
        scratch=lambda rows: np.empty((rows, spec.width), np.float32), block_rows=band_rows,
    )
    bands = []
    for band, samples in grids.items():
        samples.setflags(write=False)  # so Band keeps the plane instead of copying it
        bands.append(Band(name=band, samples=samples))
    raster = Raster(bands=tuple(bands), nodata_value=None, origin=(0, 0))
    return raster, AnnotationSet(tuple(crowns))
