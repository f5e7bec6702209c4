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
spec always produces byte-identical scenes and annotations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annotations import CLASS_LABELS, AnnotationSet, CrownAnnotation, disc_pixels
from .errors import CapacityError, ParameterError
from .jsondoc import from_fields, parse_document, read_document
from .raster_core import Band, Raster

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
# Largest scene a spec may ask for: 65536x65536 pixels, whose four
# float32 bands take 64 GiB. Far larger sizes would fail inside numpy
# with errors other than MemoryError.
MAX_SCENE_PIXELS = 2**32
# Bound on a spec's reflectances, jitter_std and noise_sigma. A sample is
# a reflectance plus jitter and noise draws of a few sigma, so below it
# every sample stays far inside float32's 3.4e38 range.
MAX_SAMPLE_PARAM = 1e30


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


def _place_crowns(spec: SceneSpec, rng: np.random.Generator) -> list[CrownAnnotation]:
    """Seeded rejection sampling honoring pairwise spacing and edge margins."""
    placed: list[CrownAnnotation] = []
    next_id = 1
    for label in CLASS_LABELS:
        count = spec.counts.get(label, 0)
        if count == 0:
            continue
        lo, hi = spec.diameter_ranges[label]
        for _ in range(count):
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
                ok = all(
                    math.hypot(candidate.cx - c.cx, candidate.cy - c.cy)
                    >= spec.min_spacing + candidate.radius_px + c.radius_px
                    for c in placed
                )
                if ok:
                    placed.append(candidate)
                    next_id += 1
                    break
            else:
                raise CapacityError(
                    f"could not place crown {next_id} ({label}) after "
                    f"{_PLACEMENT_ATTEMPTS_PER_CROWN} attempts; reduce counts, "
                    f"spacing or diameters"
                )
    return placed


def generate_scene(spec: SceneSpec) -> tuple[Raster, AnnotationSet]:
    """Render a scene and its annotations from a spec, deterministically.

    Crowns blend their (jittered) class profile into the background with
    a cosine falloff over the disc radius; independent Gaussian sensor
    noise is added last and reflectance is clamped at zero.
    """
    rng = np.random.default_rng(spec.seed)
    crowns = _place_crowns(spec, rng)

    grids = {
        band: np.full((spec.height, spec.width), spec.background.get(band, 0.0), dtype=np.float32)
        for band in BAND_NAMES
    }
    for crown in crowns:
        profile = spec.profiles[crown.class_label]
        jitter = rng.normal(0.0, spec.jitter_std, size=len(BAND_NAMES)) if spec.jitter_std > 0 else np.zeros(len(BAND_NAMES))
        ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, spec.width, spec.height)
        d = np.sqrt((xs - crown.cx) ** 2 + (ys - crown.cy) ** 2)
        falloff = np.cos(0.5 * math.pi * np.minimum(d / crown.radius_px, 1.0))
        for i, band in enumerate(BAND_NAMES):
            target = max(profile.get(band, 0.0) + jitter[i], 0.0)
            base = spec.background.get(band, 0.0)
            grids[band][ys, xs] = (base + (target - base) * falloff).astype(np.float32)

    bands = []
    for band in BAND_NAMES:
        samples = grids[band]
        if spec.noise_sigma > 0:
            noise = rng.standard_normal(samples.shape, dtype=np.float32)
            noise *= np.float32(spec.noise_sigma)
            samples += noise
        np.maximum(samples, 0.0, out=samples)
        bands.append(Band(name=band, samples=samples))
    raster = Raster(bands=tuple(bands), nodata_value=None, origin=(0, 0))
    return raster, AnnotationSet(tuple(crowns))


def rasterize_labels(ann: AnnotationSet, width: int, height: int) -> np.ndarray:
    """Boolean palm mask: True inside any crown disc (clipped to the grid)."""
    out = np.zeros((height, width), dtype=bool)
    for crown in ann.crowns:
        ys, xs = disc_pixels(crown.cx, crown.cy, crown.radius_px, width, height)
        out[ys, xs] = True
    return out
