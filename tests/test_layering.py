"""Import layering of the palmwatch package.

The synthetic-scene generator is a test and demo fixture: the pipeline's
stages must not depend on it, so only the command line and the package
root may import it. Threads and processes are opened in one place,
``raster_core.map_row_blocks``, so only ``raster_core`` may import a
concurrency module, and the number of threads is decided there too:
only ``raster_core`` names ``usable_cpus``, ``cpu_count`` or
``sched_getaffinity``, and no function anywhere,
``map_row_blocks`` included, takes a ``workers`` or ``jobs`` parameter,
so the process's CPU affinity is the one way to set it. Random streams are split by one rule,
``raster_core.stream``, so only ``raster_core`` may name the generator
and the seed sequence that rule is built from. Crowns are discs by one
rule, in ``annotations``, so only ``annotations`` may list lattice points.
A raster payload is read and written by one rule, in ``raster_core``
(band ``b``'s rows ``r0:r1`` at byte offset ``4·W·(b·H + r0)``), so no
other module may name a call that reads or writes raw array bytes.
"""

import ast
from pathlib import Path

import palmwatch

PACKAGE = Path(palmwatch.__file__).parent
MAY_IMPORT_SYNTH_SCENE = {"cli.py", "__init__.py"}
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}
STREAM_RULE_NAMES = {"Philox", "SeedSequence"}
LATTICE_LISTERS = {"mgrid", "ogrid", "indices", "meshgrid"}
THREAD_COUNT_PARAMETERS = {"workers", "jobs"}
THREAD_COUNT_NAMES = {"usable_cpus", "cpu_count", "sched_getaffinity"}
PAYLOAD_IO_NAMES = {"readinto", "pread", "preadv", "fromfile", "tofile", "memmap"}


def imported_modules(path: Path) -> set[str]:
    """Every module name ``path`` imports, relative ones as written (``.x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            # "from . import synth_scene" names the module as an alias
            names.update(f"{base}.{alias.name}" if node.module else base + alias.name for alias in node.names)
    return names


def test_only_cli_and_package_root_import_synth_scene():
    offenders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name not in MAY_IMPORT_SYNTH_SCENE
        and any(name.split(".")[-1] == "synth_scene" for name in imported_modules(path))
    )
    assert offenders == []


def test_only_raster_core_imports_concurrency():
    offenders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "raster_core.py"
        and any(name.split(".")[0] in CONCURRENCY_MODULES for name in imported_modules(path))
    )
    assert offenders == []


def named(path: Path) -> set[str]:
    """Every identifier, attribute and imported name ``path`` spells out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_only_raster_core_names_the_stream_rule():
    offenders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "raster_core.py" and named(path) & STREAM_RULE_NAMES
    )
    assert offenders == []


def test_only_raster_core_decides_the_thread_count():
    offenders = []
    for path in PACKAGE.glob("*.py"):
        if path.name != "raster_core.py":
            offenders += [(path.name, name) for name in sorted(named(path) & THREAD_COUNT_NAMES)]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                offenders += [(path.name, p.arg) for p in params if p.arg in THREAD_COUNT_PARAMETERS]
    assert offenders == []


def numpy_names(path: Path) -> set[str]:
    """Every name ``path`` takes from numpy: ``np.x`` or ``numpy.x``
    attributes and ``from numpy import x`` names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names.update(alias.name for alias in node.names)
    return names


def test_only_annotations_lists_lattice_points():
    offenders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "annotations.py" and numpy_names(path) & LATTICE_LISTERS
    )
    assert offenders == []
    assert numpy_names(PACKAGE / "annotations.py") & LATTICE_LISTERS


def test_only_raster_core_reads_or_writes_a_payload():
    offenders = sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "raster_core.py"
        for name in named(path) & PAYLOAD_IO_NAMES
    )
    assert offenders == []
    assert "readinto" in named(PACKAGE / "raster_core.py")
