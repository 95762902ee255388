"""The benchmark's only point of contact with submimo.

Every call the benchmark makes into the toolkit goes through a function
here, so an API reshape (say, a new `build_environment` signature) is
fixed in one place. The package is imported from `src/` of the checkout
this file sits in, never from an installed copy.

Functions tagged with `@calls("<layer>.<function>")` are the direct calls
of a trial; the traced run wraps them in a span of that name.
`trace_targets` also lists the cross-layer bindings inside the package
(a public function of one layer imported by another), which the traced
run wraps the same way.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import inspect
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from submimo import fileio, harness, recovery, scene, xampler  # noqa: E402
from submimo.geometry import ArrayMode  # noqa: E402

# the layers whose public functions the traced run wraps; `cli` is left
# out (its `recover` without --max-targets does not terminate) and
# `errors` holds no functions
LAYERS = ("geometry", "waveform", "scene", "xampler", "recovery", "harness",
          "fileio")

def calls(span_name: str):
    def tag(fn):
        fn.span_name = span_name
        return fn
    return tag


def scene_spec(num_targets: int) -> harness.SceneSpec:
    """Random on-grid scenes with the acceptance suite's 0.025 sine spacing."""
    return harness.SceneSpec(num_targets=num_targets, min_sin_sep=0.025)


@calls("harness.build_environment")
def build_environment(mode: str, profile: str, seed: int) -> harness.Environment:
    return harness.build_environment(ArrayMode(mode), profile, seed=seed)


@calls("harness.generate_scene")
def generate_scene(spec: harness.SceneSpec, seed: int, trial: int,
                   env: harness.Environment) -> scene.Scene:
    # same stream as harness.run_experiment: scene from [seed, trial, 0]
    return harness.generate_scene(np.random.default_rng([seed, trial, 0]), spec,
                                  len(env.range_grid), env.plan.pri)


@calls("scene.synth_received")
def synth_received(truth: scene.Scene, env: harness.Environment):
    return scene.synth_received(truth, env.array, env.plan, env.sample_rate)


@calls("scene.add_noise")
def add_noise(rx, snr_db: float, seed: int, trial: int):
    # same stream as harness.run_experiment: noise from [seed, trial, 1]
    return scene.add_noise(rx, snr_db, [seed, trial, 1])


@calls("xampler.acquire")
def acquire(rx, env: harness.Environment):
    return xampler.acquire(rx, env.plan, env.adc, env.bins)


@calls("recovery.matrix_omp")
def matrix_omp(coeffs, env: harness.Environment, max_targets: int):
    return recovery.matrix_omp(coeffs, env.dictionaries, max_targets=max_targets)


@calls("harness.match_targets")
def match_targets(truth: scene.Scene, estimate, env: harness.Environment):
    return harness.match_targets(truth, estimate, env.range_grid, env.azi_grid)


@calls("fileio.write_received")
def write_received(directory: Path, rx, env: harness.Environment) -> None:
    fileio.write_received(directory, rx, env.plan)


@calls("fileio.read_received")
def read_received(directory: Path):
    return fileio.read_received(directory)


@calls("fileio.write_coefficients")
def write_coefficients(path: Path, coeffs) -> None:
    fileio.write_coefficients(path, coeffs)


@calls("fileio.read_coefficients")
def read_coefficients(path: Path):
    return fileio.read_coefficients(path)


def oracle_coefficients(truth: scene.Scene, env: harness.Environment):
    """Reference coefficients for the output check; not part of a trial."""
    return scene.oracle_coefficients(truth, env.array, env.plan, env.bins)


def run_experiment(mode: str, num_targets: int, snr_db: float | None,
                   trials: int, seed: int) -> harness.MetricsRecord:
    """The toolkit's own Monte-Carlo loop, for the benchmark's self-test."""
    return harness.run_experiment(harness.ExperimentConfig(
        mode=ArrayMode(mode), scene=scene_spec(num_targets), profile="desk",
        snr_db=snr_db, trials=trials, seed=seed))


def range_cells(profile: str) -> int:
    return harness.PROFILE_RANGE_CELLS[profile]


def trace_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every binding the traced run wraps.

    The adapter's tagged functions are the benchmark's direct calls. A
    layer module's binding of another layer's public function is a
    cross-layer call. Calls within one layer and private functions stay
    unwrapped, so they count toward their caller's self time.
    """
    this = sys.modules[__name__]
    targets = [(this, name, fn.span_name)
               for name, fn in vars(this).items()
               if inspect.isfunction(fn) and hasattr(fn, "span_name")]
    modules = {layer: importlib.import_module(f"submimo.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            owner_layer = obj.__module__.rpartition(".")[2]
            if owner_layer != layer and owner_layer in modules:
                targets.append((module, name, f"{owner_layer}.{obj.__name__}"))
    return targets


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_environment() -> dict:
    """Versions and settings that change the numbers, stamped on every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
