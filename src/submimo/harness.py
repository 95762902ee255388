"""Experiment orchestration: profiles, Monte-Carlo detection runs, scoring, PPI.

Two parameter profiles share the full spectral structure (the reference
FDM plan and slices, the reference ADC) and differ only in the range grid:
the full profile resolves 12000 cells of 1.25 m, the desk profile coarsens
to 300 cells of 50 m so Monte-Carlo suites run in seconds while every
pipeline stage is still exercised.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import ArrayConfig, ArrayMode, AzimuthGrid, build_mode, mode_shape
from .recovery import (DictionarySet, RangeGrid, SparseEstimate,
                       build_dictionaries, matrix_omp)
from .scene import Scene, Target, _noiseless, add_noise, synth_received
from .waveform import (REFERENCE_FDM_PLAN, CognitivePlan, build_cognitive_plan,
                       reference_subbands)
from .xampler import REFERENCE_ADC_RATE, AdcConfig, BinSet, _alias_table, acquire

PROFILE_RANGE_CELLS = {"full": 12000, "desk": 300}

# scene placement grids shared by every mode: the coarse sine grid is the
# common refinement (0.025 spacing), the fine grid matches the wide mode
COARSE_AZIMUTH_CELLS = 80
FINE_AZIMUTH_CELLS = 400
# the close pair's least distance, in range cells, to every background target
PAIR_RANGE_CLEARANCE_CELLS = 6

# rejection-sampling cap for scene placement; an unsatisfiable spec raises
# instead of spinning
_MAX_PLACEMENT_DRAWS = 100_000


@dataclass(frozen=True)
class Environment:
    """Everything needed to run the pipeline for one mode and profile.

    The bins and grids are the dictionaries' own, and frames are sampled
    at the plan's whole multiplexed band.
    """

    array: ArrayConfig
    plan: CognitivePlan
    adc: AdcConfig
    dictionaries: DictionarySet

    @property
    def bins(self) -> BinSet:
        return self.dictionaries.bins

    @property
    def range_grid(self) -> RangeGrid:
        return self.dictionaries.range_grid

    @property
    def azi_grid(self) -> AzimuthGrid:
        return self.dictionaries.azi_grid

    @property
    def sample_rate(self) -> float:
        return self.plan.base.total_bandwidth


def assemble_environment(array: ArrayConfig, plan: CognitivePlan, adc: AdcConfig,
                         range_cells: int) -> Environment:
    """Derive the bins, grids and dictionaries of one array, plan and ADC.

    The plan must select at least one bin, and fold alias-free under the
    ADC: its decimation must divide each channel's bins, and no read bin's
    low-rate bin may carry another transmitted cell, edge cells included.
    The alias table acquisition reads checks this and is built and cached
    here, so a plan that breaks either rule is a ConfigError before any
    frame is built.
    """
    try:
        dictionaries = build_dictionaries(array, plan, range_cells)
        _alias_table(plan, dictionaries.bins, adc)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    return Environment(array=array, plan=plan, adc=adc, dictionaries=dictionaries)


def build_environment(mode: ArrayMode, profile: str = "desk",
                      seed: int = 0) -> Environment:
    """The prototype's reference design for one mode, profile and array seed."""
    if profile not in PROFILE_RANGE_CELLS:
        raise ConfigError(f"unknown profile {profile!r}; choose from "
                          f"{sorted(PROFILE_RANGE_CELLS)}")
    array = build_mode(mode, seed=seed)
    base = dataclasses.replace(REFERENCE_FDM_PLAN, num_tx=array.num_tx)
    plan = build_cognitive_plan(base, reference_subbands())
    return assemble_environment(array, plan, AdcConfig(rate=REFERENCE_ADC_RATE),
                                PROFILE_RANGE_CELLS[profile])


@dataclass(frozen=True)
class SceneSpec:
    """Generator recipe for random on-grid scenes, identical across modes.

    A candidate placement is accepted when, against every earlier target,
    it clears the range separation, or sits on a different range cell and
    clears the sine-DoA separation. Sharing a range cell leaves azimuth as
    the only handle, which the coarse modes resolve far worse than their
    nominal grids suggest; the full-scale range grid makes such collisions
    vanishingly rare, so desk-scale scenes exclude them to stay
    representative. `close_pair_sin_gap` appends an equal-range resolution
    probe: two targets centered on a coarse azimuth cell with that sine
    gap, so each sits half the gap off the coarse grid (the worst
    sub-resolution geometry) while remaining on the fine grid, on a range
    cell `PAIR_RANGE_CLEARANCE_CELLS` clear of every background target.
    The separations must be finite and non-negative and the pair's gap
    finite, positive and narrow enough for some coarse cell to center the
    pair inside the sine-DoA span; anything else is a ConfigError.
    """

    num_targets: int
    min_range_sep_cells: int = 0
    min_sin_sep: float = 0.0
    close_pair_sin_gap: float | None = None

    def __post_init__(self):
        if self.min_range_sep_cells < 0:
            raise ConfigError(f"min_range_sep_cells = {self.min_range_sep_cells}: "
                              f"need a non-negative cell count")
        if not 0 <= self.min_sin_sep < np.inf:
            raise ConfigError(f"min_sin_sep = {self.min_sin_sep!r} must be finite "
                              f"and non-negative")
        gap = self.close_pair_sin_gap
        if gap is not None and not 0 < gap < np.inf:
            raise ConfigError(f"close_pair_sin_gap = {gap!r} must be finite and positive")
        if gap is not None and 2 * _pair_margin(gap) >= COARSE_AZIMUTH_CELLS:
            raise ConfigError(f"close_pair_sin_gap = {gap!r} leaves no coarse azimuth cell "
                              f"to center the pair on inside the sine-DoA span")


def _pair_margin(gap: float) -> int:
    """Coarse azimuth cells between the close pair's center and the grid's
    edges: half the gap, rounded up to whole cells."""
    return int(np.ceil(gap / 2 / (2.0 / COARSE_AZIMUTH_CELLS)))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: ArrayMode
    scene: Scene | SceneSpec
    profile: str = "desk"
    snr_db: float | None = None
    trials: int = 1
    seed: int = 0
    max_targets: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.seed < 0:
            raise ConfigError(f"experiment seed {self.seed}: need a non-negative integer")
        if self.max_targets is not None and self.max_targets < 1:
            raise ConfigError(f"max_targets = {self.max_targets}: need at least one")
        try:
            _noiseless(self.snr_db)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        targets = (len(self.scene) if isinstance(self.scene, Scene)
                   else self.scene.num_targets)
        if targets < 1:
            raise ConfigError("the scene holds no target to recover")


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of matching one estimate against one ground-truth scene."""

    hits: tuple[tuple[int, int], ...]   # (truth index, estimate index)
    false_alarms: tuple[int, ...]       # estimate indices
    misses: tuple[int, ...]             # truth indices
    strict_hits: int


@dataclass
class MetricsRecord:
    """Per-trial reports plus aggregate rates for one experiment run.

    `stages` maps each pipeline stage to its call count and summed wall
    seconds, {"calls": n, "seconds": s}, in pipeline order.
    """

    config: dict
    reports: list[DetectionReport]
    detection_rate: float
    false_alarm_rate: float
    strict_rate: float
    stages: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "detection_rate": self.detection_rate,
            "false_alarm_rate": self.false_alarm_rate,
            "strict_rate": self.strict_rate,
            "stages": {name: dict(entry) for name, entry in self.stages.items()},
            "trials": [
                {"hits": list(map(list, r.hits)),
                 "false_alarms": list(r.false_alarms),
                 "misses": list(r.misses),
                 "strict_hits": r.strict_hits}
                for r in self.reports
            ],
        }


@dataclass(frozen=True)
class ReductionSummary:
    """Sampling and hardware savings of one mode relative to filled Nyquist operation."""

    spectral_rate_factor: float
    bandwidth_factor_with_guards: float
    bandwidth_factor_no_guards: float
    spatial_factor: float
    combined_sampling_reduction_pct: float
    hardware_channel_reduction_pct: float


def generate_scene(rng: np.random.Generator, spec: SceneSpec,
                   range_cells: int, pri: float) -> Scene:
    """Draw a random scene on the shared placement grids.

    Background targets sit on the coarse azimuth grid and the profile's
    range grid with unit amplitude and uniform phase; the optional close
    pair shares one range cell and sits on the fine azimuth grid.
    """
    n_background = spec.num_targets - (2 if spec.close_pair_sin_gap else 0)
    if n_background < 0:
        raise ConfigError("close pair does not fit into num_targets")
    placed: list[tuple[int, int]] = []  # (range cell, coarse azimuth cell)
    guard = 0
    while len(placed) < n_background:
        guard += 1
        if guard > _MAX_PLACEMENT_DRAWS:
            raise ConfigError("scene constraints too tight to satisfy")
        n = int(rng.integers(0, range_cells))
        p = int(rng.integers(0, COARSE_AZIMUTH_CELLS))
        ok = True
        for n2, p2 in placed:
            range_ok = (spec.min_range_sep_cells > 0
                        and abs(n - n2) >= spec.min_range_sep_cells)
            sin_gap = abs(p - p2) * (2.0 / COARSE_AZIMUTH_CELLS)
            sin_ok = (spec.min_sin_sep > 0 and n != n2
                      and sin_gap >= spec.min_sin_sep - 1e-12)
            if spec.min_range_sep_cells > 0 or spec.min_sin_sep > 0:
                if not (range_ok or sin_ok):
                    ok = False
                    break
            elif (n, p) == (n2, p2):
                ok = False
                break
        if ok:
            placed.append((n, p))

    targets = [Target(delay=n * pri / range_cells,
                      sin_doa=-1.0 + 2.0 * p / COARSE_AZIMUTH_CELLS,
                      amplitude=np.exp(2j * np.pi * rng.random()))
               for n, p in placed]

    if spec.close_pair_sin_gap:
        half = spec.close_pair_sin_gap / 2
        fine = 2.0 / FINE_AZIMUTH_CELLS
        if abs(half / fine - round(half / fine)) > 1e-9:
            raise ConfigError("half the pair gap must sit on the fine azimuth grid")
        margin = _pair_margin(spec.close_pair_sin_gap)
        for _ in range(_MAX_PLACEMENT_DRAWS):
            n0 = int(rng.integers(0, range_cells))
            center_cell = int(rng.integers(margin, COARSE_AZIMUTH_CELLS - margin))
            if all(abs(n0 - n) >= PAIR_RANGE_CLEARANCE_CELLS for n, _ in placed):
                break
        else:
            raise ConfigError("no range cell clears the close pair's range clearance")
        center = -1.0 + 2.0 * center_cell / COARSE_AZIMUTH_CELLS
        for sin_doa in (center - half, center + half):
            targets.append(Target(delay=n0 * pri / range_cells, sin_doa=sin_doa,
                                  amplitude=np.exp(2j * np.pi * rng.random())))
    return Scene(targets=tuple(targets))


def _sine_gap(a: float, b: float) -> float:
    """|a - b| modulo 2: with half-wavelength slots, sine -1 and +1 are one atom."""
    gap = abs(a - b)
    return min(gap, 2.0 - gap)


def match_targets(truth: Scene, estimate: SparseEstimate, range_grid: RangeGrid,
                  azi_grid: AzimuthGrid) -> DetectionReport:
    """Greedy one-to-one matching under the box criterion.

    An estimate counts as a detection when it lies within two range cells
    and one azimuth cell of an unmatched truth target; estimates are
    processed in selection order and take the nearest eligible truth.
    Unmatched estimates are false alarms, unmatched truths misses. A hit
    is strict only at the exact truth location. Sines are compared modulo
    2 (`_sine_gap`).
    """
    r_tol = 2 * range_grid.range_resolution_m * (1 + 1e-9)
    a_tol = azi_grid.spacing * (1 + 1e-9)
    r_strict = range_grid.range_resolution_m * 1e-6
    a_strict = azi_grid.spacing * 1e-6

    unmatched = set(range(len(truth)))
    hits: list[tuple[int, int]] = []
    false_alarms: list[int] = []
    strict = 0
    for j in range(len(estimate)):
        er, es = estimate.ranges_m[j], estimate.sin_doas[j]
        best, best_d = None, None
        for i in unmatched:
            t = truth.targets[i]
            dr, ds = abs(er - t.range_m), _sine_gap(es, t.sin_doa)
            if dr <= r_tol and ds <= a_tol:
                d = (dr / range_grid.range_resolution_m) ** 2 + (ds / azi_grid.spacing) ** 2
                if best_d is None or d < best_d:
                    best, best_d = i, d
        if best is None:
            false_alarms.append(j)
        else:
            unmatched.discard(best)
            hits.append((best, j))
            t = truth.targets[best]
            if abs(er - t.range_m) <= r_strict and _sine_gap(es, t.sin_doa) <= a_strict:
                strict += 1
    return DetectionReport(hits=tuple(hits), false_alarms=tuple(false_alarms),
                           misses=tuple(sorted(unmatched)), strict_hits=strict)


@contextmanager
def _stage(stages: dict | None, name: str):
    """Add one call and its wall seconds to `stages[name]`, when `stages` is given."""
    start = time.perf_counter()
    yield
    if stages is not None:
        entry = stages.setdefault(name, {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += time.perf_counter() - start


def run_trial(env: Environment, scene: Scene, snr_db: float | None, noise_seed,
              max_targets: int | None = None,
              stages: dict | None = None) -> tuple[SparseEstimate, DetectionReport]:
    """One pulse: synthesis -> noise -> acquisition -> recovery -> scoring.

    Returns the estimate and its detection report. Recovery stops after
    `max_targets` selections, or after as many as the scene holds. A given
    `stages` dict gains each stage's call and wall seconds, as in
    `MetricsRecord.stages`.
    """
    with _stage(stages, "synthesize"):
        rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    if not _noiseless(snr_db):
        with _stage(stages, "noise"):
            rx = add_noise(rx, snr_db, noise_seed)
    with _stage(stages, "acquire"):
        coeffs = acquire(rx, env.plan, env.adc, env.bins)
    with _stage(stages, "recover"):
        estimate = matrix_omp(coeffs, env.dictionaries,
                              max_targets=len(scene) if max_targets is None
                              else max_targets)
    with _stage(stages, "match"):
        report = match_targets(scene, estimate, env.range_grid, env.azi_grid)
    return estimate, report


def run_experiment(cfg: ExperimentConfig, env: Environment | None = None) -> MetricsRecord:
    """Seeded Monte-Carlo detection run: one scene and one `run_trial` per trial.

    Scenes and noise derive from (seed, trial index) only, so runs with
    different modes but the same seed face identical target scenarios.
    `env` defaults to the reference design for the configured mode and
    profile, with the array drawn from the experiment seed; a given `env`
    whose array is of another mode raises ConfigError.
    """
    if env is None:
        env = build_environment(cfg.mode, cfg.profile, seed=cfg.seed)
    if env.array.mode is not cfg.mode:
        raise ConfigError(f"the environment's array is in mode {env.array.mode.value}, "
                          f"the experiment's is {cfg.mode.value}")
    reports: list[DetectionReport] = []
    stages: dict = {}
    n_truth = n_hits = n_strict = n_est = n_fa = 0

    for trial in range(cfg.trials):
        with _stage(stages, "scene"):
            if isinstance(cfg.scene, Scene):
                scene = cfg.scene
            else:
                scene = generate_scene(np.random.default_rng([cfg.seed, trial, 0]),
                                       cfg.scene, len(env.range_grid), env.plan.pri)
        estimate, report = run_trial(env, scene, cfg.snr_db, [cfg.seed, trial, 1],
                                     cfg.max_targets, stages)
        reports.append(report)
        n_truth += len(scene)
        n_hits += len(report.hits)
        n_strict += report.strict_hits
        n_est += len(estimate)
        n_fa += len(report.false_alarms)

    cfg_dict = dataclasses.asdict(cfg)
    cfg_dict["mode"] = cfg.mode.value
    if isinstance(cfg.scene, Scene):
        cfg_dict["scene"] = {"targets": len(cfg.scene)}
    return MetricsRecord(
        config=cfg_dict,
        reports=reports,
        detection_rate=n_hits / n_truth if n_truth else 0.0,
        false_alarm_rate=n_fa / n_est if n_est else 0.0,
        strict_rate=n_strict / n_truth if n_truth else 0.0,
        stages=stages,
    )


def sampling_reduction(mode: ArrayMode, plan: CognitivePlan,
                       adc: AdcConfig) -> ReductionSummary:
    """Sampling-reduction bookkeeping from first principles.

    Spectral factor: per-channel Nyquist rate (real-equivalent, twice the
    channel width) over the ADC rate. Bandwidth factors: channel width over
    occupied width, with and without the guard band. Spatial factor:
    physical element count of the filled virtual-equivalent array over the
    mode's element count. The combined percentage multiplies the spectral
    and spatial factors; hardware channels compare processed (tx * rx)
    pairs against the filled equivalent.
    """
    num_tx, num_rx, virtual_tx, virtual_rx = mode_shape(mode)
    base = plan.base
    spectral = 2 * base.channel_spacing / adc.rate
    bw_guards = base.channel_spacing / plan.occupied_bandwidth
    bw_no_guards = base.signal_band / plan.occupied_bandwidth
    spatial = (virtual_tx + virtual_rx) / (num_tx + num_rx)
    combined = (1.0 - 1.0 / (spectral * spatial)) * 100.0
    channels = (1.0 - (num_tx * num_rx) / (virtual_tx * virtual_rx)) * 100.0
    return ReductionSummary(
        spectral_rate_factor=spectral,
        bandwidth_factor_with_guards=bw_guards,
        bandwidth_factor_no_guards=bw_no_guards,
        spatial_factor=spatial,
        combined_sampling_reduction_pct=combined,
        hardware_channel_reduction_pct=channels,
    )


def _east_north(range_m: float, sin_doa: float) -> tuple[float, float]:
    east = range_m * sin_doa
    north = range_m * float(np.sqrt(max(1.0 - sin_doa ** 2, 0.0)))
    return east, north


def emit_ppi(report: DetectionReport, truth: Scene, estimate: SparseEstimate,
             path) -> None:
    """Write a plan-position-indicator scatter as SVG plus a CSV twin.

    East/north coordinates from range and sine-of-DoA; ground truth, hits
    and false alarms use distinct markers, with a red north marker at the
    top. The CSV twin lists one row per truth target and per estimate.
    """
    path = str(path)
    matched_est = {j for _, j in report.hits}
    rows = []
    for i, t in enumerate(truth.targets):
        e, n = _east_north(t.range_m, t.sin_doa)
        status = "hit" if any(i == ti for ti, _ in report.hits) else "miss"
        rows.append(("truth", i, t.range_m, t.sin_doa, e, n, status))
    for j in range(len(estimate)):
        e, n = _east_north(float(estimate.ranges_m[j]), float(estimate.sin_doas[j]))
        status = "hit" if j in matched_est else "false_alarm"
        rows.append(("estimate", j, float(estimate.ranges_m[j]),
                     float(estimate.sin_doas[j]), e, n, status))

    csv_path = path[:-4] + ".csv" if path.endswith(".svg") else path + ".csv"
    try:
        with open(csv_path, "w") as fh:
            fh.write("kind,index,range_m,sin_doa,east_m,north_m,status\n")
            for kind, i, r, s, e, n, status in rows:
                fh.write(f"{kind},{i},{r:.6f},{s:.8f},{e:.6f},{n:.6f},{status}\n")
        _write_ppi_svg(path, rows)
    except OSError as exc:
        raise OSError(f"cannot write PPI output at {path}: {exc}") from exc


def _write_ppi_svg(path: str, rows) -> None:
    size = 640
    margin = 60
    extent = max([max(abs(e), abs(n)) for _, _, _, _, e, n, _ in rows] or [1.0]) * 1.1
    extent = max(extent, 1.0)
    scale = (size / 2 - margin) / extent

    def xy(e, n):
        return size / 2 + e * scale, size / 2 - n * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size/2}" x2="{size-margin}" y2="{size/2}" '
        f'stroke="#cccccc"/>',
        f'<line x1="{size/2}" y1="{margin}" x2="{size/2}" y2="{size-margin}" '
        f'stroke="#cccccc"/>',
        # radar at the origin, north marker at the top
        f'<circle cx="{size/2}" cy="{size/2}" r="4" fill="black"/>',
        f'<circle cx="{size/2}" cy="{margin/2}" r="6" fill="red"/>',
        f'<text x="{size/2+10}" y="{margin/2+4}" font-size="12">N</text>',
    ]
    style = {
        "hit_truth": ('none', 'blue'),
        "hit": ('green', 'green'), "false_alarm": ('magenta', 'magenta'),
    }
    for kind, _, _, _, e, n, status in rows:
        x, y = xy(e, n)
        if kind == "truth":
            fill, stroke = style["hit_truth"]
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="7" fill="{fill}" '
                         f'stroke="{stroke}" stroke-width="1.5"/>')
        else:
            fill, stroke = style[status]
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{fill}" '
                         f'stroke="{stroke}"/>')
    parts.append(f'<text x="{margin}" y="{size-20}" font-size="11">'
                 f'extent {extent:.0f} m; truth hollow blue, hits green, '
                 f'false alarms magenta</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
