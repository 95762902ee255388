"""On-disk formats: INI configs, scene lists, I/Q frames, coefficient blobs, CSVs.

All numeric config fields carry SI units in their names. A received frame
is a plain-text manifest plus one I/Q file per receiver, each interleaved
little-endian float32 pairs; coefficient sets use a small self-describing
binary layout with a CSV export for inspection.
"""

from __future__ import annotations

import configparser
import copy
import dataclasses
import functools
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .geometry import ArrayConfig, ArrayMode, build_mode
from .harness import (PROFILE_RANGE_CELLS, Environment, ExperimentConfig,
                      MetricsRecord, SceneSpec, assemble_environment)
from .recovery import SparseEstimate
from .scene import ReceivedBaseband, Scene, target_from_range
from .waveform import (MAX_FRAME_SAMPLES, REFERENCE_FDM_PLAN, CognitivePlan, FdmPlan,
                       Subband, build_cognitive_plan, build_fdm_plan, reference_subbands)
from .xampler import REFERENCE_ADC_RATE, AdcConfig, BinSet, CoefficientSet

_COEFF_MAGIC = b"SMCS"
_COEFF_VERSION = 1


def plan_digest(plan: CognitivePlan) -> str:
    """Short stable digest of a plan's numeric content."""
    base = plan.base
    parts = [base.num_tx, base.channel_spacing, base.signal_band, base.guard,
             base.pri, base.pulse_width, plan.total_power]
    parts += [x for b in plan.subbands for x in (b.lo, b.hi)]
    text = ",".join(f"{p!r}" for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- I/Q frames --------------------------------------------------------------

def write_iq(path, samples: np.ndarray) -> None:
    """The samples as interleaved I/Q float32 pairs (little-endian), in C order."""
    np.asarray(samples).astype("<c8").tofile(str(path))


def read_iq(path) -> np.ndarray:
    """The complex64 values of an I/Q file written by `write_iq`."""
    raw = np.fromfile(str(path), dtype="<f4")
    if len(raw) % 2:
        raise ValidationError(f"odd float count in I/Q file {path}")
    return raw.view("<c8")


def _read_header(path: Path) -> dict:
    """The `key = value` lines of a manifest, as strings."""
    header = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    return header


def write_received(directory, rx: ReceivedBaseband, plan: CognitivePlan) -> None:
    """A manifest `received.hdr` and one I/Q file `rx_XX.iq` per receiver.

    The manifest holds the sample rate, the PRI, the receiver count, the
    active spans and the plan's digest; receiver q's time samples go to
    `rx_{q:02d}.iq` through `write_iq`, and no other file is written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spans = []
    if rx.active_mask is not None and rx.active_mask.any():
        mask = rx.active_mask.astype(int)
        edges = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0]))))
        spans = [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]
    lines = [
        f"sample_rate_hz = {rx.sample_rate!r}",
        f"pri_s = {rx.pri!r}",
        f"num_rx = {rx.num_rx}",
        f"active_spans = {';'.join(f'{a}:{b}' for a, b in spans)}",
        f"plan_digest = {plan_digest(plan)}",
    ]
    (directory / "received.hdr").write_text("\n".join(lines) + "\n")
    for q, row in enumerate(rx.samples):
        write_iq(directory / f"rx_{q:02d}.iq", row)


def read_received(directory, plan: CognitivePlan | None = None) -> ReceivedBaseband:
    """Frames and manifest written by `write_received`, as the frame's spectrum.

    The `rx_XX.iq` files of receivers 0..num_rx-1 are read into one
    complex64 (num_rx, n) array, which `ReceivedBaseband.from_samples`
    transforms; any other file in the directory is ignored. Active spans
    must lie within the frame, start before they end; `pri_s` must be
    finite and positive, and `sample_rate_hz` the frame length over it.

    With `plan`, a manifest that names the digest of another plan, or no
    digest, is rejected: its frames carry that plan's spectra, or spectra
    that cannot be told apart from another plan's.
    """
    directory = Path(directory)
    manifest = directory / "received.hdr"
    if not manifest.exists():
        raise ValidationError(f"no received.hdr manifest in {directory}")
    header = _read_header(manifest)

    def number(key, convert):
        if key not in header:
            raise ValidationError(f"{manifest} lacks the key {key}")
        try:
            return convert(header[key])
        except ValueError:
            raise ValidationError(f"{manifest}: {key} = {header[key]!r} is not "
                                  f"a valid {convert.__name__}") from None

    num_rx = number("num_rx", int)
    rate = number("sample_rate_hz", float)
    pri = number("pri_s", float)
    if num_rx < 1:
        raise ValidationError(f"{manifest}: num_rx = {num_rx} lists no receiver")
    if plan is not None:
        written_for = header.get("plan_digest")
        if not written_for:
            raise ValidationError(f"{manifest} names no plan_digest, so its frames "
                                  f"cannot be checked against the configured plan")
        if written_for != plan_digest(plan):
            raise ValidationError(f"frames in {directory} were synthesized for plan "
                                  f"{written_for}, not the configured plan "
                                  f"{plan_digest(plan)}")
    first = read_iq(directory / "rx_00.iq")
    samples = np.empty((num_rx, len(first)), dtype=np.complex64)
    samples[0] = first
    for q in range(1, num_rx):
        values = read_iq(directory / f"rx_{q:02d}.iq")
        if len(values) != samples.shape[1]:
            raise ValidationError(f"the receiver frames in {directory} differ in length")
        samples[q] = values
    mask = None
    if header.get("active_spans"):
        mask = np.zeros(samples.shape[1], dtype=bool)
        for span in header["active_spans"].split(";"):
            a, _, b = span.partition(":")
            try:
                a, b = int(a), int(b)
            except ValueError:
                raise ValidationError(f"{manifest}: active_spans holds the "
                                      f"malformed span {span!r}") from None
            if not 0 <= a < b <= len(mask):
                raise ValidationError(f"{manifest}: active span {span!r} is not "
                                      f"start:end with 0 <= start < end <= {len(mask)}")
            mask[a:b] = True
    rx = ReceivedBaseband.from_samples(samples, pri=pri, active_mask=mask)
    if not abs(rate - rx.sample_rate) <= 1e-9 * rx.sample_rate:
        raise ValidationError(f"{manifest}: sample_rate_hz = {rate!r} is not the frame's "
                              f"{samples.shape[1]} samples over pri_s = {pri!r}")
    return rx


# -- coefficient sets ---------------------------------------------------------

def write_coefficients(path, coeffs: CoefficientSet) -> None:
    """Binary blob: counts, tx/rx indices, bin list, then the complex64 (M, K, Q) array."""
    m, k, q = coeffs.matrices.shape
    with open(str(path), "wb") as fh:
        fh.write(_COEFF_MAGIC)
        fh.write(struct.pack("<IIIII", _COEFF_VERSION, m, k, q,
                             coeffs.bins.per_channel_bins))
        fh.write(np.arange(m, dtype="<i4").tobytes())
        fh.write(np.arange(q, dtype="<i4").tobytes())
        fh.write(coeffs.bins.as_array.astype("<i4").tobytes())
        fh.write(coeffs.matrices.astype("<c8").tobytes())


def read_coefficients(path) -> CoefficientSet:
    """A blob of `write_coefficients`; its index lists must be range(M) and range(Q)."""
    data = Path(path).read_bytes()
    if data[:4] != _COEFF_MAGIC or len(data) < 24:
        raise ValidationError(f"{path} is not a coefficient blob")
    version, m, k, q, n = struct.unpack("<IIIII", data[4:24])
    if version != _COEFF_VERSION:
        raise ValidationError(f"unsupported coefficient blob version {version}")
    size = 24 + 4 * (m + q + k) + 8 * m * k * q
    if len(data) != size:
        raise ValidationError(f"{path} holds {len(data)} bytes; its header "
                              f"describes {size}")
    tx, rx, bins = np.split(np.frombuffer(data, "<i4", m + q + k, 24), [m, m + q])
    if not (np.array_equal(tx, np.arange(m)) and np.array_equal(rx, np.arange(q))):
        raise ValidationError(f"{path} lists transmitters {tx.tolist()} and receivers "
                              f"{rx.tolist()}; a blob holds every one, in order")
    y = np.frombuffer(data, "<c8", m * k * q, 24 + 4 * (m + q + k))
    return CoefficientSet(matrices=y.reshape(m, k, q).astype(complex),
                          bins=BinSet(indices=tuple(bins.tolist()), per_channel_bins=n))


def coefficients_to_csv(path, coeffs: CoefficientSet) -> None:
    m, _, q = coeffs.matrices.shape
    with open(str(path), "w") as fh:
        fh.write("tx_index,bin,rx_index,re,im\n")
        for tx in range(m):
            for i, k in enumerate(coeffs.bins.indices):
                for rx in range(q):
                    y = complex(coeffs.matrices[tx, i, rx])
                    fh.write(f"{tx},{k},{rx},{y.real!r},{y.imag!r}\n")


# -- array layouts ------------------------------------------------------------

def write_array_config(path, array: ArrayConfig) -> None:
    """INI section with the mode, seed and explicit element slots."""
    parser = configparser.ConfigParser()
    parser["array"] = {
        "mode": array.mode.value,
        "seed": str(array.seed),
        "tx_positions": " ".join(map(str, array.tx_positions)),
        "rx_positions": " ".join(map(str, array.rx_positions)),
    }
    with open(str(path), "w") as fh:
        parser.write(fh)


# -- scenes and estimates -----------------------------------------------------

def write_scene(path, scene: Scene) -> None:
    """Text rows: range_m sin_doa amplitude phase_deg."""
    with open(str(path), "w") as fh:
        fh.write("# range_m sin_doa amplitude phase_deg\n")
        for t in scene.targets:
            amp = float(abs(t.amplitude))
            ph = float(np.degrees(np.angle(t.amplitude)))
            fh.write(f"{float(t.range_m)!r} {float(t.sin_doa)!r} {amp!r} {ph!r}\n")


def read_scene(path) -> Scene:
    targets = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValidationError(f"scene line needs 4 fields, got {raw!r}")
        try:
            range_m, sin_doa, amp, phase_deg = map(float, fields)
        except ValueError:
            raise ValidationError(f"scene line needs 4 numbers, got {raw!r}") from None
        targets.append(target_from_range(
            range_m, sin_doa, amp * np.exp(1j * np.radians(phase_deg))))
    return Scene(targets=tuple(targets))


def write_estimate_csv(path, estimate: SparseEstimate) -> None:
    """One row per selected cell, after a comment line with the fit's norms."""
    with open(str(path), "w") as fh:
        fh.write(f"# residual_norm={estimate.residual_norm!r} "
                 f"signal_norm={estimate.signal_norm!r}\n")
        fh.write("range_cell,azimuth_cell,range_m,sin_doa,re,im\n")
        for j, (n, p) in enumerate(estimate.support):
            a = complex(estimate.amplitudes[j])
            fh.write(f"{n},{p},{float(estimate.ranges_m[j])!r},"
                     f"{float(estimate.sin_doas[j])!r},{a.real!r},{a.imag!r}\n")


def read_estimate_csv(path) -> SparseEstimate:
    support, amps, ranges, sines = [], [], [], []
    lines = Path(path).read_text().splitlines()
    try:
        norms = dict(field.split("=") for field in lines[0].lstrip("# ").split())
        residual_norm = float(norms["residual_norm"])
        signal_norm = float(norms["signal_norm"])
    except (IndexError, KeyError, ValueError) as exc:
        raise ValidationError(f"{path} does not start with the estimate's norms") from exc
    for line in lines[2:]:
        if not line.strip():
            continue
        try:
            n, p, r, s, re, im = line.split(",")
            support.append((int(n), int(p)))
            ranges.append(float(r))
            sines.append(float(s))
            amps.append(complex(float(re), float(im)))
        except ValueError as exc:
            raise ValidationError(
                f"estimate row needs 6 numeric fields, got {line!r}") from exc
    return SparseEstimate(support=tuple(support), amplitudes=np.array(amps),
                          ranges_m=np.array(ranges), sin_doas=np.array(sines),
                          residual_norm=residual_norm, signal_norm=signal_norm,
                          residual_history=())


# -- metrics ------------------------------------------------------------------

def write_metrics(directory, record: MetricsRecord) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "metrics.json").write_text(json.dumps(record.to_dict(), indent=2))
    with open(directory / "metrics.csv", "w") as fh:
        fh.write("trial,hits,false_alarms,misses,strict_hits\n")
        for i, r in enumerate(record.reports):
            fh.write(f"{i},{len(r.hits)},{len(r.false_alarms)},"
                     f"{len(r.misses)},{r.strict_hits}\n")


# -- experiment configuration files -------------------------------------------

DEFAULT_CONFIG = """\
[array]
mode = random
seed = 7

[waveform]
channel_spacing_hz = 15e6
signal_band_hz = 12e6
guard_hz = 3e6
pri_s = 100e-6
pulse_width_s = 4.2e-6
total_power_w = 1.0
subbands = reference

[adc]
rate_hz = 7.5e6

[recovery]
profile = desk

[experiment]
trials = 10
seed = 1234
snr_db = -5
num_targets = 10
min_sin_sep = 0.025
min_range_sep_cells = 0
"""


def parse_mode(name: str) -> ArrayMode:
    try:
        return ArrayMode(name.strip().lower())
    except ValueError:
        raise ConfigError(
            f"unknown array mode {name!r}; choose from "
            f"{[m.value for m in ArrayMode]}") from None


def _parse_subbands(text: str):
    if text == "reference":
        return reference_subbands()
    bands = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition(":")
        try:
            bands.append(Subband(float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"[waveform] subbands: {chunk.strip()!r} is not "
                              f"lo_hz:hi_hz") from None
    return tuple(bands)


def _positions(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split())


# every key a configuration may hold, by section, with the converter that
# reads its value (None: the raw string); `ToolkitConfig._get` reads no other
_KEYS = {
    "array": {"mode": None, "seed": int, "tx_positions": _positions,
              "rx_positions": _positions},
    "waveform": {"channel_spacing_hz": float, "signal_band_hz": float,
                 "guard_hz": float, "pri_s": float, "pulse_width_s": float,
                 "total_power_w": float, "subbands": _parse_subbands},
    "adc": {"rate_hz": float},
    "recovery": {"profile": None, "range_cells": int},
    "experiment": {"trials": int, "seed": int, "snr_db": float,
                   "num_targets": int, "min_range_sep_cells": int,
                   "min_sin_sep": float, "close_pair_sin_gap": float,
                   "max_targets": int, "scene_file": None},
}


def _check_keys(parser: configparser.ConfigParser, path) -> None:
    """Reject a section or key that `_KEYS` does not list.

    A [DEFAULT] section's keys would be read in every section, so it is
    rejected as a section of its own.
    """
    defaults = [parser.default_section] if parser.defaults() else []
    for section in defaults + parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; the sections "
                              f"are {', '.join(f'[{s}]' for s in _KEYS)}")
        for option in parser.options(section):
            if option not in _KEYS[section]:
                raise ConfigError(f"[{section}] {option} is not a known key; "
                                  f"[{section}] takes {', '.join(_KEYS[section])}")


class ToolkitConfig:
    """Parsed INI configuration; builds the runtime objects on demand."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser

    @classmethod
    def from_file(cls, path) -> "ToolkitConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            read = parser.read(str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        _check_keys(parser, path)
        cfg = cls(parser)
        cfg.mode  # validate eagerly so any subcommand rejects a bad file
        if cfg.profile not in PROFILE_RANGE_CELLS:
            raise ConfigError(f"unknown profile {cfg.profile!r}; choose from "
                              f"{sorted(PROFILE_RANGE_CELLS)}")
        return cfg

    def _get(self, section, option, fallback=None):
        """`[section] option` as a string, or converted by its `_KEYS` converter.

        A converted key that is absent or empty gives `fallback`; a value
        the converter rejects is a ConfigError naming the key.
        """
        convert = _KEYS[section][option]
        if convert is None:
            return self.parser.get(section, option, fallback=fallback)
        raw = self.parser.get(section, option, fallback="")
        if not raw:
            return fallback
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option} = {raw!r}: {exc}") from None

    @property
    def mode(self) -> ArrayMode:
        return parse_mode(self._get("array", "mode", "random"))

    @property
    def array_seed(self) -> int:
        return self._get("array", "seed", 0)

    def in_mode(self, mode: ArrayMode) -> "ToolkitConfig":
        """This configuration with `[array] mode` set to `mode`.

        Explicit positions fit only the mode they were written for, so a
        file that lists them cannot be moved to another mode.
        """
        if mode is not self.mode and (self._get("array", "tx_positions")
                                      or self._get("array", "rx_positions")):
            raise ConfigError(f"[array] positions belong to mode {self.mode.value}; "
                              f"remove them to run mode {mode.value}")
        parser = copy.deepcopy(self.parser)
        if not parser.has_section("array"):
            parser.add_section("array")
        parser.set("array", "mode", mode.value)
        return ToolkitConfig(parser)

    def array(self) -> ArrayConfig:
        """The configured mode's seeded layout; explicit positions override it,
        and positions that do not fit the mode are a ConfigError."""
        built = build_mode(self.mode, seed=self.array_seed)
        try:
            return dataclasses.replace(
                built,
                tx_positions=self._get("array", "tx_positions", built.tx_positions),
                rx_positions=self._get("array", "rx_positions", built.rx_positions))
        except ValidationError as exc:
            raise ConfigError(f"[array] positions: {exc}") from None

    @property
    def profile(self) -> str:
        return self._get("recovery", "profile", "desk")

    @property
    def range_cells(self) -> int:
        """`[recovery] range_cells`, or the profile's count when it is absent;
        at most MAX_FRAME_SAMPLES, so the grid's delays stay within 32 MiB."""
        cells = self._get("recovery", "range_cells")
        if cells is None:
            return PROFILE_RANGE_CELLS[self.profile]
        if cells < 1:
            raise ConfigError(f"[recovery] range_cells = {cells}: need at least one cell")
        if cells > MAX_FRAME_SAMPLES:
            raise ConfigError(f"[recovery] range_cells = {cells}: above the limit of "
                              f"{MAX_FRAME_SAMPLES} cells")
        return cells

    def fdm_plan(self, num_tx: int) -> FdmPlan:
        g = functools.partial(self._get, "waveform")
        ref = REFERENCE_FDM_PLAN
        return build_fdm_plan(
            num_tx=num_tx,
            channel_spacing=g("channel_spacing_hz", ref.channel_spacing),
            signal_band=g("signal_band_hz", ref.signal_band),
            guard=g("guard_hz", ref.guard),
            pri=g("pri_s", ref.pri),
            pulse_width=g("pulse_width_s", ref.pulse_width),
        )

    def cognitive_plan(self, num_tx: int) -> CognitivePlan:
        return build_cognitive_plan(
            self.fdm_plan(num_tx),
            self._get("waveform", "subbands", reference_subbands()),
            total_power=self._get("waveform", "total_power_w", 1.0),
        )

    def adc(self) -> AdcConfig:
        return AdcConfig(rate=self._get("adc", "rate_hz", REFERENCE_ADC_RATE))

    def environment(self) -> Environment:
        """The pipeline environment of the configured array, plan and ADC."""
        array = self.array()
        plan = self.cognitive_plan(array.num_tx)
        return assemble_environment(array, plan, self.adc(), self.range_cells)

    def experiment(self) -> ExperimentConfig:
        get = functools.partial(self._get, "experiment")
        scene_file = get("scene_file")
        if scene_file:
            scene: Scene | SceneSpec = read_scene(scene_file)
        else:
            scene = SceneSpec(
                num_targets=get("num_targets", 10),
                min_range_sep_cells=get("min_range_sep_cells", 0),
                min_sin_sep=get("min_sin_sep", 0.0),
                close_pair_sin_gap=get("close_pair_sin_gap"),
            )
        return ExperimentConfig(
            mode=self.mode,
            scene=scene,
            profile=self.profile,
            snr_db=get("snr_db"),
            trials=get("trials", 1),
            seed=get("seed", 0),
            max_targets=get("max_targets"),
        )
