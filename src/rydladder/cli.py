"""Config-driven command-line front end.

A run is described by a sectioned key-value config file (INI syntax) with
sections [geometry], [drive], [model], [task], [output], or by a manifest's
``config`` object, read key by key the same way.  Frequencies and energies
are interpreted per the ``units`` key: ``two-pi-mhz`` (multiplied by 2 pi on
ingestion, the convention of most hardware specs) or ``rad-per-us`` (stored
as is).  Lengths are in micrometers and times in microseconds throughout.

Every run writes ``manifest.json`` with the resolved configuration (always
in rad/us), derived quantities, seeds, and timing; re-running with
``--config manifest.json`` reproduces the outputs bitwise for a fixed
thread count.

Exit codes: 0 ok, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisError, RungConstraint, RydbergBasis, Spin1Basis, StateDictionary, enumerate_rydberg
from .effective import (
    MATCH_CASES,
    BoundaryCondition,
    EffectiveCoefficients,
    MatchingError,
    ResonanceError,
    TargetCouplings,
    coeffs_in_plane,
    coeffs_prism,
    coeffs_three_leg,
    coeffs_two_leg,
    match_forward,
    match_inverse,
    target_coefficients,
)
from .geometry import (
    DEFAULT_C6,
    TWO_PI,
    LadderKind,
    LadderSpec,
    blockade_radius,
    build_ladder,
    ladder_couplings,
)
from .hamiltonians import (Operator, SparseOperator, effective_spin1_hamiltonian, rydberg_hamiltonian,
                           sqed_charge_hamiltonian)
from .observables import (classify_phase, order_parameters, renyi_entropy, site_profiles, site_tables,
                          susceptibility_peak)
from .solvers import (SolverError, dense_eigs, ground_state, krylov_evolve, sector_eigenstates,
                      symmetry_sectors)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

MODELS = ("rydberg", "effective", "cahm", "sqed-charge", "sqed-field")
FLAVORS = ("U", "C")   # the field representation without (U) or with (C) its clock element J2 = X/2
UNITS = ("two-pi-mhz", "rad-per-us")


class ConfigError(ValueError):
    pass


def fmt(x) -> str:
    """Floats with 17 significant digits (lossless round-trip)."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class RunConfig:
    # geometry
    kind: str = "two-leg"
    n_rungs: int = 2
    a_x: float = 0.0
    a_y: float = 0.0
    shift: float | None = None
    prism_height: float | None = None
    # drive (stored in rad/us)
    omega: float = 0.0
    delta: float = 0.0
    delta0: float = 0.0
    c6: float = DEFAULT_C6
    # model
    hamiltonian: str = "rydberg"
    flavor: str = "U"
    bc: str = "obc"
    range_cutoff: float | None = None
    k_max: int = 1
    case: int = 2
    staggered: bool = False
    constraint: int | None = None
    targets: dict = field(default_factory=dict)   # U, X, Y, Yp for cahm/sqed
    # task
    task: str = "gs"
    k: int = 5
    initial: str = "all-ground"
    t_total: float = 0.5
    dt: float = 0.002
    axis: str = "omega"
    start: float = 0.0
    stop: float = 0.0
    steps: int = 1
    direction: str = "forward"
    match_case: str = "three-leg-00bc"
    compare_models: tuple = ("rydberg", "effective")
    compare_task: str = "gs"
    # output / reproducibility
    directory: str = "."
    seed: int = 0
    threads: int = 1


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean (1/0, true/false, yes/no, on/off)") from None


# Converter per key, read off the RunConfig annotations (strings under postponed
# evaluation); the targets dict is read from its keys, and rho and units are
# read into a_x and the scale of the energies.
_CONVERTERS = {"int": int, "int | None": int, "float": float, "float | None": float,
               "bool": _parse_bool, "str": str.strip,
               "tuple": lambda raw: tuple(m.strip() for m in raw.split(","))}
_TARGET_KEYS = ("U", "X", "Y", "Yp")
_KEY_CONVERTERS = {f.name: _CONVERTERS[f.type] for f in fields(RunConfig) if f.type in _CONVERTERS}
_KEY_CONVERTERS.update(dict.fromkeys(_TARGET_KEYS, float), rho=float, units=str.strip)
# sweep axes are always drive energies, so start/stop scale too
_ENERGY_KEYS = {"omega", "delta", "delta0", "start", "stop", "c6", *_TARGET_KEYS}


def _manifest_items(data) -> dict:
    """A manifest's config object as raw key -> value text: ``targets``
    flattened into its keys, ``compare_models`` joined, ``None`` skipped."""
    if not isinstance(data, dict) or not isinstance(data.get("targets") or {}, dict):
        raise ConfigError("a manifest's config and its targets must be JSON objects")
    items = {**data, **(data.get("targets") or {}), "targets": None}
    if isinstance(items.get("compare_models"), list):
        items["compare_models"] = ",".join(map(str, items["compare_models"]))
    return {key: str(val) for key, val in items.items() if val is not None}


def parse_config(path: str | Path) -> RunConfig:
    """Read a config file: INI sections, or a manifest JSON whose ``config``
    object is read as one more section.  Validation is left to ``run``,
    after the command line has picked the task."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    try:
        if text.lstrip().startswith("{"):
            manifest = json.loads(text)
            sections = {"config": _manifest_items(manifest.get("config", manifest))}
        else:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.optionxform = str  # keys are case-sensitive (Y vs Yp)
            parser.read_string(text)
            sections = {}
            for section in parser.sections():
                if section not in ("geometry", "drive", "model", "task", "output"):
                    raise ConfigError(f"unknown section [{section}]")
                sections[section] = dict(parser.items(section))
    except (configparser.Error, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    values = {}  # every key means the same in any section, units and rho included
    for section, items in sections.items():
        for key, raw in items.items():
            if key not in _KEY_CONVERTERS:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            try:
                values[key] = _KEY_CONVERTERS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    units = values.pop("units", "rad-per-us")
    if units not in UNITS:
        raise ConfigError(f"units must be one of {UNITS}, got {units!r}")
    scale = TWO_PI if units == "two-pi-mhz" else 1.0
    values = {key: val * scale if key in _ENERGY_KEYS else val for key, val in values.items()}
    rho = values.pop("rho", None)
    targets = {key: values.pop(key) for key in list(values) if key in _TARGET_KEYS}
    cfg = RunConfig(**values, targets=targets)
    # rho is an alternative to a_x
    if rho is not None:
        if "a_x" in values:
            raise ConfigError("[geometry] give either a_x or rho, not both")
        if rho <= 0:
            raise ConfigError(f"[geometry] rho must be positive, got {rho}")
        if cfg.a_y <= 0:
            raise ConfigError("[geometry] rho requires a_y")
        cfg.a_x = cfg.a_y / rho
    return cfg


def _validate(cfg: RunConfig):
    if cfg.kind not in [k.value for k in LadderKind]:
        raise ConfigError(f"[geometry] kind must be one of {[k.value for k in LadderKind]}")
    if cfg.hamiltonian not in MODELS:
        raise ConfigError(f"[model] hamiltonian must be one of {MODELS}")
    if cfg.task not in TASKS:
        raise ConfigError(f"[task] task must be one of {tuple(TASKS)}")
    if cfg.bc not in [b.value for b in BoundaryCondition]:
        raise ConfigError(f"[model] bc must be one of {[b.value for b in BoundaryCondition]}")
    if cfg.n_rungs < 1:
        raise ConfigError(f"[geometry] n_rungs must be >= 1, got {cfg.n_rungs}")
    built = cfg.compare_models if cfg.task == "compare" else (cfg.hamiltonian,)
    built = built if cfg.task in ("gs", "spectrum", "evolve", "sweep", "compare") else ()
    for model in built:
        # only the effective chain and the field representation have boundary terms
        if (model in ("rydberg", "cahm", "sqed-charge") and cfg.bc != "obc") or (
                model == "sqed-field" and cfg.bc == "pbc"):
            raise ConfigError(f"[model] bc = {cfg.bc} is not defined for hamiltonian {model}")
    if built and cfg.bc == "pbc" and cfg.n_rungs < 3:
        raise ConfigError(f"[model] bc = pbc needs a ring of n_rungs >= 3, got {cfg.n_rungs}")
    evolved = cfg.task == "evolve" or (cfg.task == "compare" and cfg.compare_task == "evolve")
    if evolved and "sqed-charge" in built:
        raise ConfigError("[task] evolve records site profiles, which hamiltonian sqed-charge does not have")
    if cfg.task == "match":
        if cfg.direction not in ("forward", "inverse"):
            raise ConfigError(f"[task] direction must be forward or inverse, got {cfg.direction!r}")
        if cfg.match_case not in MATCH_CASES:
            raise ConfigError(f"[task] match_case must be one of {tuple(MATCH_CASES)}, got {cfg.match_case!r}")
        if cfg.direction == "forward" and MATCH_CASES[cfg.match_case] != cfg.kind:
            raise ConfigError(f"[task] match_case = {cfg.match_case} matches a "
                              f"{MATCH_CASES[cfg.match_case].value} ladder, not kind = {cfg.kind}")
    reads_ladder = cfg.task in ("geom", "coeffs") or (cfg.task == "match" and cfg.direction == "forward")
    if (reads_ladder or {"rydberg", "effective"} & set(built)) and (cfg.a_x <= 0 or cfg.a_y <= 0):
        raise ConfigError("[geometry] a_x and a_y (or rho) must be positive")
    if (cfg.task == "coeffs" or "effective" in built) and cfg.kind == "three-leg" and cfg.case not in (1, 2):
        raise ConfigError(f"[model] case must be 1 or 2, got {cfg.case}")
    if (cfg.task == "coeffs" or "effective" in built) and cfg.kind == "two-leg" and cfg.k_max < 1:
        raise ConfigError(f"[model] k_max must be >= 1, got {cfg.k_max}")
    if "rydberg" in built and cfg.constraint is not None and cfg.constraint < 0:
        raise ConfigError(f"[model] constraint must be >= 0, got {cfg.constraint}")
    if "rydberg" in built and cfg.range_cutoff is not None and cfg.range_cutoff <= 0:
        raise ConfigError(f"[model] range_cutoff must be positive, got {cfg.range_cutoff}")
    if "sqed-field" in built and cfg.flavor not in FLAVORS:
        raise ConfigError(f"[model] flavor must be one of {FLAVORS}")
    if evolved and cfg.dt <= 0:
        raise ConfigError("[task] dt must be positive")
    if evolved and cfg.t_total < 0:
        raise ConfigError("[task] t_total must be >= 0")
    if evolved and abs(cfg.t_total / cfg.dt - round(cfg.t_total / cfg.dt)) > 1e-9 * max(1, cfg.t_total / cfg.dt):
        raise ConfigError(f"[task] t_total = {cfg.t_total} must be a whole number of dt = {cfg.dt} steps")
    if cfg.task == "spectrum" and cfg.k < 1:
        raise ConfigError("[task] k must be >= 1")
    if cfg.task == "sweep":
        if cfg.axis not in ("omega", "delta", "delta0"):
            raise ConfigError("[task] sweep axis must be omega, delta, or delta0")
        if cfg.steps < 1:
            raise ConfigError("[task] steps must be >= 1")
    if cfg.task == "compare" and cfg.compare_task not in ("gs", "evolve"):
        raise ConfigError("[task] compare_task must be gs or evolve")
    if cfg.task == "compare" and (len(cfg.compare_models) != 2 or not set(cfg.compare_models) <= set(MODELS)):
        raise ConfigError(f"[task] compare_models must name two of {MODELS}")
    if cfg.seed < 0:
        raise ConfigError("[output] seed must be >= 0")
    if cfg.threads < 1:
        raise ConfigError("[output] threads must be >= 1")


# ---------------------------------------------------------------------------
# model assembly


def ladder_spec(cfg: RunConfig) -> LadderSpec:
    return LadderSpec(
        kind=LadderKind(cfg.kind),
        n_rungs=cfg.n_rungs,
        a_x=cfg.a_x,
        a_y=cfg.a_y,
        shift=cfg.shift,
        prism_height=cfg.prism_height,
    )


def _height(cfg: RunConfig) -> float | None:
    """The prism's middle-leg height in units of a_y (``None`` = equilateral)."""
    return None if cfg.prism_height is None else cfg.prism_height / cfg.a_y


def geometry_coeffs(cfg: RunConfig) -> EffectiveCoefficients:
    """Closed-form effective coefficients for the configured geometry."""
    kind = LadderKind(cfg.kind)
    spec = ladder_spec(cfg)
    rho = spec.rho
    v0 = cfg.c6 / cfg.a_y**6
    if kind is LadderKind.TWO_LEG:
        return coeffs_two_leg(v0, cfg.delta, cfg.omega, rho, cfg.k_max, cfg.staggered)
    if kind is LadderKind.THREE_LEG:
        return coeffs_three_leg(cfg.case, v0, cfg.delta, cfg.delta0, cfg.omega, rho, cfg.staggered)
    if kind is LadderKind.PRISM:
        return coeffs_prism(v0, cfg.delta, cfg.delta0, cfg.omega, rho, _height(cfg), cfg.staggered)
    if kind is LadderKind.IN_PLANE_TRIANGLE:
        shift = None if cfg.shift is None else cfg.shift / cfg.a_y
        return coeffs_in_plane(v0, cfg.delta, cfg.delta0, cfg.omega, rho, shift, cfg.staggered)
    raise ConfigError(f"no effective description for geometry kind {cfg.kind!r}")


def _target_couplings(cfg: RunConfig) -> TargetCouplings:
    """The configured (U, X, Y, Y') targets, absent keys as zero."""
    return TargetCouplings(**{k: cfg.targets.get(k, 0.0) for k in _TARGET_KEYS})


@dataclass
class Model:
    op: Operator
    basis: object          # RydbergBasis or Spin1Basis
    atoms: object = None   # AtomArray for rydberg models
    dictionary: object = None


def build_model(cfg: RunConfig, which: str | None = None) -> Model:
    which = which or cfg.hamiltonian
    if which == "rydberg":
        atoms = build_ladder(ladder_spec(cfg), delta0=cfg.delta0)
        constraint = None
        if cfg.constraint is not None:
            constraint = RungConstraint(atoms.n_legs, cfg.constraint)
        basis = enumerate_rydberg(atoms.n_atoms, constraint)
        op = rydberg_hamiltonian(atoms, cfg.omega, cfg.delta, cfg.c6, basis, cfg.range_cutoff)
        try:
            dictionary = StateDictionary.for_kind(cfg.kind)
        except BasisError:
            dictionary = None
        return Model(op, basis, atoms, dictionary)
    if which in ("effective", "cahm", "sqed-field"):
        bc = BoundaryCondition(cfg.bc)
        coeffs = geometry_coeffs(cfg) if which == "effective" else target_coefficients(
            which, _target_couplings(cfg), bc, clock=cfg.flavor == "C")
        return Model(effective_spin1_hamiltonian(coeffs, cfg.n_rungs, bc), Spin1Basis(cfg.n_rungs))
    if which == "sqed-charge":
        op, charge_cfg = sqed_charge_hamiltonian(_target_couplings(cfg), cfg.n_rungs)
        return Model(op, charge_cfg)
    raise ConfigError(f"unknown model {which!r}")


def initial_state(cfg: RunConfig, model: Model) -> np.ndarray:
    label = cfg.initial.strip()
    dim = model.op.dim
    psi = np.zeros(dim, dtype=complex)
    if label == "all-ground":
        if isinstance(model.basis, RydbergBasis):
            psi[model.basis.index_of(0)] = 1.0
        elif isinstance(model.basis, Spin1Basis):
            psi[model.basis.index_of([0] * model.basis.n_sites)] = 1.0
        else:
            raise ConfigError("all-ground is undefined for this basis")
        return psi
    if label.startswith("spin:"):
        digits = label[5:]
        ms = []
        for ch in digits:
            if ch not in "+-0":
                raise ConfigError(f"spin label digits must be +, -, or 0, got {digits!r}")
            ms.append({"+": 1, "-": -1, "0": 0}[ch])
        rydberg = model.dictionary is not None
        if not (rydberg or isinstance(model.basis, Spin1Basis)):
            raise ConfigError("spin labels need a spin basis or a dictionary-bearing geometry")
        n_sites = model.basis.n_atoms // model.dictionary.n_legs if rydberg else model.basis.n_sites
        if len(ms) != n_sites:
            raise ConfigError(f"spin label has {len(ms)} digits for {n_sites} sites")
        idx = model.basis.index_of(model.dictionary.configs(ms) if rydberg else ms)
        if idx < 0:
            raise ConfigError(f"spin label {label!r} maps outside the enumerated basis")
        psi[idx] = 1.0
        return psi
    if label.startswith("index:"):
        try:
            idx = int(label[6:])
        except ValueError:
            raise ConfigError(f"initial state index must be an integer, got {label[6:]!r}") from None
        if not 0 <= idx < dim:
            raise ConfigError(f"initial state index {idx} out of range (dim {dim})")
        psi[idx] = 1.0
        return psi
    raise ConfigError(f"unknown initial state label {cfg.initial!r}")


# ---------------------------------------------------------------------------
# tasks


def _write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _gs_row(model: Model, seed: int) -> dict:
    e0, psi, report = ground_state(model.op, seed=seed)
    row = {"E0": e0, "matvecs": report["products"], "residual": report["residual"]}
    if isinstance(model.basis, Spin1Basis):
        op = order_parameters(psi, model.basis)
        n = model.basis.n_sites
        cut = max(1, n // 2)
        row.update(
            m_fm=op.m_fm, m_afm=op.m_afm, m_rdw=op.m_rdw,
            chi_fm=op.chi_fm, chi_afm=op.chi_afm, chi_rdw=op.chi_rdw,
            S1=renyi_entropy(psi, n, cut, 1) if n > 1 else 0.0,
            S2=renyi_entropy(psi, n, cut, 2) if n > 1 else 0.0,
            phase_label=classify_phase(op).value,
        )
    return row


def task_geom(cfg: RunConfig, outdir: Path) -> dict:
    atoms = build_ladder(ladder_spec(cfg), delta0=cfg.delta0)
    rows = [
        (a, int(atoms.rung_of[a]), int(atoms.leg_of[a]), *map(float, atoms.positions[a]))
        for a in range(atoms.n_atoms)
    ]
    _write_csv(outdir / "geometry.csv", ["atom_id", "rung", "leg", "x", "y", "z"], rows)
    return {"n_atoms": atoms.n_atoms}


def task_coeffs(cfg: RunConfig, outdir: Path) -> dict:
    record = asdict(geometry_coeffs(cfg))
    (outdir / "coeffs.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return record


def task_match(cfg: RunConfig, outdir: Path) -> dict:
    if cfg.direction == "forward":
        v0 = cfg.c6 / cfg.a_y**6
        t, const_site, const_offset = match_forward(
            cfg.match_case, v0, cfg.delta, cfg.delta0, cfg.omega, ladder_spec(cfg).rho, _height(cfg)
        )
        record = {
            "targets": {"U": t.U, "X": t.X, "Y": t.Y, "Yp": t.Yp},
            "const_site": const_site,
            "const_offset": const_offset,
        }
    else:
        params = match_inverse(_target_couplings(cfg), cfg.match_case, omega=cfg.omega or 1.0)
        record = {"device": params}
    (outdir / "match.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return record


def task_gs(cfg: RunConfig, outdir: Path) -> dict:
    row = _gs_row(build_model(cfg), cfg.seed)
    _write_csv(outdir / "gs.csv", list(row), [tuple(row.values())])
    return row


def task_spectrum(cfg: RunConfig, outdir: Path) -> dict:
    model = build_model(cfg)
    if model.dictionary is not None:
        res, overlaps, band = sector_eigenstates(model.op, model.basis, model.dictionary, cfg.k)
        in_band = set(band.tolist())
        rows = [
            (j, float(res.eigenvalues[j]), float(res.residuals[j]), float(overlaps[j]), int(j in in_band))
            for j in range(min(len(res.eigenvalues), max(cfg.k, int(band.max()) + 1)))
        ]
        _write_csv(outdir / "spectrum.csv", ["level", "energy", "residual", "sector_overlap", "in_band"], rows)
        summary = {"E0": float(res.eigenvalues[0]), "band": [int(b) for b in band]}
    else:
        res = dense_eigs(model.op, k=cfg.k)
        rows = [(j, float(res.eigenvalues[j]), float(res.residuals[j])) for j in range(len(res.eigenvalues))]
        _write_csv(outdir / "spectrum.csv", ["level", "energy", "residual"], rows)
        summary = {"E0": float(res.eigenvalues[0])}
    summary.update(
        symmetries=list(res.symmetries),
        sectors=list(res.sectors),
        max_residual=float(res.residuals.max()),
    )
    return summary


def _evolve(cfg: RunConfig, model: Model):
    """Evolve the initial state psi in its sector: U^T H U from U^T psi.

    On a Rydberg ladder the sector is that of the verified rung symmetries
    under which psi is an exact eigenvector (``symmetry_sectors``).  When none
    fixes psi, or the model has no rungs, the sector is the whole space and
    U = I is never applied.  Each basis state lies in one orbit, so each row of
    U holds at most one nonzero and |U phi|^2 = (U o U)|phi|^2: the site tables
    T are folded into the sector once, as (U o U)^T T, and no sample is embedded.
    Each window of samples becomes profiles as it comes; returns the sample
    times, their site profiles and the run summary with the propagator's report.
    """
    psi = initial_state(cfg, model)
    names, u, h = [], None, model.op
    if model.dictionary is not None:
        names, (block,) = symmetry_sectors(h, model.basis, model.dictionary.n_legs, psi)
        if names:
            u, psi = block, block.T @ psi
            h = SparseOperator((u.T @ h.matrix @ u).tocsr())
    tables = site_tables(model.basis, model.atoms)
    if u is not None:
        tables = tuple(u.multiply(u).T @ t for t in tables)
    times, profiles = [], []
    for window, states, report in krylov_evolve(h, psi, cfg.t_total, cfg.dt):
        times.extend(window)
        profiles += site_profiles(states, tables)
    return times, profiles, {"n_steps": len(times) - 1, "symmetries": names, "sector": h.dim, **report}


def task_evolve(cfg: RunConfig, outdir: Path) -> dict:
    times, profiles, summary = _evolve(cfg, build_model(cfg))
    rows = []
    for t, prof in zip(times, profiles):
        for s in range(len(prof.lz)):
            rows.append((float(t), s + 1, float(prof.lz[s]), float(prof.lz2[s])))
    _write_csv(outdir / "timeseries.csv", ["t", "site", "lz", "lz2"], rows)
    return summary


def _sweep_point(cfg: RunConfig, value: float, seed: int):
    point = replace(cfg, **{cfg.axis: value})
    drive = {"omega": point.omega, "delta": point.delta, "delta0": point.delta0}
    try:
        return {**drive, **_gs_row(build_model(point), seed), "error": ""}
    except (SolverError, ResonanceError, FloatingPointError) as exc:
        return {**drive, "error": f"{type(exc).__name__}: {exc}"}


def task_sweep(cfg: RunConfig, outdir: Path) -> dict:
    values = np.linspace(cfg.start, cfg.stop, cfg.steps)
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(lambda v: _sweep_point(cfg, float(v), cfg.seed), values))
    keys = ["omega", "delta", "delta0", "m_fm", "m_afm", "m_rdw", "chi_fm", "chi_afm",
            "chi_rdw", "S1", "S2", "E0", "matvecs", "residual", "phase_label", "error"]
    _write_csv(outdir / "scan.csv", keys, [tuple(r.get(k, "") for k in keys) for r in results])
    summary = {"points": len(results), "failed": sum(1 for r in results if r["error"])}
    chain = [r for r in results if not r["error"] and "chi_fm" in r]   # error-free spin-1 chain points
    if len(chain) >= 3:
        xs = [r[cfg.axis] for r in chain]
        summary["peaks"] = {k: list(susceptibility_peak(xs, [r[k] for r in chain]))
                            for k in ("chi_fm", "chi_afm", "chi_rdw")}
    return summary


def task_compare(cfg: RunConfig, outdir: Path) -> dict:
    name_a, name_b = cfg.compare_models
    model_a = build_model(cfg, name_a)
    model_b = build_model(cfg, name_b)
    if cfg.compare_task == "gs":
        e_a = ground_state(model_a.op, seed=cfg.seed)[0]
        e_b = ground_state(model_b.op, seed=cfg.seed)[0]
        rel = abs(e_a - e_b) / max(abs(e_a), 1e-300)
        _write_csv(
            outdir / "compare_gs.csv",
            [f"E0_{name_a}", f"E0_{name_b}", "abs_deviation", "rel_deviation"],
            [(e_a, e_b, abs(e_a - e_b), rel)],
        )
        return {"E0_a": e_a, "E0_b": e_b, "max_deviation": abs(e_a - e_b)}
    # compare evolve: paired per-site traces, and each propagation's report
    times, profs_a, report_a = _evolve(cfg, model_a)
    _, profs_b, report_b = _evolve(cfg, model_b)
    rows = []
    max_dev = 0.0
    for t, prof_a, prof_b in zip(times, profs_a, profs_b):
        for s in range(len(prof_a.lz2)):
            dev = abs(float(prof_a.lz2[s]) - float(prof_b.lz2[s]))
            max_dev = max(max_dev, dev)
            rows.append((float(t), s + 1, float(prof_a.lz2[s]), float(prof_b.lz2[s]), dev))
    _write_csv(
        outdir / "compare_evolve.csv",
        ["t", "site", f"lz2_{name_a}", f"lz2_{name_b}", "abs_deviation"],
        rows,
    )
    return {"max_deviation": max_dev, "evolve_a": report_a, "evolve_b": report_b}


# The one name -> task table: `main`'s commands, `[task] task` and `run` read it.
TASKS = {"gs": task_gs, "spectrum": task_spectrum, "evolve": task_evolve, "sweep": task_sweep,
         "match": task_match, "compare": task_compare, "geom": task_geom, "coeffs": task_coeffs}


# ---------------------------------------------------------------------------
# manifest and entry point


def derived_quantities(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Informative values for the manifest, and the error that cut them short."""
    out, errors = {}, []
    ladder = cfg.a_x > 0 and cfg.a_y > 0   # target-chain runs need no geometry
    try:
        if ladder:
            named = ladder_couplings(ladder_spec(cfg), cfg.c6)
            out.update({k: float(v) for k, v in named.items()})
        if cfg.omega > 0:
            out["R_b"] = blockade_radius(cfg.c6, cfg.omega)
        if ladder:
            out["coefficients"] = asdict(geometry_coeffs(cfg))
    except (ConfigError, ResonanceError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    return out, errors


def run(cfg: RunConfig, outdir: str | Path | None = None) -> int:
    _validate(cfg)
    outdir = Path(outdir if outdir is not None else cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    summary = TASKS[cfg.task](cfg, outdir)
    wall = time.perf_counter() - t0
    derived, derived_errors = derived_quantities(cfg)
    manifest = {
        "tool": "rydladder",
        "version": __version__,
        "config": asdict(cfg),
        "derived": derived,
        "derived_errors": derived_errors,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "wall_time_s": wall,
        "summary": summary,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=_json_default) + "\n")
    return EXIT_OK


def _json_default(obj):
    """numpy scalars as Python numbers (np.float64 is already a float), else str."""
    return obj.item() if isinstance(obj, np.generic) else str(obj)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rydladder",
        description="Rydberg-ladder simulators, effective spin-1 chains, and parameter matching",
    )
    parser.add_argument("command", choices=("run", *TASKS),
                        help="task to run ('run' uses the task from the config)")
    parser.add_argument("--config", required=True, help="path to a run config or manifest.json")
    parser.add_argument("--out", default=None, help="output directory (default: config's)")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.command != "run":
            cfg.task = args.command
        if args.threads is not None:
            cfg.threads = args.threads
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, MatchingError, ResonanceError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
