"""Command-line front end: parsing, outputs, reproducibility, exit codes."""

import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from rydladder import (SparseOperator, TargetCouplings, match_forward, site_profiles, site_tables, sqed_charge_hamiltonian,
                       susceptibility_peak)
from rydladder.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    TASKS,
    ConfigError,
    RunConfig,
    _evolve,
    build_model,
    fmt,
    initial_state,
    main,
    parse_config,
    run,
)
from rydladder.solvers import KRYLOV_DIM, KRYLOV_TOL, RESIDUAL_TOL, symmetry_sectors

from references import trajectory

BASE = """
[geometry]
kind = three-leg
n_rungs = 3
a_y = 4.0
rho = 0.3333333333333333

[drive]
units = two-pi-mhz
omega = 2.0
delta = 20.0
delta0 = 0.2

[model]
hamiltonian = effective
bc = obc
case = 2

[task]
task = gs

[output]
directory = {out}
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _even_sector(model):
    """Dense U^T H U on the states even under leg reflection and rung mirror,
    U built from the bit images of a complete Rydberg basis."""
    n_legs = model.dictionary.n_legs
    n_atoms = model.basis.n_atoms
    shape = (-1, n_atoms // n_legs, n_legs)
    bits = ((model.basis.states[:, None] >> np.arange(n_atoms)) & 1).reshape(shape)
    weights = (1 << np.arange(n_atoms)).reshape(shape[1:])
    images = np.stack([(b * weights).sum(axis=(1, 2))
                       for b in (bits, bits[:, :, ::-1], bits[:, ::-1], bits[:, ::-1, ::-1])], axis=1)
    orbits = np.unique(np.sort(images, axis=1), axis=0)
    u = np.zeros((model.op.dim, len(orbits)))
    for j, orbit in enumerate(orbits):
        members = np.unique(orbit)
        u[members, j] = 1.0 / np.sqrt(len(members))
    return u.T @ model.op.matrix.toarray() @ u


def test_float_formatting_is_lossless():
    for x in (1.0 / 3.0, math.pi, 1e-17, 123456.789):
        assert float(fmt(x)) == x


def test_parse_config_units_scaling(tmp_path):
    cfg = parse_config(_write(tmp_path, BASE.format(out=tmp_path)))
    assert cfg.omega == pytest.approx(2.0 * 2 * math.pi)
    assert cfg.delta == pytest.approx(20.0 * 2 * math.pi)
    assert cfg.a_x == pytest.approx(12.0)  # a_y / rho


def test_parse_config_rejects_unknown_key(tmp_path):
    bad = BASE.format(out=tmp_path).replace("case = 2", "caze = 2")
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, bad))


def test_parse_config_reads_every_scalar_key(tmp_path):
    """Every scalar RunConfig field is read from the INI with its annotated type."""
    values = {
        "kind": "prism", "n_rungs": 3, "a_x": 7.5, "a_y": 4.25, "shift": 0.5,
        "prism_height": 2.5, "omega": 1.5, "delta": 2.5, "delta0": 0.75, "c6": 1234.5,
        "hamiltonian": "effective", "flavor": "C", "bc": "pbc", "range_cutoff": 9.5,
        "k_max": 3, "case": 1, "staggered": True, "constraint": 2, "task": "sweep", "k": 7,
        "initial": "spin:0+-", "t_total": 0.25, "dt": 0.01, "axis": "delta", "start": 0.5,
        "stop": 1.5, "steps": 4, "direction": "inverse", "match_case": "two-leg",
        "compare_task": "evolve", "directory": "somewhere", "seed": 7, "threads": 2,
    }
    scalar = {f.name for f in fields(RunConfig)} - {"targets", "compare_models"}
    assert set(values) == scalar
    # the parser takes any known key in any known section, and a manifest's
    # config object (JSON numbers and booleans) through the same converters
    ini = "[drive]\nunits = rad-per-us\n[task]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    default = RunConfig()
    for name, text in (("run.ini", ini), ("manifest.json", json.dumps({"config": values}))):
        cfg = parse_config(_write(tmp_path, text, name))
        for key, value in values.items():
            assert getattr(default, key) != value, key
            assert type(getattr(cfg, key)) is type(value), (name, key)
            assert getattr(cfg, key) == value, (name, key)


def test_parse_config_rejects_bad_units(tmp_path):
    bad = BASE.format(out=tmp_path).replace("two-pi-mhz", "hartree")
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, bad))


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_exit_code_numeric_failure(tmp_path, capsys):
    bad = BASE.format(out=tmp_path).replace("delta = 20.0", "delta = 0.0")
    assert main(["run", "--config", _write(tmp_path, bad)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_spectrum_k_above_dim_writes_dim_levels(tmp_path):
    out = tmp_path / "sp"
    text = BASE.format(out=out).replace("n_rungs = 3", "n_rungs = 2")
    text = text.replace("task = gs", "task = spectrum\nk = 20")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 9   # header and min(k, dim) levels of the two-site chain


@pytest.mark.parametrize("task, line", [
    ("spectrum", "k = 0"),
    ("evolve", "t_total = -0.5"),
    ("compare", "compare_task = evolve\nt_total = -1"),
    ("compare", "compare_task = evolve\ndt = 0"),
    ("evolve", "t_total = 1.0\ndt = 0.3"),
    ("compare", "compare_task = evolve\nt_total = 1.0\ndt = 0.6"),
])
def test_exit_code_config_error_for_bad_task_values(tmp_path, capsys, task, line):
    """A compare run that evolves checks dt and t_total as evolve does: it once
    exited 3 on "negative dimensions are not allowed" or "dt must be positive"."""
    text = BASE.format(out=tmp_path).replace("task = gs", f"task = {task}\n{line}")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_boolean_typo_is_a_config_error(tmp_path, capsys):
    """Only 1/0, true/false, yes/no and on/off, in any case, are booleans: a
    typo used to read as false and silently flip the sign of R."""
    text = BASE.format(out=tmp_path).replace("case = 2", "case = 2\nstaggered = SPELLING")
    for spelling, value in (("True", True), ("OFF", False), ("yes", True), ("0", False)):
        assert parse_config(_write(tmp_path, text.replace("SPELLING", spelling))).staggered is value
    assert main(["coeffs", "--config", _write(tmp_path, text.replace("SPELLING", "ture"))]) == EXIT_CONFIG
    assert "staggered = 'ture': not a boolean" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, BASE.format(out=tmp_path))
    assert main(["run", "--config", path, "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err


def test_gs_task_outputs(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, BASE.format(out=out))
    assert main(["run", "--config", path]) == EXIT_OK
    rows = (out / "gs.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[:3] == ["E0", "matvecs", "residual"]
    for col in ("m_fm", "m_afm", "m_rdw", "chi_fm", "chi_afm", "chi_rdw",
                "S1", "S2", "phase_label"):
        assert col in header
    row = dict(zip(header, rows[1].split(",")))
    assert int(row["matvecs"]) >= 2   # the start's product and the certificate's
    h = build_model(parse_config(path)).op
    assert 0 <= float(row["residual"]) <= RESIDUAL_TOL * spla.norm(h.matrix, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "rydladder"
    assert "V0" in manifest["derived"]
    assert "coefficients" in manifest["derived"]


def test_units_equivalence(tmp_path):
    """The same physics in either unit system matches to 1e-12 relative."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["run", "--config", _write(tmp_path, BASE.format(out=out_a), "a.ini")])
    rad = BASE.format(out=out_b).replace("units = two-pi-mhz", "units = rad-per-us")
    tp = 2 * math.pi
    rad = rad.replace("omega = 2.0", f"omega = {2.0 * tp!r}")
    rad = rad.replace("delta = 20.0", f"delta = {20.0 * tp!r}")
    rad = rad.replace("delta0 = 0.2", f"delta0 = {0.2 * tp!r}")
    main(["run", "--config", _write(tmp_path, rad, "b.ini")])
    for fa, fb in zip((out_a / "gs.csv").read_text().split("\n"),
                      (out_b / "gs.csv").read_text().split("\n")):
        for va, vb in zip(fa.split(","), fb.split(",")):
            try:
                xa, xb = float(va), float(vb)
            except ValueError:
                assert va == vb
                continue
            assert xa == pytest.approx(xb, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("task", ["gs", "evolve"])
def test_manifest_round_trip_bitwise(tmp_path, task):
    out = tmp_path / "out"
    out2 = tmp_path / "out2"
    text = BASE.format(out=out)
    output = "gs.csv"
    if task == "evolve":
        text = text.replace("hamiltonian = effective", "hamiltonian = rydberg")
        text = text.replace("task = gs", "task = evolve\ninitial = spin:000\ndt = 0.002")
        output = "timeseries.csv"
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    assert main(["run", "--config", str(out / "manifest.json"), "--out", str(out2)]) == EXIT_OK
    assert (out / output).read_bytes() == (out2 / output).read_bytes()
    if task == "evolve":
        # the manifest reports the propagator's windows, products with H and
        # error bound, for the H evolved: that of the sector even under both
        # rung symmetries; the re-run reports the same
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        h = _even_sector(build_model(parse_config(str(out / "manifest.json"))))
        assert (summary["symmetries"], summary["sector"]) == (["leg", "mirror"], len(h))
        assert summary["windows"] >= 1 and summary["matvecs"] == summary["windows"] * KRYLOV_DIM
        assert 0 < summary["error_bound"] <= summary["windows"] * KRYLOV_TOL
        assert json.loads((out2 / "manifest.json").read_text())["summary"] == summary


@pytest.mark.parametrize("edit, message", [
    ("truncated", "cannot parse"),
    ("misspelt key", "unknown key 'n_rung'"),
    ("wrong type", "n_rungs = 'abc'"),
])
def test_malformed_manifest_is_a_config_error(tmp_path, capsys, edit, message):
    """A manifest is read key by key like an INI file, so each of these is a
    config error, not a traceback or a run with the default value."""
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, BASE.format(out=out))]) == EXIT_OK
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    if edit == "misspelt key":
        manifest["config"]["n_rung"] = manifest["config"].pop("n_rungs")
    elif edit == "wrong type":
        manifest["config"]["n_rungs"] = "abc"
    text = text[: len(text) // 2] if edit == "truncated" else json.dumps(manifest)
    path = _write(tmp_path, text, "edited.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "again")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, hamiltonian, symmetries", [
    ("three-leg", "rydberg", ["leg", "mirror"]),
    # the in-plane middle leg is shifted along x: no rung mirror
    ("in-plane-triangle", "rydberg", ["leg"]),
    ("three-leg", "effective", []),
])
def test_spectrum_summary_records_symmetry_blocks(tmp_path, kind, hamiltonian, symmetries):
    out = tmp_path / "sp"
    text = BASE.format(out=out).replace("kind = three-leg", f"kind = {kind}")
    text = text.replace("hamiltonian = effective", f"hamiltonian = {hamiltonian}")
    text = text.replace("task = gs", "task = spectrum\nk = 27")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    h = build_model(parse_config(str(out / "manifest.json"))).op
    assert summary["symmetries"] == symmetries
    assert len(summary["sectors"]) == 2 ** len(symmetries)
    assert sum(summary["sectors"]) == h.dim
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    column = rows[0].split(",").index("residual")
    written = max(float(r.split(",")[column]) for r in rows[1:])
    assert written <= summary["max_residual"] <= 1e-10 * np.abs(h.matrix.toarray()).sum(axis=0).max()


def test_geom_subcommand(tmp_path):
    out = tmp_path / "geo"
    assert main(["geom", "--config", _write(tmp_path, BASE.format(out=tmp_path)),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "geometry.csv").read_text().strip().split("\n")
    assert lines[0] == "atom_id,rung,leg,x,y,z"
    assert len(lines) == 1 + 9  # three rungs of three atoms


def test_command_task_is_validated_instead_of_the_files(tmp_path):
    """geom never reads k, so the file's spectrum task with k = 0 does not stop it."""
    out = tmp_path / "geo"
    text = BASE.format(out=tmp_path).replace("task = gs", "task = spectrum\nk = 0")
    assert main(["geom", "--config", _write(tmp_path, text), "--out", str(out)]) == EXIT_OK
    assert (out / "geometry.csv").read_text().startswith("atom_id,rung,leg,x,y,z\n")


def test_coeffs_subcommand(tmp_path, capsys):
    out = tmp_path / "co"
    assert main(["coeffs", "--config", _write(tmp_path, BASE.format(out=out))]) == EXIT_OK
    record = json.loads((out / "coeffs.json").read_text())
    for key in ("D", "R", "Rp", "J", "J2", "validity"):
        assert key in record


@pytest.mark.parametrize("task", list(TASKS))
def test_every_task_is_a_command_and_a_config_value(tmp_path, task):
    """Each entry of the task table runs as ``rydladder <task>`` and as
    ``[task] task = <task>``, and both write a manifest naming it."""
    extra = {"evolve": "t_total = 0.01\ndt = 0.01", "sweep": "axis = delta\nstart = 20.0\nstop = 20.0",
             "match": "direction = forward\nmatch_case = three-leg-00bc"}.get(task, "")
    text = BASE.format(out=tmp_path / "run").replace("task = gs", f"task = {task}\n{extra}")
    path = _write(tmp_path, text)
    assert main([task, "--config", path, "--out", str(tmp_path / "command")]) == EXIT_OK
    assert main(["run", "--config", path]) == EXIT_OK
    for out in ("command", "run"):
        assert json.loads((tmp_path / out / "manifest.json").read_text())["config"]["task"] == task


def test_geom_and_coeffs_manifests_carry_the_coefficient_record(tmp_path, capsys):
    path = _write(tmp_path, BASE.format(out=tmp_path))
    for command in ("geom", "coeffs"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == EXIT_OK
    record = json.loads((tmp_path / "coeffs" / "coeffs.json").read_text())
    assert json.loads(capsys.readouterr().out) == record
    manifests = {c: json.loads((tmp_path / c / "manifest.json").read_text()) for c in ("geom", "coeffs")}
    for manifest in manifests.values():
        assert manifest["derived"]["coefficients"] == record
    assert manifests["coeffs"]["summary"] == record
    assert manifests["geom"]["summary"] == {"n_atoms": 9}


def test_evolve_timeseries_schema(tmp_path):
    out = tmp_path / "ev"
    text = BASE.format(out=out).replace("task = gs", "\n".join([
        "task = evolve", "initial = spin:000", "t_total = 0.02", "dt = 0.01",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = (out / "timeseries.csv").read_text().strip().split("\n")
    assert lines[0] == "t,site,lz,lz2"
    assert len(lines) == 1 + 3 * 3  # 3 time samples x 3 sites
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    # the effective chain has no rungs to reflect: its whole space is evolved
    op = build_model(parse_config(str(out / "manifest.json"))).op
    assert (summary["symmetries"], summary["sector"]) == ([], op.dim)
    assert summary["windows"] >= 1 and 1 <= summary["matvecs"] <= summary["windows"] * KRYLOV_DIM
    assert 0 <= summary["error_bound"] <= summary["windows"] * KRYLOV_TOL


@pytest.mark.parametrize("kind, symmetries", [
    ("three-leg", ["leg", "mirror"]),
    ("in-plane-triangle", ["leg"]),
])
def test_sector_evolution_matches_full_space_and_expm(tmp_path, kind, symmetries):
    """The sector trajectory, embedded here as U phi, against full-space krylov_evolve
    and dense expm; the profiles ``_evolve`` folds from the sector against those of
    the embedded samples."""
    text = BASE.format(out=tmp_path).replace("kind = three-leg", f"kind = {kind}").replace(
        "hamiltonian = effective", "hamiltonian = rydberg").replace("task = gs", "\n".join([
            "task = evolve", "initial = spin:000", "t_total = 0.1", "dt = 0.01"]))
    cfg = parse_config(_write(tmp_path, text))
    model = build_model(cfg)
    sector_times, profiles, summary = _evolve(cfg, model)
    assert summary["symmetries"] == symmetries
    psi0 = initial_state(cfg, model)
    names, (u,) = symmetry_sectors(model.op, model.basis, model.dictionary.n_legs, psi0)
    assert names == symmetries and u.shape == (model.op.dim, summary["sector"])
    assert summary["sector"] < model.op.dim
    sector = SparseOperator((u.T @ model.op.matrix @ u).tocsr())
    _, states, _ = trajectory(sector, u.T @ psi0, cfg.t_total, cfg.dt)
    samples = [u @ phi for phi in states]
    times, full, _ = trajectory(model.op, psi0, cfg.t_total, cfg.dt)
    np.testing.assert_array_equal(sector_times, times)
    step = sla.expm(-1j * cfg.dt * model.op.matrix.toarray())
    exact = psi0
    for psi, ref in zip(samples, full, strict=True):
        assert np.linalg.norm(psi - ref) <= 1e-12
        assert np.linalg.norm(psi - exact) <= 1e-12
        exact = step @ exact
    embedded = site_profiles(samples, site_tables(model.basis, model.atoms))
    for folded, prof in zip(profiles, embedded, strict=True):
        assert np.abs(folded.lz - prof.lz).max() <= 1e-12
        assert np.abs(folded.lz2 - prof.lz2).max() <= 1e-12


QUENCH = """
[geometry]
kind = three-leg
n_rungs = 4
a_y = 1.0
rho = 0.3333333333333333

[drive]
units = two-pi-mhz
c6 = 40.0
omega = 2.0
delta = 20.0
delta0 = 0.2

[model]
hamiltonian = rydberg

[task]
task = evolve
initial = {initial}
dt = 0.002
t_total = 1.0
"""


@pytest.mark.parametrize("initial, dim, share", [("spin:0000", 1120, 1.0), ("index:1", 4096, 0.5)])
def test_evolve_holds_no_trajectory(tmp_path, initial, dim, share):
    """The 12-atom quench, 501 samples, keeps one Lanczos window of samples at a
    time: the traced peak of the whole run stays below the stored trajectory of
    its sector (spin:0000, 1120 states), and below half of it in the full space
    (index:1, 4096 states), where the trajectory alone is 33 MB."""
    cfg = parse_config(_write(tmp_path, QUENCH.format(initial=initial)))
    tracemalloc.start()
    try:
        assert run(cfg, tmp_path / "out") == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert (summary["n_steps"], summary["sector"]) == (500, dim)
    assert peak < share * 501 * dim * 16


def test_state_fixed_by_no_symmetry_evolves_in_full_space_bitwise(tmp_path):
    """index:1 (one excited outer atom) is moved by both rung symmetries: the
    whole space is evolved, and the time series is bit for bit the full-space
    krylov_evolve with one site profile per sample."""
    out = tmp_path / "ev"
    text = BASE.format(out=out).replace("hamiltonian = effective", "hamiltonian = rydberg").replace(
        "task = gs", "\n".join(["task = evolve", "initial = index:1", "t_total = 0.05", "dt = 0.01"]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    cfg = parse_config(str(out / "manifest.json"))
    model = build_model(cfg)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert (summary["symmetries"], summary["sector"]) == ([], model.op.dim)
    times, states, report = trajectory(model.op, initial_state(cfg, model), cfg.t_total, cfg.dt)
    assert {key: summary[key] for key in report} == report
    # the table arithmetic of site_profiles, one sample at a time, written out:
    # each rung's outer-leg occupations, read off the bits of each state
    atoms, states_int = model.atoms, model.basis.states
    up, down = (np.stack([(states_int >> a) & 1 for a in np.flatnonzero(atoms.leg_of == leg)], axis=1)
                for leg in (+1, -1))
    lz, lz2 = (up - down).astype(float), (up + down).astype(float)
    lines = ["t,site,lz,lz2"]
    for t, psi in zip(times, states):
        w = np.abs(psi) ** 2
        for s, (m, m2) in enumerate(zip(w @ lz, w @ lz2)):
            lines.append(",".join(fmt(x) for x in (float(t), s + 1, float(m), float(m2))))
    assert (out / "timeseries.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("model", ["hamiltonian = rydberg", "hamiltonian = rydberg\nconstraint = 1",
                                   "hamiltonian = effective"], ids=["complete", "rung-capped", "chain"])
def test_build_model_assembles_no_csr(tmp_path, monkeypatch, model):
    """Product-basis models are set up from a diagonal and a hop alone: with the one
    CSR constructor disabled, ``build_model`` still succeeds, and only reading
    ``matrix`` reaches the constructor."""
    def no_csr(cls, *args):
        raise AssertionError("a CSR was assembled")

    monkeypatch.setattr(SparseOperator, "from_coo", classmethod(no_csr))
    cfg = parse_config(_write(tmp_path, BASE.format(out=tmp_path).replace("hamiltonian = effective", model)))
    op = build_model(cfg).op
    assert "matrix" not in vars(op)
    with pytest.raises(AssertionError, match="CSR"):
        op.matrix


def test_initial_state_labels(tmp_path):
    out = tmp_path / "lbl"
    for label in ("all-ground", "spin:0+-", "index:5"):
        text = BASE.format(out=out).replace("task = gs", "\n".join([
            "task = evolve", f"initial = {label}", "t_total = 0.01", "dt = 0.01",
        ]))
        assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    text = BASE.format(out=out).replace("task = gs", "\n".join([
        "task = evolve", "initial = spin:9", "t_total = 0.01", "dt = 0.01",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG


def test_default_all_ground_evolves_the_rydberg_vacuum(tmp_path):
    """``initial`` left at its default, all-ground, starts a Rydberg ladder in |0...0>:
    no atom excited, so every site reads lz = lz2 = 0 at t = 0, and the time series
    is that of expm(-i H t) applied to that basis state."""
    out = tmp_path / "ev"
    text = BASE.format(out=out).replace("hamiltonian = effective", "hamiltonian = rydberg").replace(
        "task = gs", "\n".join(["task = evolve", "t_total = 0.05", "dt = 0.01"]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    model = build_model(parse_config(str(out / "manifest.json")))
    assert model.basis.states[0] == 0
    psi = np.zeros(model.op.dim, complex)
    psi[0] = 1.0
    step = sla.expm(-1j * 0.01 * model.op.matrix.toarray())
    rows = [line.split(",") for line in (out / "timeseries.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 6 * 3   # six samples of three rungs
    tables = site_tables(model.basis, model.atoms)
    for k in range(6):
        (prof,) = site_profiles([psi], tables)
        sample = np.array([[float(x) for x in row[2:]] for row in rows[3 * k:3 * k + 3]])
        assert all(float(row[0]) == pytest.approx(0.01 * k, abs=1e-15) for row in rows[3 * k:3 * k + 3])
        if k == 0:
            assert not sample.any()
        np.testing.assert_allclose(sample, np.stack([prof.lz, prof.lz2], axis=1), rtol=0, atol=1e-12)
        psi = step @ psi


def test_non_integer_index_label_is_a_config_error(tmp_path, capsys):
    text = BASE.format(out=tmp_path).replace("task = gs", "\n".join([
        "task = evolve", "initial = index:abc", "t_total = 0.01", "dt = 0.01",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "initial state index must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["three-leg", "two-leg"])
@pytest.mark.parametrize("label", ["spin:+-", "spin:+-0+"])
def test_rydberg_spin_label_needs_one_digit_per_rung(tmp_path, kind, label):
    """A short label used to leave the missing rungs empty: spin:+- on three
    three-leg rungs started from 0b001100, outside the spin-1 sector."""
    out = tmp_path / "sp"
    text = BASE.format(out=out).replace("kind = three-leg", f"kind = {kind}").replace(
        "hamiltonian = effective", "hamiltonian = rydberg")
    cfg = parse_config(_write(tmp_path, text))
    model = build_model(cfg)
    cfg.initial = label
    with pytest.raises(ConfigError, match=f"spin label has {len(label) - 5} digits for 3 sites"):
        initial_state(cfg, model)
    text = text.replace("task = gs", "\n".join([
        "task = evolve", f"initial = {label}", "t_total = 0.01", "dt = 0.01",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    cfg.initial = "spin:+-0"
    psi = initial_state(cfg, model)
    assert psi[model.basis.index_of(model.dictionary.configs([1, -1, 0]))] == 1.0


def test_sweep_schema_and_thread_determinism(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    text = BASE.format(out=out1).replace("task = gs", "\n".join([
        "task = sweep", "axis = delta", "start = 10.0", "stop = 30.0", "steps = 4",
    ]))
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--threads", "1"]) == EXIT_OK
    assert main(["run", "--config", path, "--threads", "3", "--out", str(out2)]) == EXIT_OK
    body1 = (out1 / "scan.csv").read_text()
    assert body1 == (out2 / "scan.csv").read_text()
    lines = body1.strip().split("\n")
    assert lines[0].split(",") == [
        "omega", "delta", "delta0", "m_fm", "m_afm", "m_rdw", "chi_fm", "chi_afm",
        "chi_rdw", "S1", "S2", "E0", "matvecs", "residual", "phase_label", "error",
    ]
    assert len(lines) == 5


def test_delta0_sweep_records_each_point_and_matches_gs(tmp_path):
    """The delta0 column is the grid, and each row is the gs run at its delta0."""
    text = BASE.format(out=tmp_path / "sweep").replace("task = gs", "\n".join([
        "task = sweep", "axis = delta0", "start = 0.1", "stop = 0.5", "steps = 3",
    ]))
    cfg = parse_config(_write(tmp_path, text))
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "sweep" / "scan.csv").read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    grid = np.linspace(cfg.start, cfg.stop, cfg.steps)
    assert [float(r["delta0"]) for r in rows] == grid.tolist()
    assert {(float(r["omega"]), float(r["delta"])) for r in rows} == {(cfg.omega, cfg.delta)}
    energies = [float(r["E0"]) for r in rows]
    assert len(set(energies)) == len(grid)
    for i, (value, e0) in enumerate(zip(grid, energies)):
        out = tmp_path / f"gs{i}"
        assert run(replace(cfg, task="gs", delta0=float(value)), out) == EXIT_OK
        gs = (out / "gs.csv").read_text().strip().split("\n")
        expected = float(dict(zip(gs[0].split(","), gs[1].split(",")))["E0"])
        assert e0 == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_sweep_single_point_matches_gs(tmp_path):
    out_sweep = tmp_path / "sw"
    out_gs = tmp_path / "gs"
    delta = 20.0
    sweep = BASE.format(out=out_sweep).replace("task = gs", "\n".join([
        "task = sweep", "axis = delta", f"start = {delta}", f"stop = {delta}", "steps = 1",
    ]))
    main(["run", "--config", _write(tmp_path, sweep, "sw.ini")])
    main(["run", "--config", _write(tmp_path, BASE.format(out=out_gs), "gs.ini")])
    scan = (out_sweep / "scan.csv").read_text().strip().split("\n")
    gs = (out_gs / "gs.csv").read_text().strip().split("\n")
    scan_row = dict(zip(scan[0].split(","), scan[1].split(",")))
    gs_row = dict(zip(gs[0].split(","), gs[1].split(",")))
    assert float(scan_row["E0"]) == pytest.approx(float(gs_row["E0"]), rel=1e-12)


def test_sweep_records_per_point_failures(tmp_path):
    out = tmp_path / "fail"
    text = BASE.format(out=out).replace("task = gs", "\n".join([
        "task = sweep", "axis = delta", "start = 0.0", "stop = 20.0", "steps = 2",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK  # run continues
    lines = (out / "scan.csv").read_text().strip().split("\n")
    first = lines[1].split(",")
    assert "ResonanceError" in first[-1]
    assert lines[2].split(",")[-1] == ""


def test_chain_sweep_summary_locates_each_susceptibility_peak(tmp_path):
    """The sweep summary holds susceptibility_peak of each chi column over the
    error-free rows of its own scan.csv (the resonant Delta = 0 point is left
    out); with fewer than three such rows it reports no peaks."""
    out = tmp_path / "peaks"
    text = BASE.format(out=out).replace("task = gs", "\n".join([
        "task = sweep", "axis = delta", "start = 0.0", "stop = 30.0", "steps = 7",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = (out / "scan.csv").read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert "ResonanceError" in rows[0]["error"]
    rows = [r for r in rows if not r["error"]]
    assert len(rows) == 6
    xs = [float(r["delta"]) for r in rows]
    expected = {k: list(susceptibility_peak(xs, [float(r[k]) for r in rows]))
                for k in ("chi_fm", "chi_afm", "chi_rdw")}
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["peaks"] == expected
    text = text.replace("steps = 7", "steps = 3")   # Delta = 0, 15, 30: two error-free rows
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert (summary["failed"], "peaks" in summary) == (1, False)


def test_compare_evolve_outputs(tmp_path):
    out = tmp_path / "cmp"
    text = BASE.format(out=out).replace("hamiltonian = effective", "hamiltonian = rydberg")
    text = text.replace("task = gs", "\n".join([
        "task = compare", "compare_models = rydberg,effective", "compare_task = evolve",
        "initial = spin:000", "t_total = 0.02", "dt = 0.01",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = (out / "compare_evolve.csv").read_text().strip().split("\n")
    assert lines[0] == "t,site,lz2_rydberg,lz2_effective,abs_deviation"
    assert len(lines) == 1 + 3 * 3  # 3 time samples x 3 sites
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["max_deviation"] < 0.05
    # both propagations report, so the deviation can be set against their error bounds
    rydberg, effective = summary["evolve_a"], summary["evolve_b"]
    assert (rydberg["symmetries"], effective["symmetries"]) == (["leg", "mirror"], [])
    assert rydberg["sector"] < 2**9 and effective["sector"] == 3**3
    for report in (rydberg, effective):
        assert report["n_steps"] == 2
        assert report["windows"] >= 1 and 1 <= report["matvecs"] <= report["windows"] * KRYLOV_DIM
        assert 0 <= report["error_bound"] <= report["windows"] * KRYLOV_TOL


def test_compare_gs_outputs(tmp_path):
    out = tmp_path / "cmpg"
    text = BASE.format(out=out).replace("task = gs", "\n".join([
        "task = compare", "compare_models = rydberg,effective", "compare_task = gs",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = (out / "compare_gs.csv").read_text().strip().split("\n")
    assert lines[0] == "E0_rydberg,E0_effective,abs_deviation,rel_deviation"


@pytest.mark.parametrize("hamiltonian, bc, task", [
    ("rydberg", "00bc", "gs"),
    ("rydberg", "pbc", "sweep"),
    ("cahm", "pbc", "evolve"),
    ("sqed-charge", "00bc", "spectrum"),
    ("rydberg,effective", "00bc", "compare"),   # the compared pair is checked, not [model]
])
def test_bc_of_a_model_without_boundary_terms_is_a_config_error(tmp_path, capsys, hamiltonian, bc, task):
    """Rydberg ladders and the charge representations are open chains only:
    their builders take no bc, so any other bc would be silently ignored."""
    line = f"compare_models = {hamiltonian}" if task == "compare" else f"hamiltonian = {hamiltonian}"
    text = BASE.format(out=tmp_path).replace("hamiltonian = effective", line).replace(
        "bc = obc", f"bc = {bc}").replace("task = gs", f"task = {task}")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert f"bc = {bc} is not defined for hamiltonian {hamiltonian.split(',')[0]}" in capsys.readouterr().err
    # tasks that build no Hamiltonian leave bc alone
    text = text.replace(f"task = {task}", "task = coeffs")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK


@pytest.mark.parametrize("hamiltonian, bc, code", [
    ("sqed-field", "pbc", EXIT_CONFIG),
    ("sqed-field", "00bc", EXIT_OK),
    ("effective", "pbc", EXIT_OK),
    ("effective", "xbc", EXIT_CONFIG),
])
def test_bc_of_the_field_representation_and_chain(tmp_path, capsys, hamiltonian, bc, code):
    """The field representation has no periodic form; it failed at build time
    with exit 3 before the config was checked."""
    text = BASE.format(out=tmp_path).replace("hamiltonian = effective", f"hamiltonian = {hamiltonian}").replace(
        "bc = obc", f"bc = {bc}").replace("[model]", "[model]\nX = 1.0\nY = 0.5\nYp = 0.5")
    assert main(["run", "--config", _write(tmp_path, text)]) == code
    assert ("config error" in capsys.readouterr().err) == (code == EXIT_CONFIG)


def test_match_inverse_and_forward(tmp_path):
    out = tmp_path / "match"
    text = BASE.format(out=out).replace("units = two-pi-mhz", "units = rad-per-us")
    text = text.replace("hamiltonian = effective", "\n".join([
        "hamiltonian = effective", "U = 0.0", "X = 0.02", "Y = 0.007", "Yp = 0.25254",
    ]))
    text = text.replace("task = gs", "\n".join([
        "task = match", "direction = inverse", "match_case = three-leg-00bc",
    ]))
    text = text.replace("omega = 2.0", "omega = 1.0")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    record = json.loads((out / "match.json").read_text())
    assert record["device"]["rho"] == pytest.approx(0.431, abs=5e-4)


HARDWARE_MATCH = """
[geometry]
kind = three-leg

[drive]
units = two-pi-mhz
omega = 3.0

[model]
U = -2119.880927912997
X = 0.007304906640858162
Y = -693.2874551677128
Yp = 1221.2595133726222

[task]
task = match
direction = inverse

[output]
directory = {out}
"""


def test_match_inverse_at_hardware_scale(tmp_path):
    """The targets are the forward image of V0 = 2pi 2473 MHz, Delta = 0.53 V0,
    Delta0 = -2pi 4 MHz, Omega = 2pi 3 MHz and rho = 0.87.  X is symmetric under
    Delta -> V0 - Delta and no other target reads Delta, so the inverse returns
    the smaller root, 0.47 V0.  An absolute residual tolerance rejected this
    point: at couplings of 1e4 rad/us the round trip misses by about 1e-12."""
    out = tmp_path / "hw"
    assert main(["run", "--config", _write(tmp_path, HARDWARE_MATCH.format(out=out))]) == EXIT_OK
    device = json.loads((out / "match.json").read_text())["device"]
    tp = 2.0 * math.pi
    v0 = tp * 2473.0
    want = {"v0": v0, "delta": (1.0 - 0.53) * v0, "delta0": -tp * 4.0, "omega": tp * 3.0, "rho": 0.87}
    for key, value in want.items():
        assert device[key] == pytest.approx(value, rel=1e-9), key


def test_derived_errors_are_recorded(tmp_path):
    """A chain has couplings but no effective description; the manifest says so."""
    out = tmp_path / "chain"
    text = BASE.format(out=out).replace("kind = three-leg", "kind = chain")
    text = text.replace("hamiltonian = effective", "hamiltonian = rydberg")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["derived"]) == {"V1", "R_b"}
    errors = manifest["derived_errors"]
    assert errors and errors[0].startswith("ConfigError: ")
    assert "no effective description" in errors[0]


TRIANGLE = """
[geometry]
kind = {kind}
n_rungs = 2
a_y = 5.0
a_x = 10.0
{extra}

[drive]
units = two-pi-mhz
omega = 1.0
delta = 20.0
delta0 = 0.3

[model]
hamiltonian = effective

[task]
task = match
direction = forward
match_case = clock-00bc

[output]
directory = {out}
"""


def test_in_plane_validity_flags_rung_asymmetry(tmp_path):
    """shift = 1.5 um at a_y = 5 um puts the middle atom 0.34^(1/2) a_y from
    the outer ones, so V0' = V0 / 0.34^3, about 25 V0."""
    out = tmp_path / "co"
    text = TRIANGLE.format(kind="in-plane-triangle", extra="shift = 1.5", out=out)
    assert main(["coeffs", "--config", _write(tmp_path, text)]) == EXIT_OK
    validity = json.loads((out / "coeffs.json").read_text())["validity"]
    assert validity["rung_asymmetry"] == pytest.approx(0.34**-3 - 1, rel=1e-12)
    assert validity["rung_asymmetry"] > 20


def test_clock_match_follows_prism_height(tmp_path):
    """The tall prism's targets are its own staggered chain read through the
    field map: U = 2 Delta_0 + 2 (V3 - V1) and X do not see the middle leg, Y
    and Y' do.  The clock route once kept the equilateral V2 = V3 at every height."""
    records = {}
    for name, extra in [("default", ""), ("equilateral", f"prism_height = {2.5 * math.sqrt(3)!r}"),
                        ("tall", "prism_height = 2.0")]:
        out = tmp_path / name
        text = TRIANGLE.format(kind="prism", extra=extra, out=out)
        assert main(["run", "--config", _write(tmp_path, text, f"{name}.ini")]) == EXIT_OK
        records[name] = json.loads((out / "match.json").read_text())
    cfg = parse_config(_write(tmp_path, TRIANGLE.format(kind="prism", extra="", out=tmp_path)))
    t, const_site, const_offset = match_forward(
        "clock-00bc", cfg.c6 / cfg.a_y**6, cfg.delta, cfg.delta0, cfg.omega, cfg.a_y / cfg.a_x
    )
    assert records["default"] == {
        "targets": {"U": t.U, "X": t.X, "Y": t.Y, "Yp": t.Yp},
        "const_site": const_site,
        "const_offset": const_offset,
    }
    for key, value in records["default"]["targets"].items():
        assert records["equilateral"]["targets"][key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    out = tmp_path / "coeffs"
    text = TRIANGLE.format(kind="prism", extra="prism_height = 2.0", out=out)
    text = text.replace("hamiltonian = effective", "hamiltonian = effective\nstaggered = true")
    assert main(["coeffs", "--config", _write(tmp_path, text, "coeffs.ini")]) == EXIT_OK
    c = json.loads((out / "coeffs.json").read_text())
    y = -(c["R"] + c["Rp"])
    tall = records["tall"]["targets"]
    assert tall == pytest.approx({"U": 2 * (c["D"] - y), "X": 2 * c["J"], "Y": y, "Yp": c["Rp"]}, rel=1e-12)
    default = records["default"]["targets"]
    for key in ("U", "X"):
        assert tall[key] == pytest.approx(default[key], rel=1e-12)
    for key in ("Y", "Yp"):
        assert tall[key] != pytest.approx(default[key], rel=1e-3)


def test_resonant_match_is_a_numeric_failure(tmp_path, capsys):
    """At Delta_0 = -Delta the 00BC routes' chains diverge: match exits 3, as
    coeffs does; the match once printed finite targets there."""
    for kind, match_case in (("three-leg", "three-leg-00bc"), ("prism", "clock-00bc")):
        text = TRIANGLE.format(kind=kind, extra="", out=tmp_path / kind).replace(
            "delta0 = 0.3", "delta0 = -20.0").replace("match_case = clock-00bc", f"match_case = {match_case}")
        path = _write(tmp_path, text, f"{kind}.ini")
        for command in ("match", "coeffs"):
            assert main([command, "--config", path]) == EXIT_NUMERIC
            assert "vanishing denominator: Delta+Delta_0 = 0" in capsys.readouterr().err


@pytest.mark.parametrize("match_case", ["two-leg", "three-leg-00bc", "clock-00bc"])
@pytest.mark.parametrize("kind", ["chain", "two-leg", "three-leg", "prism", "in-plane-triangle"])
def test_forward_match_route_must_fit_the_geometry(tmp_path, capsys, kind, match_case):
    """A forward match reads the configured ladder, so its route must describe
    that ladder: a two-leg ladder with the default three-leg-00bc route once
    got three-leg targets (X = 0.0265 rad/us where the two-leg route gives
    X = Omega) and exit 0."""
    text = TRIANGLE.format(kind=kind, extra="", out=tmp_path).replace(
        "match_case = clock-00bc", f"match_case = {match_case}")
    fits = {"two-leg": "two-leg", "three-leg-00bc": "three-leg", "clock-00bc": "prism"}[match_case] == kind
    assert main(["run", "--config", _write(tmp_path, text)]) == (EXIT_OK if fits else EXIT_CONFIG)
    if not fits:
        assert f"match_case = {match_case} matches a" in capsys.readouterr().err
        assert not (tmp_path / "match.json").exists()
    elif match_case == "two-leg":
        assert json.loads((tmp_path / "match.json").read_text())["targets"]["X"] == 2 * math.pi


def test_underdetermined_inverse_match_is_a_numeric_failure(tmp_path, capsys):
    """Y' = -3Y/2 fixes no (V0, rho): a matching failure, not a traceback."""
    text = TRIANGLE.format(kind="prism", extra="", out=tmp_path).replace("two-pi-mhz", "rad-per-us")
    text = text.replace("direction = forward", "direction = inverse").replace(
        "hamiltonian = effective", "hamiltonian = effective\nX = 1.0\nY = -0.2\nYp = 0.3")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_NUMERIC
    assert "underdetermined" in capsys.readouterr().err


def test_prism_resonance_is_one_sweep_error_and_a_gs_numeric_failure(tmp_path, capsys):
    """At Delta_0 = -Delta the rung's B sum diverges: the sweep records the
    point and goes on, the single run exits 3; both once ended in a traceback."""
    out = tmp_path / "sweep"
    text = TRIANGLE.format(kind="prism", extra="", out=out).replace("two-pi-mhz", "rad-per-us")
    text = text.replace("task = match", "\n".join([
        "task = sweep", "axis = delta0", "start = -21.0", "stop = -19.0", "steps = 3",
    ]))
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    lines = (out / "scan.csv").read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [float(r["delta0"]) for r in rows] == [-21.0, -20.0, -19.0]
    assert [r["error"] for r in rows] == [
        "", "ResonanceError: vanishing denominator: Delta+Delta_0 = 0", ""]
    text = text.replace("delta0 = 0.3", "delta0 = -20.0")
    assert main(["gs", "--config", _write(tmp_path, text)]) == EXIT_NUMERIC
    assert "numeric failure: vanishing denominator: Delta+Delta_0 = 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new, message", [
    ("coeffs", "case = 2", "case = 3", "case must be 1 or 2"),
    ("gs", "hamiltonian = effective", "hamiltonian = sqed-field\nX = 1.0\nY = 0.5\nflavor = X",
     "flavor must be one of"),
    ("match", "task = gs", "task = match\nmatch_case = nonsense", "match_case must be one of"),
    ("match", "task = gs", "task = match\ndirection = sideways", "direction must be forward or inverse"),
], ids=["case", "flavor", "match_case", "direction"])
def test_unknown_model_and_match_values_are_config_errors(tmp_path, capsys, command, old, new, message):
    """Values the config names but no route knows are config errors, not numeric failures."""
    text = BASE.format(out=tmp_path).replace(old, new)
    assert main([command, "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, hamiltonian, kind, old, new, message", [
    ("gs", "rydberg", "two-leg", "n_rungs = 3", "n_rungs = 0", "n_rungs must be >= 1"),
    ("gs", "effective", "three-leg", "n_rungs = 3", "n_rungs = 0", "n_rungs must be >= 1"),
    ("geom", "rydberg", "prism", "n_rungs = 3", "n_rungs = 0", "n_rungs must be >= 1"),
    ("coeffs", "effective", "in-plane-triangle", "n_rungs = 3", "n_rungs = 0", "n_rungs must be >= 1"),
    ("gs", "effective", "two-leg", "case = 2", "k_max = 0", "k_max must be >= 1"),
    ("coeffs", "effective", "two-leg", "case = 2", "k_max = 0", "k_max must be >= 1"),
    ("gs", "rydberg", "two-leg", "case = 2", "constraint = -1", "constraint must be >= 0"),
])
def test_out_of_range_integers_are_config_errors(tmp_path, capsys, command, hamiltonian, kind, old, new, message):
    """Integer keys below their range are config errors (exit 2), not numeric failures."""
    text = BASE.format(out=tmp_path).replace(old, new).replace("kind = three-leg", f"kind = {kind}")
    text = text.replace("hamiltonian = effective", f"hamiltonian = {hamiltonian}")
    assert main([command, "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


TWO_LEG_RYDBERG = BASE.replace("kind = three-leg", "kind = two-leg").replace(
    "hamiltonian = effective", "hamiltonian = rydberg")


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_nonpositive_range_cutoff_is_a_config_error(tmp_path, capsys, cutoff):
    """A cutoff <= 0 would drop every pair and still exit 0 with the energy of
    free atoms."""
    text = TWO_LEG_RYDBERG.format(out=tmp_path).replace("case = 2", f"case = 2\nrange_cutoff = {cutoff}")
    assert main(["gs", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "range_cutoff must be positive" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_nonpositive_c6_leaves_no_blockade_radius(tmp_path):
    """An attractive c6 still runs, but it has no blockade radius: the manifest
    records the error instead of a complex R_b."""
    out = tmp_path / "attractive"
    text = TWO_LEG_RYDBERG.format(out=out).replace("delta0 = 0.2", "delta0 = 0.2\nc6 = -1000")
    assert main(["gs", "--config", _write(tmp_path, text)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert "R_b" not in manifest["derived"] and manifest["derived"]["V0"] < 0
    assert manifest["derived_errors"] == [f"GeometryError: c6 and omega must be positive, got "
                                          f"c6={manifest['config']['c6']}, omega={manifest['config']['omega']}"]


def test_effective_chain_without_spacings_is_a_config_error(tmp_path, capsys):
    """The effective chain reads its couplings off the ladder, as the Rydberg model does."""
    text = BASE.format(out=tmp_path).replace("a_y = 4.0\n", "").replace("rho = 0.3333333333333333\n", "")
    assert main(["gs", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "a_x and a_y (or rho) must be positive" in capsys.readouterr().err


def test_inverse_match_needs_no_geometry(tmp_path):
    """Inverse matching returns the spacings; it reads none, whatever [model] says."""
    out = tmp_path / "inv"
    text = "\n".join(["[model]", "X = 1.1", "Y = -8.0", "Yp = 12.0", "U = -4.0",
                      "[task]", "task = match", "direction = inverse", "match_case = two-leg",
                      "[output]", f"directory = {out}", ""])
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    assert json.loads((out / "match.json").read_text())["device"]["rho"] > 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    path = _write(tmp_path, BASE.format(out=tmp_path))
    assert main(["run", "--config", path, "--threads", threads]) == EXIT_CONFIG
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


TARGET_CHAIN = """
[geometry]
n_rungs = {n_rungs}

[model]
hamiltonian = {model}
U = 0.3
X = 1.0
Y = 0.5
Yp = 0.5

[task]
task = {task}
initial = index:0
t_total = 0.1
compare_models = sqed-field,{model}
compare_task = evolve

[output]
directory = {out}
"""


@pytest.mark.parametrize("model", ["cahm", "sqed-field"])
def test_target_chain_without_geometry_records_no_derived_error(tmp_path, model):
    """A target chain reads no ladder, so there are no geometry coefficients to
    record and none to fail on; they once failed on the zero spacings."""
    out = tmp_path / model
    text = TARGET_CHAIN.format(n_rungs=4, model=model, task="gs", out=out)
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived_errors"] == []
    assert "coefficients" not in manifest["derived"]


@pytest.mark.parametrize("task", ["evolve", "compare"])
def test_evolving_the_charge_representation_is_a_config_error(tmp_path, capsys, task):
    """Evolution records site profiles, which the charge representation has not;
    the run once failed after the propagation with exit 3."""
    text = TARGET_CHAIN.format(n_rungs=3, model="sqed-charge", task=task, out=tmp_path)
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "hamiltonian sqed-charge" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_charge_representation_gs_and_spectrum_match_its_dense_eigenvalues(tmp_path):
    """The charge representation built through the command line, solved by ``gs``
    and by ``spectrum``, against numpy's ``eigh`` of the same model built directly."""
    h, _ = sqed_charge_hamiltonian(TargetCouplings(U=0.3, X=1.0, Y=0.5, Yp=0.5), 3)
    dense = h.matrix.toarray()
    w = np.linalg.eigvalsh(dense)
    norm1 = np.abs(dense).sum(axis=0).max()
    out = {task: tmp_path / task for task in ("gs", "spectrum")}
    for task, directory in out.items():
        text = TARGET_CHAIN.format(n_rungs=3, model="sqed-charge", task=task, out=directory)
        assert main(["run", "--config", _write(tmp_path, text, f"{task}.ini")]) == EXIT_OK
    header, row = (line.split(",") for line in (out["gs"] / "gs.csv").read_text().strip().split("\n"))
    assert header == ["E0", "matvecs", "residual"]
    assert float(row[2]) <= RESIDUAL_TOL * norm1
    assert abs(float(row[0]) - w[0]) <= RESIDUAL_TOL * norm1   # within the residual of an eigenvalue
    lines = (out["spectrum"] / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "level,energy,residual"
    levels = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert len(levels) == RunConfig().k
    np.testing.assert_array_equal(levels[:, 0], np.arange(len(levels)))
    np.testing.assert_allclose(levels[:, 1], w[:len(levels)], rtol=0, atol=1e-12 * norm1)
    assert levels[:, 2].max() <= 1e-12 * norm1


@pytest.mark.parametrize("n_rungs", [1, 2])
def test_ring_of_fewer_than_three_rungs_is_a_config_error(tmp_path, capsys, n_rungs):
    text = BASE.format(out=tmp_path).replace("n_rungs = 3", f"n_rungs = {n_rungs}").replace("bc = obc", "bc = pbc")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_CONFIG
    assert "n_rungs >= 3" in capsys.readouterr().err
    text = text.replace("bc = pbc", "bc = obc")
    assert main(["run", "--config", _write(tmp_path, text)]) == EXIT_OK
