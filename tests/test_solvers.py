"""Eigensolvers and Krylov propagation."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rydladder import (
    ConvergenceError,
    EffectiveCoefficients,
    FlipOperator,
    LadderKind,
    LadderSpec,
    RungConstraint,
    SolverError,
    SparseOperator,
    StateDictionary,
    build_ladder,
    coeffs_three_leg,
    coeffs_two_leg,
    dense_eigs,
    effective_spin1_hamiltonian,
    enumerate_rydberg,
    ground_state,
    krylov_evolve,
    project_to_spin1,
    rydberg_hamiltonian,
    sector_eigenstates,
    sector_ground_state,
)
from rydladder import solvers
from rydladder.basis import rung_permutations, rung_symmetries
from rydladder.solvers import (DENSE_DIM_LIMIT, KRYLOV_DIM, KRYLOV_TOL, RESIDUAL_TOL, SYMMETRY_TOL, normalize,
                               symmetry_sectors)

from references import trajectory


def _random_operator(n, seed, density=0.05):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=density, random_state=rng, format="csr")
    m = m + m.T + sp.diags(rng.standard_normal(n))
    return SparseOperator(m.tocsr())


def _physical_instances():
    """Small Hamiltonians with realistic structure."""
    out = []
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 4, 6.0, 3.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    out.append(rydberg_hamiltonian(atoms, 1.3, 0.8, 500.0, basis))
    coeffs = EffectiveCoefficients(D=-1.0, R=0.4, Rp=1.2, J=0.6)
    out.append(effective_spin1_hamiltonian(coeffs, 5))
    return out


def test_dense_eigs_residuals_small():
    h = _random_operator(100, 0)
    res = dense_eigs(h, k=5)
    assert np.all(res.residuals < 1e-10)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)


def test_dense_limit_enforced():
    h = _random_operator(10, 0)
    h_big = SparseOperator(sp.eye(DENSE_DIM_LIMIT + 1, format="csr"))
    with pytest.raises(SolverError):
        dense_eigs(h_big)
    assert dense_eigs(h, k=1).eigenvalues.shape == (1,)


@pytest.mark.parametrize("k", [1, 5])
def test_dense_eigs_subset_matches_full_eigh(k):
    """k < dim computes only k eigenpairs; they are the lowest k of the full eigh."""
    h = _random_operator(100, 1)
    full_vals, full_vecs = np.linalg.eigh(h.matrix.toarray())
    res = dense_eigs(h, k=k)
    assert res.eigenvalues.shape == (k,)
    np.testing.assert_allclose(res.eigenvalues, full_vals[:k], rtol=0, atol=1e-12)
    assert res.eigenvectors.shape == (h.dim, k)
    overlaps = np.abs(np.sum(res.eigenvectors * full_vecs[:, :k], axis=0))
    np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)
    direct = np.linalg.norm(h.matrix.toarray() @ res.eigenvectors - res.eigenvectors * res.eigenvalues, axis=0)
    np.testing.assert_allclose(res.residuals, direct, rtol=0, atol=1e-13)
    assert np.all(res.residuals <= 1e-10 * np.abs(h.matrix.toarray()).sum(axis=0).max())


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_matches_dense_random(seed):
    h = _random_operator(300, seed)
    e_dense = dense_eigs(h, k=1).eigenvalues[0]
    e_lan, psi, _ = ground_state(h, seed=seed)
    assert e_lan == pytest.approx(e_dense, abs=1e-9)
    # the certified bound: true residual <= RESIDUAL_TOL * ||H||_1 = 1e-10 ||H||_1
    assert np.linalg.norm(h.matrix @ psi - e_lan * psi) <= 1e-10 * spla.norm(h.matrix, 1)


def test_lanczos_matches_dense_physical():
    for h in _physical_instances():
        e_dense = dense_eigs(h, k=1).eigenvalues[0]
        e_lan, _, _ = ground_state(h)
        assert e_lan == pytest.approx(e_dense, abs=1e-9 * max(1.0, abs(e_dense)))


def test_lanczos_convergence_error_carries_estimate():
    h = _random_operator(200, 5)
    with pytest.raises(ConvergenceError) as exc:
        ground_state(h, max_iter=3)
    assert exc.value.best_estimate is not None


def test_ground_state_dispatch():
    h = _random_operator(50, 1)
    e, psi, _ = ground_state(h)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert e == pytest.approx(dense_eigs(h, k=1).eigenvalues[0], abs=1e-10)


def _two_leg(n_rungs=6, omega=0.2):
    """Two-leg ladder with criterion 05's couplings (rho = 0.5, Delta = 2pi), by default
    at its hard point Omega = 0.2 * 2pi: 12 atoms and dim 4096, or 14 atoms and dim
    16384 at 7 rungs."""
    tp = 2 * math.pi
    c6, v0 = 858386.0 * tp, 1000.0 * tp
    a_y = (c6 / v0) ** (1 / 6)
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, n_rungs, 2 * a_y, a_y))
    basis = enumerate_rydberg(atoms.n_atoms)
    return rydberg_hamiltonian(atoms, omega * tp, 1.0 * tp, c6, basis)


@pytest.fixture(scope="module")
def two_leg_4096():
    """``_two_leg()`` and its dense ground-state energy."""
    h = _two_leg()
    assert h.dim == DENSE_DIM_LIMIT
    return h, dense_eigs(h, k=1).eigenvalues[0]


@pytest.mark.parametrize("seed", range(5))
def test_ground_state_certified_at_dense_limit(two_leg_4096, seed):
    h, e_dense = two_leg_4096
    e, psi, _ = ground_state(h, seed=seed)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= 1e-10 * spla.norm(h.matrix, 1)
    assert e == pytest.approx(e_dense, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_ground_state_within_small_product_budget(two_leg_4096, seed):
    """The Jacobi preconditioner removes the blockade scale: 200 products with H
    suffice where unpreconditioned ARPACK needed more than 1000."""
    h, e_dense = two_leg_4096
    e, psi, _ = ground_state(h, max_iter=200, seed=seed)
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= 1e-10 * spla.norm(h.matrix, 1)
    assert e == pytest.approx(e_dense, rel=1e-9)


def test_complete_basis_solves_leave_the_csr_unbuilt(two_leg_4096):
    """ground_state and krylov_evolve read the complete-basis operator only through
    its diagonal, its products, its 1-norm and its floor, so its CSR is never
    assembled.  The energy equals dense eigh of that CSR, assembled afterwards,
    within the certified residual."""
    _, e_dense = two_leg_4096
    h = _two_leg()
    e, psi, _ = ground_state(h)
    _, states, report = trajectory(h, psi, 0.1, 0.05)
    assert "matrix" not in vars(h)
    residual = np.linalg.norm(h.matrix @ psi - e * psi)
    assert residual <= RESIDUAL_TOL * spla.norm(h.matrix, 1)
    assert -1e-12 * abs(e_dense) <= e - e_dense <= residual
    # an eigenstate only turns its phase
    assert abs(np.vdot(psi, states[-1])) == pytest.approx(1.0, abs=1e-9 + report["error_bound"])


TP = 2 * math.pi
SWEEP_DRIVE = (40 * TP, 20 * TP, 0.2 * TP, 0.5 * TP, 1 / 3)   # V0, Delta, delta0, Omega, rho


def _sweep_chain(n_sites):
    """The ``sweep-dense`` benchmark's effective three-leg chain (case 2) at its
    first drive point, ``SWEEP_DRIVE``."""
    return effective_spin1_hamiltonian(coeffs_three_leg(2, *SWEEP_DRIVE), n_sites)


def _capped_three_leg():
    """A four-rung three-leg ladder on the one-excitation-per-rung basis: d = 4 patterns."""
    atoms = build_ladder(LadderSpec(LadderKind.THREE_LEG, 4, 3.0, 1.0), delta0=0.2)
    return rydberg_hamiltonian(atoms, 1.3, 20.0, 40.0, enumerate_rydberg(atoms.n_atoms, RungConstraint(3, 1)))


@pytest.mark.parametrize("model", [_capped_three_leg, lambda: _sweep_chain(8)], ids=["rung-capped", "spin-1-chain"])
def test_product_basis_solves_leave_the_csr_unbuilt(model):
    """Rung patterns and spin-1 sites, like the atoms of the complete basis above,
    are solved without their CSR; assembled afterwards, the CSR certifies the result."""
    h = model()
    e, psi, _ = ground_state(h)
    assert "matrix" not in vars(h)
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= RESIDUAL_TOL * spla.norm(h.matrix, 1)


@pytest.mark.parametrize("n_sites", [1, 4, 7, 10])
def test_chain_energy_equals_the_csr_path(n_sites):
    """The matrix-free chain gives the ground energy of the same chain's CSR to 1e-12."""
    h = _sweep_chain(n_sites)
    e, _, _ = ground_state(h)
    e_csr, _, _ = ground_state(SparseOperator(h.matrix))
    assert e == pytest.approx(e_csr, rel=1e-12, abs=0)


def test_fourteen_site_chain_is_certified_under_a_gigabyte():
    """The N_s = 14 chain (dim 3^14 = 4782969), whose CSR would take several GB, is
    certified in a fresh process whose peak RSS stays below 1 GB."""
    code = f"""
import resource
from rydladder import coeffs_three_leg, effective_spin1_hamiltonian, ground_state
e, psi, report = ground_state(effective_spin1_hamiltonian(coeffs_three_leg(2, *{SWEEP_DRIVE!r}), 14))
print(report["residual"] <= report["bound"], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    src = str(Path(solvers.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    certified, peak_kb = out.stdout.split()
    assert certified == "True"
    assert int(peak_kb) < 1024**2   # ru_maxrss is in kB on Linux


def test_ground_state_strongly_driven_effective_chain():
    """Criterion 05's 8-site effective chain at rho = 0.5, Omega = 5 x 2pi (dim 6561),
    against ARPACK.  A preconditioner floor of the largest off-diagonal row sum
    stalled here at 8.6x the residual bound."""
    tp = 2 * math.pi
    coeffs = coeffs_two_leg(1000.0 * tp, 1.0 * tp, 5.0 * tp, 0.5)
    h = effective_spin1_hamiltonian(coeffs, 8)
    e, psi, _ = ground_state(h)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= 1e-10 * spla.norm(h.matrix, 1)
    e_ref = spla.eigsh(h.matrix, k=1, which="SA", tol=1e-14)[0][0]
    assert e == pytest.approx(e_ref, rel=1e-9)


def test_ground_state_without_drive_is_the_lowest_configuration():
    """At Omega = 0 H is diagonal and the preconditioner has no off-diagonal floor."""
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 3, 6.0, 3.0))
    h = rydberg_hamiltonian(atoms, 0.0, 0.8, 500.0,
                            enumerate_rydberg(atoms.n_atoms))
    assert sp.triu(h.matrix, 1).nnz == 0
    e, psi, _ = ground_state(h)
    assert e == h.matrix.diagonal().min()
    assert np.linalg.norm(h.matrix @ psi - e * psi) == 0.0


def test_ground_state_rejects_an_uncertified_vector(monkeypatch):
    """The exact residual check, not the LOPCG loop's own stop, decides what is returned."""
    h = _random_operator(300, 0)
    e_dense = dense_eigs(h, k=1).eigenvalues[0]
    lopcg = solvers._lopcg

    def perturbed(*args, **kwargs):
        x, products, iterations = lopcg(*args, **kwargs)
        return x + 1e-4 * np.random.default_rng(0).standard_normal(x.shape), products, iterations

    monkeypatch.setattr(solvers, "_lopcg", perturbed)
    with pytest.raises(ConvergenceError, match="true residual") as exc:
        ground_state(h)
    assert exc.value.best_estimate >= e_dense - 1e-12
    assert exc.value.best_estimate == pytest.approx(e_dense, abs=1e-3)


def test_ground_state_is_bitwise_deterministic_for_a_seed(two_leg_4096):
    h, _ = two_leg_4096
    e1, psi1, report1 = ground_state(h, seed=3)
    e2, psi2, report2 = ground_state(h, seed=3)
    assert e1 == e2
    assert psi1.tobytes() == psi2.tobytes()
    assert report1 == report2


def test_ground_state_report_and_product_count(two_leg_4096):
    """At most 46 products with H (the certificate's included) on the two-leg ladder
    at 12 and 14 atoms; the report's residual and bound are those of the assembled CSR."""
    for h in (two_leg_4096[0], _two_leg(7)):
        e, psi, report = ground_state(h)
        assert set(report) == {"products", "iterations", "residual", "bound"}
        assert report["products"] <= 46
        assert report["iterations"] == report["products"] - 2   # the start's and the certificate's products
        residual = np.linalg.norm(h.matrix @ psi - e * psi)
        assert report["residual"] == pytest.approx(residual, rel=1e-6, abs=1e-3 * report["bound"])
        assert report["bound"] == pytest.approx(RESIDUAL_TOL * spla.norm(h.matrix, 1), rel=1e-14)
        assert residual <= report["bound"]


def test_ground_state_drops_p_from_a_degenerate_basis(monkeypatch):
    """At Omega = 1e-7 x 2pi the blockade spread is about 1e10 |Omega|: the Jacobi
    preconditioner is nearly exact and p falls into span{x, w}.  The loop drops p, its
    Rayleigh-Ritz runs on 2 rows after the first step, and the certificate still holds."""
    h = _two_leg(5, omega=1e-7)
    ref = dense_eigs(h, k=1)
    eigh, sizes = np.linalg.eigh, []

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    e, psi, report = ground_state(h)
    monkeypatch.undo()
    assert report["iterations"] == len(sizes) >= 2
    assert sizes[0] == 2 and 2 in sizes[1:]
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= RESIDUAL_TOL * spla.norm(h.matrix, 1)
    assert e == pytest.approx(ref.eigenvalues[0], rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ground_state_tiny(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    h = SparseOperator(sp.csr_matrix(m + m.T))
    ref = dense_eigs(h, k=1)
    e, psi, _ = ground_state(h)
    assert e == pytest.approx(ref.eigenvalues[0], abs=1e-12)
    assert abs(psi @ ref.eigenvectors[:, 0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2187, 16384])
def test_dot_matches_blas_on_contiguous_and_strided_rows(n):
    """``_dot`` gives np.dot and, as the root of a self-product, np.linalg.norm to
    1e-13 relative, on the contiguous rows of a (2, 3, n) array and on strided rows.
    A dot product of signed entries is relative to ||a|| ||b||, the scale of its rounding."""
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal((2, 3, n)), rng.standard_normal((2, 3, 2 * n))[..., ::2]):
        for a, b in ((v[0, 0], v[1, 0]), (v[0, 2], v[1, 1])):
            assert abs(solvers._dot(a, b) - np.dot(a, b)) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)
            assert math.sqrt(solvers._dot(a, a)) == pytest.approx(np.linalg.norm(a), rel=1e-13, abs=0)


def test_ground_state_takes_no_blas_level_one_reduction(monkeypatch):
    """numpy's OpenBLAS runs ddot on two threads past 10000 entries, and waking them
    between the loop's matmuls cost more than the sums.  With np.linalg.norm, np.dot
    and np.vdot raising on 1-D inputs longer than 10000, the 14-atom two-leg solve
    (dim 16384) still certifies its ground state.  Every reduction of length dim is a
    ``_dot``, and every ``_dot`` an einsum: the start's norm, two a pass of the loop
    (the Rayleigh quotient and the residual norm) and the certificate's three."""
    h = _two_leg(7)
    assert isinstance(h, FlipOperator) and h.dim == 16384

    def guarded(f):
        def call(*args, **kwargs):
            if any(np.ndim(a) == 1 and np.size(a) > 10000 for a in args):
                raise AssertionError(f"{f.__name__} on a 1-D input of length > 10000")
            return f(*args, **kwargs)
        return call

    calls = {"_dot": 0, "einsum": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += name == "_dot" or args[0] == "i,i"   # not the operator's own einsums
            return f(*args, **kwargs)
        return call

    for module, name in ((np.linalg, "norm"), (np, "dot"), (np, "vdot")):
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    monkeypatch.setattr(solvers, "_dot", counted("_dot", solvers._dot))
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    e, psi, report = ground_state(h)
    monkeypatch.undo()
    assert report["residual"] <= report["bound"]
    assert np.linalg.norm(h.matrix @ psi - e * psi) <= RESIDUAL_TOL * spla.norm(h.matrix, 1)
    assert calls["_dot"] == 1 + 2 * (report["iterations"] + 1) + 3
    assert calls["einsum"] == calls["_dot"]


def test_ground_state_peak_is_nine_vectors_beyond_the_operator():
    """At dim 2^16 the solve allocates at most the loop's six rows, the preconditioner
    and one product's output and scratch: nine vectors of length dim, ten with the
    diagonal the operator holds.  The start vector is built in the loop's first row."""
    h = _two_leg(8)
    assert h.dim == 2**16
    tracemalloc.start()
    try:
        ground_state(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * h.diagonal().nbytes


def test_threaded_solves_leave_the_warning_filters_alone():
    """Two threads solving at once (a sweep with threads = 2) leave warnings.filters
    as they were, so the module's own warnings, such as an ambiguous band, still show."""
    h = _random_operator(100, 0)
    before = list(warnings.filters)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(20):
            barrier = threading.Barrier(2)
            list(pool.map(lambda _: (barrier.wait(), ground_state(h)), range(2)))
            assert warnings.filters == before
    # weak interactions, strong drive: every eigenstate leaves the one-hot sector
    atoms = build_ladder(LadderSpec(LadderKind.THREE_LEG, 2, 2.0, 2.0))
    basis = enumerate_rydberg(atoms.n_atoms)
    h = rydberg_hamiltonian(atoms, 10.0, 0.0, 40.0, basis)
    with warnings.catch_warnings(record=True) as caught:   # records under the filters in force
        sector_eigenstates(h, basis, StateDictionary.for_kind(LadderKind.THREE_LEG), 9)
    assert [str(w.message) for w in caught] == ["spin-1 band is ambiguous: all sector overlaps below 0.5"]


def test_importing_rydladder_leaves_the_warning_filters_alone():
    """In a fresh interpreter, with numpy and scipy (which add filters of their own)
    imported first, importing rydladder adds no warning filter."""
    code = """
import warnings
import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg
before = list(warnings.filters)
import rydladder
print(warnings.filters == before)
"""
    src = str(Path(solvers.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"]


def test_normalize_zero_vector():
    with pytest.raises(ValueError):
        normalize(np.zeros(4))


def test_krylov_step_matches_expm():
    h = _random_operator(60, 2)
    psi = normalize(np.random.default_rng(0).standard_normal(60).astype(complex))
    exact = sla.expm(-1j * 0.05 * h.matrix.toarray()) @ psi
    approx = trajectory(h, psi, 0.05, 0.05)[1][-1]
    assert np.linalg.norm(exact - approx) < 1e-10


def _nine_atom_ladder():
    """Nine-atom three-leg ladder at criterion 06's drive (||H|| ~ 800 rad/us), in the spin state 000."""
    tp = 2 * math.pi
    atoms = build_ladder(LadderSpec(LadderKind.THREE_LEG, 3, 3.0, 1.0), delta0=0.2 * tp)
    basis = enumerate_rydberg(atoms.n_atoms)
    h = rydberg_hamiltonian(atoms, 2 * tp, 20 * tp, 40 * tp, basis)
    pattern = StateDictionary.for_kind(atoms.spec.kind).spin_to_pattern[0]
    psi0 = np.zeros(h.dim, dtype=complex)
    psi0[basis.index_of(sum(pattern << (3 * s) for s in range(3)))] = 1.0
    return h, psi0


def _two_level_atom(omega):
    atoms = build_ladder(LadderSpec(LadderKind.CHAIN, 1, 5.0, 5.0))
    return rydberg_hamiltonian(atoms, omega, 0.9, 100.0, enumerate_rydberg(1))


def _random_state(dim):
    return normalize(np.random.default_rng(1).standard_normal(dim) + 1j)


@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_evolve_accurate_at_large_step(dt):
    """A step that keeps the norm but not the state is caught against expm,
    on the nine-atom ladder evolved to t = 1 us."""
    h, psi0 = _nine_atom_ladder()
    exact = sla.expm(-1j * h.matrix.toarray()) @ psi0
    _, states, _ = trajectory(h, psi0, 1.0, dt)
    assert np.linalg.norm(states[-1] - exact) <= 1e-10


def test_krylov_unitarity_and_energy_conservation():
    for h in _physical_instances():
        psi0 = np.zeros(h.dim, dtype=complex)
        psi0[0] = 1.0
        times, states, _ = trajectory(h, psi0, t_total=0.5, dt=0.01)
        e0 = np.real(np.vdot(states[0], h.matrix @ states[0]))
        for k in range(1, len(times)):
            assert abs(np.linalg.norm(states[k]) - 1.0) < 1e-10 * k
        e_final = np.real(np.vdot(states[-1], h.matrix @ states[-1]))
        assert e_final == pytest.approx(e0, rel=1e-8)


def test_krylov_time_reversal():
    h = _physical_instances()[1]
    psi0 = np.zeros(h.dim, dtype=complex)
    psi0[h.dim // 3] = 1.0
    _, fwd, _ = trajectory(h, psi0, 0.3, 0.01)
    # propagate backwards by conjugation: exp(+iHt) psi = conj(exp(-iHt) conj(psi))
    _, back, _ = trajectory(h, np.conj(fwd[-1]), 0.3, 0.01)
    assert np.linalg.norm(np.conj(back[-1]) - psi0) < 1e-8


def test_two_level_rabi_closed_form():
    """Driven two-level atom: P_r(t) = (O^2/W^2) sin^2(W t / 2), W^2 = O^2 + D^2."""
    omega, delta = 1.7, 0.9
    atoms = build_ladder(LadderSpec(LadderKind.CHAIN, 1, 5.0, 5.0))
    basis = enumerate_rydberg(1)
    h = rydberg_hamiltonian(atoms, omega, delta, 100.0, basis)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    times, states, _ = trajectory(h, psi0, 2.0, 0.001)
    w = math.sqrt(omega**2 + delta**2)
    for t, psi in zip(times[::200], states[::200]):
        p_r = abs(psi[1]) ** 2
        assert p_r == pytest.approx((omega / w) ** 2 * math.sin(w * t / 2) ** 2, abs=1e-8)


@pytest.mark.parametrize("case, t_total, dt", [
    ("random", 0.5, 0.05), ("random", 20.0, 2.0), ("random", 30.0, 10.0),
    ("ladder", 1.0, 0.05), ("ladder", 1.0, 0.2), ("ladder", 3.0, 1.0),
    ("dim-1", 2.0, 0.1), ("two-level", 2.0, 0.01), ("omega-0", 1.0, 0.01),
])
def test_evolve_error_within_its_bound(case, t_total, dt):
    """Every sample against an eigendecomposition: its error is at most the
    summed defect bound plus rounding, which the bound leaves out (1e-12).
    At dt = 1 a Lanczos window spans less than a sample interval, so windows
    end between samples; a breakdown (dim 1, the two-level atom, a basis state
    of a diagonal H) ends the Lanczos run early and covers the rest at once."""
    if case == "random":
        h = _random_operator(60, 2)
        psi = _random_state(60)
    elif case == "ladder":
        h, psi = _nine_atom_ladder()
    elif case == "dim-1":
        h = SparseOperator(sp.csr_matrix([[3.7]]))
        psi = np.array([0.6 + 0.8j])
    else:
        h = _two_level_atom(1.7 if case == "two-level" else 0.0)
        psi = np.array([1.0, 0.0])
    times, states, report = trajectory(h, psi, t_total, dt)
    vals, vecs = np.linalg.eigh(h.matrix.toarray())
    amplitudes = vecs.T @ normalize(psi.astype(complex))
    errors = [np.linalg.norm(state - vecs @ (np.exp(-1j * vals * t) * amplitudes))
              for t, state in zip(times, states)]
    assert max(errors) <= report["error_bound"] + 1e-12
    assert report["error_bound"] <= report["windows"] * KRYLOV_TOL
    assert report["matvecs"] <= report["windows"] * min(KRYLOV_DIM, h.dim)
    if h.dim <= 2:
        assert report["windows"] == 1
    if case == "ladder" and dt == 1.0:
        assert report["windows"] > len(times) - 1


def test_evolve_advances_where_the_first_grid_point_fails():
    """A 1x1 operator has one Ritz value, so the defect integrand is constant
    and the grid's first point can exceed KRYLOV_TOL; the window then runs to
    KRYLOV_TOL / (beta_0 beta_m) instead.  Rounding of the phase h t (about
    eps |h| t, in the reference as well) lies outside the bound."""
    h, t_total = 1e4, 10.0
    psi = np.array([1.0 + 1j * math.sqrt(2)]) / math.sqrt(3)
    times, states, report = trajectory(SparseOperator(sp.csr_matrix([[h]])), psi, t_total, 0.1)
    assert report["windows"] > 1
    rounding = 8 * np.finfo(float).eps * h * t_total
    assert np.abs(states[:, 0] - np.exp(-1j * h * times) * psi[0]).max() <= report["error_bound"] + rounding


def test_evolve_above_exact_norm_limit_matches_expm():
    """A sampling interval of 10 time units, ||H dt||_1 far above one, against expm."""
    h = _random_operator(60, 2)
    dt = 10.0
    psi = normalize(np.random.default_rng(1).standard_normal(60) + 1j)
    times, states, _ = trajectory(h, psi, 3 * dt, dt)
    for t, state in zip(times, states):
        exact = sla.expm(-1j * t * h.matrix.toarray()) @ psi
        assert np.linalg.norm(state - exact) <= 1e-10


def test_krylov_rejects_bad_dt():
    h = _random_operator(10, 0)
    with pytest.raises(ValueError):
        krylov_evolve(h, np.ones(10, dtype=complex), 1.0, 0.0)
    with pytest.raises(ValueError, match="t_total >= 0"):
        krylov_evolve(h, np.ones(10, dtype=complex), -1.0, 0.1)


def test_krylov_rejects_t_total_off_the_dt_grid():
    """t_total must be a whole number of dt steps: 1.0 at dt = 0.6 ran to 1.2, and
    at dt = 0.3 stopped at 0.9; 1.0 / 0.002 = 500.00000000000006 is whole."""
    h = _random_operator(10, 0)
    for dt in (0.6, 0.3):
        with pytest.raises(ValueError, match="whole number of dt"):
            krylov_evolve(h, np.ones(10, dtype=complex), 1.0, dt)
    times, _, _ = trajectory(h, np.ones(10, dtype=complex), 1.0, 0.002)
    np.testing.assert_array_equal(times, np.arange(501) * 0.002)


class _CountedOperator:
    """An operator that counts its products with vectors."""

    def __init__(self, h):
        self.h, self.dim, self.products = h, h.dim, 0

    def __matmul__(self, x):
        self.products += 1
        return self.h @ x


def test_krylov_windows_contract():
    """One item per window after psi alone at t = 0: the times concatenate to the
    grid, each block holds one row per time, and the running report never
    decreases.  The generator is lazy: the first item takes no product with H,
    the first window at most KRYLOV_DIM."""
    h, psi0 = _nine_atom_ladder()
    items = list(krylov_evolve(h, psi0, 1.0, 0.05))
    np.testing.assert_array_equal(np.concatenate([t for t, _, _ in items]), np.arange(21) * 0.05)
    np.testing.assert_array_equal(items[0][1], normalize(psi0)[None])
    assert all(states.shape == (len(t), h.dim) for t, states, _ in items)
    reports = [report for _, _, report in items]
    assert reports[0] == {"windows": 0, "matvecs": 0, "error_bound": 0.0}
    assert reports[-1]["windows"] == len(items) - 1 > 1
    for key in ("windows", "matvecs", "error_bound"):
        assert all(a[key] <= b[key] for a, b in zip(reports, reports[1:]))
    counted = _CountedOperator(h)
    windows = krylov_evolve(counted, psi0, 1.0, 0.05)
    next(windows)
    assert counted.products == 0
    _, _, report = next(windows)
    assert counted.products == report["matvecs"] <= KRYLOV_DIM


def test_sector_eigenstates_band():
    atoms = build_ladder(LadderSpec(LadderKind.TWO_LEG, 3, 6.0, 2.5))
    basis = enumerate_rydberg(atoms.n_atoms)
    h = rydberg_hamiltonian(atoms, 0.4, 1.0, 2000.0, basis)
    d = StateDictionary.for_kind(LadderKind.TWO_LEG)
    res, overlaps, band = sector_eigenstates(h, basis, d, 27)
    assert len(band) == 27
    assert np.all(overlaps[band] > 0.9)  # deep blockade: clean spin-1 band
    assert np.all(np.diff(band) > 0)


def _ladder_case(kind, n_rungs, delta0=0.0, shift=None, max_excited=None):
    atoms = build_ladder(LadderSpec(LadderKind(kind), n_rungs, 3.0, 1.0, shift), delta0=delta0)
    d = StateDictionary.for_kind(kind)
    constraint = None if max_excited is None else RungConstraint(d.n_legs, max_excited)
    basis = enumerate_rydberg(atoms.n_atoms, constraint)
    h = rydberg_hamiltonian(atoms, 2.0, 20.0, 40.0, basis)
    return h, basis, d


def _perturbed_two_leg():
    h, basis, d = _ladder_case("two-leg", 4)
    noise = np.random.default_rng(7).uniform(-1.0, 1.0, h.dim)
    return SparseOperator((h.matrix + sp.diags(noise)).tocsr()), basis, d


SECTOR_CASES = {
    "three-leg-delta0": (lambda: _ladder_case("three-leg", 3, delta0=0.2), ("leg", "mirror")),
    "prism": (lambda: _ladder_case("prism", 3), ("leg", "mirror")),
    "two-leg": (lambda: _ladder_case("two-leg", 4), ("leg", "mirror")),
    # the middle leg is shifted along x, so reversing the rungs is no symmetry
    "in-plane-shift": (lambda: _ladder_case("in-plane-triangle", 3, shift=0.3), ("leg",)),
    "rung-constrained": (lambda: _ladder_case("three-leg", 4, delta0=0.2, max_excited=1), ("leg", "mirror")),
    "random-diagonal": (_perturbed_two_leg, ()),
}


@pytest.mark.parametrize("case", SECTOR_CASES)
def test_sector_eigenstates_match_full_eigh(case):
    """Block-by-block spectrum against numpy's eigh of the whole dense H."""
    make, symmetries = SECTOR_CASES[case]
    h, basis, d = make()
    k = 3 ** (basis.n_atoms // d.n_legs)
    res, overlaps, band = sector_eigenstates(h, basis, d, k)
    assert res.symmetries == symmetries
    assert len(res.sectors) == 2 ** len(symmetries)
    assert sum(res.sectors) == h.dim

    w, v = np.linalg.eigh(h.matrix.toarray())
    np.testing.assert_allclose(res.eigenvalues, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())
    sector, _ = project_to_spin1(basis, d)
    ref_overlaps = np.sum(v[sector] ** 2, axis=0)
    ref_band = np.sort(np.argsort(-ref_overlaps, kind="stable")[:k])
    np.testing.assert_array_equal(band, ref_band)
    np.testing.assert_allclose(overlaps[band], ref_overlaps[band], rtol=0, atol=1e-8)
    bound = RESIDUAL_TOL * spla.norm(h.matrix, 1)
    assert res.residuals.max() <= bound
    # only the band's eigenvectors are returned, orthonormal and certified against the dense H
    x = res.eigenvectors
    assert x.shape == (h.dim, k)
    assert np.abs(x.T @ x - np.eye(k)).max() < 1e-10
    assert np.linalg.norm(h.matrix.toarray() @ x - x * res.eigenvalues[band], axis=0).max() <= bound


def test_sector_residuals_bound_an_imperfect_symmetry():
    """A diagonal term on one state but not on its leg image, half the symmetry
    tolerance, keeps both symmetries.  The residual reported for each band state
    still bounds the full-space residual of the vector returned for it; the
    term, not rounding, sets that residual."""
    h, basis, d = SECTOR_CASES["two-leg"][0]()
    bump = np.zeros(h.dim)
    bump[basis.index_of(0b01)] = 0.5 * SYMMETRY_TOL * spla.norm(h.matrix, 1)   # not on its image 0b10
    h = SparseOperator((h.matrix + sp.diags(bump)).tocsr())
    res, _, band = sector_eigenstates(h, basis, d, 3 ** (basis.n_atoms // d.n_legs))
    assert res.symmetries == ("leg", "mirror")
    x = res.eigenvectors
    full = np.linalg.norm(h.matrix.toarray() @ x - x * res.eigenvalues[band], axis=0)
    assert full.max() > 0.1 * bump.max()
    assert np.all(res.residuals[band] >= full)


def test_sector_eigenstates_memory_is_below_a_dense_eigenvector_matrix():
    """No dim x dim array: one call on a 2401-state ladder (at most two atoms
    excited per rung) allocates less than half of one dim^2 float64 array at its
    peak.  The blocks hold about dim / 4 states each, and the band is 81 states."""
    h, basis, d = _ladder_case("three-leg", 4, delta0=0.2, max_excited=2)
    assert h.dim == 2401
    tracemalloc.start()
    try:
        sector_eigenstates(h, basis, d, 3 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * h.dim**2 * 8


@pytest.mark.parametrize("case", ["three-leg-delta0", "prism", "in-plane-shift", "rung-constrained"])
def test_symmetry_isometries_hold_at_most_one_nonzero_per_row(case):
    """Each basis state lies in one orbit, so each row of every sector isometry U
    holds at most one nonzero, and |U phi|^2 = (U o U)|phi|^2: the fold that the
    evolve task's site profiles take instead of embedding U phi."""
    make, symmetries = SECTOR_CASES[case]
    h, basis, d = make()
    names, blocks = symmetry_sectors(h, basis, d.n_legs)
    assert tuple(names) == symmetries and len(blocks) == 2 ** len(symmetries)
    rng = np.random.default_rng(3)
    for u in blocks:
        assert np.bincount(u.nonzero()[0], minlength=h.dim).max() <= 1
        phi = rng.standard_normal(u.shape[1]) + 1j * rng.standard_normal(u.shape[1])
        np.testing.assert_allclose(u.multiply(u) @ np.abs(phi) ** 2, np.abs(u @ phi) ** 2, rtol=1e-13, atol=0)


@pytest.mark.parametrize("sign", [+1, -1])
def test_symmetry_sectors_select_the_character_of_the_state(sign):
    """A state even or odd under the leg reflection, and moved by the mirror,
    keeps only the leg reflection and selects its even or odd block."""
    h, basis, d = _ladder_case("three-leg", 3, delta0=0.2)
    perms = rung_permutations(basis, d.n_legs)
    psi = np.zeros(h.dim, dtype=complex)
    psi[basis.index_of(0b000000001)] = 1.0
    psi[basis.index_of(0b000000100)] = sign   # its leg image
    psi /= np.linalg.norm(psi)
    assert np.array_equal(psi[perms["leg"]], sign * psi)
    names, blocks = symmetry_sectors(h, basis, d.n_legs, psi)
    assert names == ["leg"] and len(blocks) == 1
    u = blocks[0].toarray()
    np.testing.assert_array_equal(u[perms["leg"]], sign * u)   # every column has the state's character
    assert np.linalg.norm(u.T @ psi) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-15)
    # the full verified group without a state: four blocks that tile the space
    names, blocks = symmetry_sectors(h, basis, d.n_legs)
    assert names == ["leg", "mirror"] and sum(b.shape[1] for b in blocks) == h.dim


def test_symmetry_sectors_build_the_block_of_a_state_odd_and_even():
    """A state odd under the leg reflection and even under the mirror keeps both
    symmetries; its one block has the state's sign under each."""
    h, basis, d = _ladder_case("three-leg", 3, delta0=0.2)
    perms = rung_permutations(basis, d.n_legs)
    psi = np.zeros(h.dim, dtype=complex)
    # leg images within rung 1 and within rung 3, which the mirror swaps
    for config, amp in {0b000000001: 1, 0b000000100: -1, 0b001000000: 1, 0b100000000: -1}.items():
        psi[basis.index_of(config)] = amp / 2
    names, blocks = symmetry_sectors(h, basis, d.n_legs, psi)
    assert names == ["leg", "mirror"] and len(blocks) == 1
    u = blocks[0].toarray()
    np.testing.assert_array_equal(u[perms["leg"]], -u)
    np.testing.assert_array_equal(u[perms["mirror"]], u)
    assert np.linalg.norm(u.T @ psi) == pytest.approx(1.0, abs=1e-15)


def _bumped_two_leg():
    """The two-leg case with a diagonal term on one state but not on its leg image
    (0b10): a FlipOperator that no symmetry maps onto itself."""
    h, basis, d = SECTOR_CASES["two-leg"][0]()
    diag = h.diag.copy()
    diag[basis.index_of(0b01)] += 1e-3
    return FlipOperator(h.n_sites, diag, h.hop), basis, d


@pytest.mark.parametrize("case", [*SECTOR_CASES, "bumped"])
def test_permutation_defect_equals_the_csr_norm(case):
    """||Pi H Pi^T - H||_1 from the operator itself (a FlipOperator's diagonal and
    hop, no CSR) equals the CSR's, to 1e-12 relative, for each rung symmetry."""
    h, basis, d = _bumped_two_leg() if case == "bumped" else SECTOR_CASES[case][0]()
    csr = SparseOperator(h.matrix)
    perms = rung_permutations(basis, d.n_legs)
    defects = {}
    for name, (local, _) in rung_symmetries(basis, d.n_legs).items():
        defects[name] = h.permutation_defect(perms[name], local)
        assert defects[name] == pytest.approx(csr.permutation_defect(perms[name], local), rel=1e-12, abs=0)
    if case == "bumped":   # the term moves under both symmetries
        assert min(defects.values()) > SYMMETRY_TOL * h.norm1()


def test_a_hop_that_the_local_map_changes_is_no_symmetry():
    """On a rung-capped three-leg ladder (patterns 000, 001, 010, 100) a hop of
    another strength to 100 than to 001 is changed by the leg reflection's pattern
    map: the reflection is rejected, as the CSR rejects it, and the mirror kept."""
    h, basis, d = SECTOR_CASES["rung-constrained"][0]()
    hop = h.hop.copy()
    hop[0, 3] = hop[3, 0] = 1.5 * hop[0, 1]
    h = FlipOperator(h.n_sites, h.diag, hop)
    (local, _), perm = rung_symmetries(basis, 3)["leg"], rung_permutations(basis, 3)["leg"]
    defect = h.permutation_defect(perm, local)
    assert defect == pytest.approx(SparseOperator(h.matrix).permutation_defect(perm, local), rel=1e-12)
    assert defect > SYMMETRY_TOL * h.norm1()
    names, blocks = symmetry_sectors(h, basis, 3)
    assert names == ["mirror"] and len(blocks) == 2


@pytest.mark.parametrize("case", ["two-leg", "three-leg-delta0", "prism", "in-plane-shift", "rung-constrained"])
def test_sector_ground_state_matches_the_full_space(case):
    """The trivial sector of the verified symmetries holds the ground state: its
    energy equals ``ground_state``'s to 1e-12 relative, the embedded state overlaps
    the full-space one to 1 - 1e-9, and its residual and bound are the full space's."""
    make, symmetries = SECTOR_CASES[case]
    h, basis, d = make()
    e_full, psi_full, _ = ground_state(h)
    e, psi, report = sector_ground_state(h, basis, d.n_legs)
    assert report["symmetries"] == symmetries and report["sector"] < h.dim
    assert e == pytest.approx(e_full, rel=1e-12, abs=0)
    assert abs(psi_full @ psi) >= 1 - 1e-9
    assert report["bound"] == pytest.approx(RESIDUAL_TOL * spla.norm(h.matrix, 1), rel=1e-14)
    residual = np.linalg.norm(h.matrix @ psi - e * psi)
    assert report["residual"] == pytest.approx(residual, rel=1e-6, abs=1e-3 * report["bound"])
    assert residual <= report["bound"]


def _frustrated_three_leg():
    """The rung-capped three-leg ladder with a hop between 001 and 100 too: a
    triangle of positive hops, which no sign choice takes to <= 0, and which the leg
    reflection and the mirror still leave unchanged."""
    h, basis, d = SECTOR_CASES["rung-constrained"][0]()
    hop = h.hop.copy()
    hop[1, 3] = hop[3, 1] = hop[0, 1]
    return FlipOperator(h.n_sites, h.diag, hop), basis, d


@pytest.mark.parametrize("make", [
    lambda: (rydberg_hamiltonian(build_ladder(LadderSpec(LadderKind.TWO_LEG, 4, 3.0, 1.0)), 0.0, 20.0, 40.0,
                                 enumerate_rydberg(8)), enumerate_rydberg(8), StateDictionary.for_kind("two-leg")),
    _frustrated_three_leg,
    lambda: (SparseOperator(SECTOR_CASES["two-leg"][0]()[0].matrix), *SECTOR_CASES["two-leg"][0]()[1:]),
], ids=["omega-zero", "frustrated", "csr"])
def test_sector_ground_state_falls_back_to_the_full_space_bitwise(make):
    """Without a Perron-Frobenius certificate on the operator, Omega = 0, a frustrated
    hop or a CSR operator (no hop of a rung to read), the group is trivial and the
    solve is ``ground_state(h)``'s, bit for bit."""
    h, basis, d = make()
    if isinstance(h, FlipOperator) and h.max_off_diagonal() > 0:
        assert symmetry_sectors(h, basis, d.n_legs)[0] == ["leg", "mirror"]   # the symmetries hold
    e, psi, report = sector_ground_state(h, basis, d.n_legs, seed=2)
    e_full, psi_full, report_full = ground_state(h, seed=2)
    assert e == e_full and psi.tobytes() == psi_full.tobytes()
    assert report == {**report_full, "symmetries": (), "sector": h.dim}


def test_sector_ground_state_of_the_benchmark_ladder_takes_at_most_27_products():
    """The 14-atom two-leg ladder (dim 16384) that takes ``ground_state`` 45
    products with H solves in its 4224-state even sector in at most 27, the
    full-space certificate's included, at the same energy to 1e-12."""
    h = _two_leg(7)
    basis = enumerate_rydberg(h.n_sites)
    e, _, report = sector_ground_state(h, basis, 2)
    assert (report["symmetries"], report["sector"]) == (("leg", "mirror"), 4224)
    assert report["products"] <= 27
    assert report["iterations"] == report["products"] - 3   # the start's and both certificates' products
    assert e == pytest.approx(ground_state(h)[0], rel=1e-12, abs=0)
