import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab import fock
from decolab.exceptions import ConfigError, TruncationWarning


def position_density(rho, x):
    """Position distribution <x|rho|x> from Hermite-function wavefunctions, in
    ``wigner``'s quadrature units (vacuum variance 1/2): an independent check
    of the Wigner marginal."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    x = np.asarray(x, dtype=float)
    psi = np.zeros((dim, len(x)))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if dim > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(2, dim):
        psi[n] = (math.sqrt(2.0 / n) * x * psi[n - 1]
                  - math.sqrt((n - 1) / n) * psi[n - 2])
    return np.real(np.einsum("mx,mn,nx->x", psi, rho, psi))

class TestOperators:
    def test_ladder_entries(self):
        a = fock.ladder(5)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(a) == 4

    def test_number_operator_diagonal(self):
        a = fock.ladder(5)
        n = a.conj().T @ a
        assert np.allclose(np.diag(n), [0, 1, 2, 3, 4])
        assert np.allclose(fock.number_op(5), n)

    def test_commutator_identity_below_truncation(self):
        dim = 9
        a = fock.ladder(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        # truncation only corrupts the top level
        assert np.allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1))

    def test_kinetic_matches_ladder_construction(self):
        dim = 7
        a = fock.ladder(dim)
        ad = a.conj().T
        expected = 0.25 * (2 * ad @ a + np.eye(dim) - ad @ ad - a @ a)
        assert np.allclose(fock.kinetic(dim), expected, atol=1e-15)

    def test_dimension_guards(self):
        with pytest.raises(ConfigError, match="ladder operator needs dim >= 2"):
            fock.ladder(1)
        with pytest.raises(ConfigError, match="kinetic operator needs dim >= 3"):
            fock.kinetic(2)
        with pytest.raises(ConfigError, match="fock level 4 outside basis of size 4"):
            fock.fock_state(4, 4)

    def test_operators_are_read_only(self):
        a = fock.ladder(4)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    @given(theta=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_vacuum_quadrature_variance_is_half(self, theta):
        dim = 12
        x = fock.quadrature(theta, dim)
        vac = fock.fock_state(0, dim)
        mean = np.real(vac.conj() @ x @ vac)
        var = np.real(vac.conj() @ x @ x @ vac) - mean**2
        assert var == pytest.approx(0.5, abs=1e-12)


class TestStates:
    def test_superposition_density(self):
        rho = fock.density(fock.superposition01(4))
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 1] == pytest.approx(0.5)
        assert np.array_equal(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(rho)[0] > -1e-15

    def test_trace_distance_basics(self):
        r0 = fock.density(fock.fock_state(0, 3))
        r1 = fock.density(fock.fock_state(1, 3))
        assert fock.trace_distance(r0, r1) == pytest.approx(1.0)
        assert fock.trace_distance(r0, r0) == pytest.approx(0.0, abs=1e-14)

    @given(k=st.integers(0, 4))
    @settings(max_examples=5, deadline=None)
    def test_trace_distance_symmetry(self, k):
        rng = np.random.default_rng(k)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        sig = fock.density(fock.fock_state(k % 4, 4))
        assert fock.trace_distance(rho, sig) == pytest.approx(
            fock.trace_distance(sig, rho))


class TestWigner:
    grid = np.linspace(-4.5, 4.5, 61)

    def test_vacuum_peak(self):
        rho = fock.density(fock.fock_state(0, 10))
        w = fock.wigner(rho, self.grid, self.grid)
        i0 = len(self.grid) // 2
        assert w.values[i0, i0] == pytest.approx(1 / math.pi, rel=1e-10)
        assert w.captured_mass == pytest.approx(1.0, abs=1e-6)

    def test_fock1_negativity_at_origin(self):
        rho = fock.density(fock.fock_state(1, 10))
        w = fock.wigner(rho, self.grid, self.grid)
        i0 = len(self.grid) // 2
        assert w.values[i0, i0] == pytest.approx(-1 / math.pi, rel=1e-10)

    def test_marginal_matches_position_density(self):
        psi = (fock.fock_state(0, 12) + fock.fock_state(3, 12)) / math.sqrt(2)
        rho = fock.density(psi)
        x = np.linspace(-5, 5, 101)
        p = np.linspace(-6, 6, 241)
        w = fock.wigner(rho, x, p)
        marginal = np.sum(w.values, axis=1) * (p[1] - p[0])
        assert np.allclose(marginal, position_density(rho, x), atol=1e-8)

    def test_displaced_coherence_mean(self):
        # <x> of (|0>+|1>)/sqrt(2) is +1/sqrt(2) in these units
        rho = fock.density(fock.superposition01(10))
        x = np.linspace(-5, 5, 201)
        w = fock.wigner(rho, x, x)
        dx = x[1] - x[0]
        mean_x = np.sum(w.values * x[:, None]) * dx * dx
        assert mean_x == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_small_grid_warns_with_mass(self):
        rho = fock.density(fock.fock_state(4, 12))
        tiny = np.linspace(-1.0, 1.0, 11)
        with pytest.warns(TruncationWarning) as rec:
            fock.wigner(rho, tiny, tiny)
        assert rec[0].message.captured_mass < 0.98

    def test_csv_layout(self, tmp_path):
        rho = fock.density(fock.fock_state(0, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = fock.wigner(rho, np.array([0.0, 1.0]), np.array([0.0]))
        path = tmp_path / "w.csv"
        w.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,p,w"
        assert len(lines) == 3
        assert float(lines[1].split(",")[2]) == pytest.approx(1 / math.pi)

    @pytest.mark.parametrize("state", ["vacuum", "fock(1)", "fock(3)",
                                       "superposition01"])
    def test_csv_bytes_match_a_per_row_writer(self, tmp_path, state):
        psi = {"vacuum": fock.fock_state(0, 20), "fock(1)": fock.fock_state(1, 20),
               "fock(3)": fock.fock_state(3, 20),
               "superposition01": fock.superposition01(20)}[state]
        axis = np.linspace(-4.0, 4.0, 81)
        w = fock.wigner(fock.density(psi), axis, axis)
        path = tmp_path / "w.csv"
        w.to_csv(path)
        want = tmp_path / "want.csv"
        with open(want, "w") as fh:
            fh.write("x,p,w\n")
            for i, xi in enumerate(w.x):
                for j, pj in enumerate(w.p):
                    fh.write(f"{xi:.12g},{pj:.12g},{w.values[i, j]:.12g}\n")
        assert path.read_bytes() == want.read_bytes()
