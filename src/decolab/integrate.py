"""Time evolution of density matrices, sampled on a fixed-step grid.

Classical RK4 on the real form X = Re rho + Im rho of the Hermitian state,
with trace renormalization per step.  The generators preserve Hermiticity, so
they map real forms to real forms with real products only, and rho comes back
as (X + Xᵀ)/2 + i (X - Xᵀ)/2, Hermitian by construction; the trace drift
removed by the renormalization is recorded, so that long runs stay valid
while the error remains observable.  Fixed steps keep runs bit-reproducible.
Given the phases -Δ∘Xᵀ of a constant generator, ``evolve`` takes Lawson's
integrating-factor RK4, which rotates them exactly and steps only the rest.
``propagate_blocks`` samples the exact exp(L t) of the same generator on the
same grid, one parity block of L on vec(X) at a time; without damping, the
mixed block is stepped as its complex half z = X_mn + i X_nm (m even, n odd).
Its matrix exponential, ``expm``, takes matrix products only.  ``solve``
picks one of the three for a model description and checks RK4's step.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import generators
from .exceptions import ConfigError, PositivityError
from .generators import Model, ModelParams

__all__ = ["EvolutionResult", "solve", "evolve", "evolve_nonmarkov",
           "propagate_blocks", "parity_blocks", "expm", "observable", "default_dt",
           "real_form", "hermitian"]

#: 200 steps per oscillator period: plain RK4 steps the phases, up to
#: (dim - 1) omega; Lawson's step rotates them exactly (``evolve``)
default_dt = 2.0 * np.pi / 200.0

#: the largest h reach of Lawson's step (``evolve``), set by a sweep of the
#: constant models (tests/test_cli.py::TestLawsonSweep): at 0.435, breuer at
#: dim 12, omega tau_D 100 takes h = 2 dt and is 1.6e-9 off at omega t 200
LAWSON_STEP_LIMIT = 0.42

#: a sampled state whose smallest eigenvalue falls below this has lost positivity
POSITIVITY_FLOOR = -1e-6

#: Largest parity block, as the order of its real matrix on vec(X), that
#: takes the exact propagator (``solve``).  ``propagate_blocks`` holds four
#: arrays of a block's size at its peak, five with two sample intervals, so
#: its memory grows as dim⁴ where RK4's grows as dim².  512 is the largest
#: block at dim 32, with or without damping, so it admits dim ≤ 32.  At dim
#: 32 a damped breuer run with two sample intervals peaked at 90 MB, RK4 at
#: 82 MB.
#: The undamped mixed block is stepped as its complex half, of half the
#: order, but counts here by its real order, 2 ⌈dim/2⌉ ⌊dim/2⌋.
EXACT_BLOCK_LIMIT = 512

#: RK4 is stable on the negative real axis down to h λ = -2.785; the
#: eigenvalues of c [A, [A, ·]] are c (a_i - a_j)² for the eigenvalues a of A,
#: and damping's reach gamma (dim - 1)
RK4_REAL_LIMIT = 2.78

#: the even degree m of ``expm``'s Taylor polynomial, and the largest 1-norm
#: θ it takes after scaling: θ^(m+1)/(m+1)! = 2⁻⁵³, so the truncation error's
#: leading term is at most the unit roundoff.  Past one product per doubling
#: of ‖a‖₁, ``expm`` takes m/2 + log2(1/θ) products: 7.5 at m = 10, 7.6 at
#: 12 and 7.8 at 8 and 14; 12's larger θ trades a squaring for a product
TAYLOR_DEGREE = 12
TAYLOR_THETA = (math.factorial(TAYLOR_DEGREE + 1) * 2.0 ** -53) ** (1.0 / (TAYLOR_DEGREE + 1))
_TAYLOR = [0.0] + [1.0 / math.factorial(k) for k in range(1, TAYLOR_DEGREE + 1)]


@dataclass
class EvolutionResult:
    """Sampled trajectory of a master-equation run with validity diagnostics."""

    times_omega: np.ndarray          # dimensionless omega*t at samples
    states: np.ndarray               # (n_samples, dim, dim)
    omega: float = 1.0               # rad/s, for the seconds axis
    trace_drift: np.ndarray = field(default=None)   # |tr-1| before renorm, per sample
    min_eigenvalue: np.ndarray = field(default=None)
    propagator: str = "rk4"          # rk4 | exact-blocks
    step: float | None = None        # the step RK4 took; None on the exact blocks

    def expect(self, name: str) -> np.ndarray:
        return observable(name)(self.states)

    def to_csv(self, path, observables: Sequence[str]) -> None:
        """Write `t_omega,t_seconds,<obs>...` rows for the declared observables."""
        _write_csv(path, self.times_omega, self.omega,
                   [(name, self.expect(name)) for name in observables])


def _write_csv(path, times_omega: np.ndarray, omega: float, columns) -> None:
    """Write `t_omega,t_seconds,<name>...` rows from (name, values) pairs."""
    with open(path, "w") as fh:
        fh.write("t_omega,t_seconds," + ",".join(name for name, _ in columns) + "\n")
        for i, t in enumerate(times_omega):
            row = [f"{t:.12g}", f"{t / omega:.12g}"]
            row += [f"{values[i]:.12g}" for _, values in columns]
            fh.write(",".join(row) + "\n")


_OBS_RE = re.compile(r"^(re_|im_|abs_)?rho_(\d+)_?(\d+)$")


def _parse_observable(name: str) -> tuple[str | None, int, int]:
    """(prefix, i, j) of an observable name like `re_rho_01`."""
    m = _OBS_RE.match(name)
    if not m:
        raise ValueError(f"cannot parse observable {name!r}")
    prefix, i, j = m.group(1), int(m.group(2)), int(m.group(3))
    if prefix is None and i != j:
        raise ValueError(f"off-diagonal observable {name!r} needs re_/im_/abs_ prefix")
    return prefix, i, j


def observable(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-element observable from a name like `rho_11` or `re_rho_01`, of
    one state or of each state of a stack (..., dim, dim).

    `rho_nn` is the (real) population; off-diagonal elements need an explicit
    re_/im_/abs_ prefix.  Two-digit suffixes split in the middle; longer
    indices use an underscore (`rho_10_10`).
    """
    prefix, i, j = _parse_observable(name)
    part = {"re_": np.real, "im_": np.imag, "abs_": np.abs, None: np.real}[prefix]
    return lambda rho: part(rho[..., i, j])


def _step_count(t_end: float, dt: float) -> int:
    """The round(t_end/dt) steps of a run, at least one."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return max(1, int(round(t_end / dt)))


def _sample_grid(n_steps: int, sample_every: int) -> list[int]:
    """Steps that end in a sample: every ``sample_every``-th below ``n_steps``,
    from 0, and then ``n_steps``."""
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    return [*range(0, n_steps, sample_every), n_steps]


def real_form(rho: np.ndarray) -> np.ndarray:
    """X = Re rho + Im rho, the real form of a Hermitian rho: Re rho is
    symmetric and Im rho antisymmetric, so X holds both, and X_nn = rho_nn."""
    rho = np.asarray(rho)
    return rho.real + rho.imag


def hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian rho = S + i T of a real form X, with S = (X + Xᵀ)/2 and
    T = (X - Xᵀ)/2; Hermitian bit for bit, with a real diagonal."""
    rho = np.empty(x.shape, dtype=complex)
    rho.real = x + x.T
    rho.imag = x - x.T
    rho *= 0.5
    return rho


def _initial_form(rho0: np.ndarray) -> np.ndarray:
    """The real form of rho0, which must be Hermitian: ``real_form`` would
    fold an anti-Hermitian part into X without a word."""
    if not np.allclose(rho0, np.conj(rho0).T, rtol=0.0, atol=1e-12):
        raise ValueError("rho0 must be Hermitian: its real form holds only a "
                         "Hermitian rho")
    return real_form(rho0)


def _stage(x: np.ndarray, h: float, k: np.ndarray) -> np.ndarray:
    """x + h k, as a fresh real array; a complex k breaks ``evolve``'s contract."""
    if k.dtype.kind == "c":
        raise TypeError(f"rhs returned {k.dtype}; it must return a real form: wrap "
                        f"a complex f(rho, t) as real_form(f(hermitian(x), t))")
    out = np.multiply(h, k, dtype=float)
    out += x
    return out


class _Samples:
    """Sampled states and their diagnostics, checked as they are added; the
    first is the state evolved, ``hermitian(x0)`` of the initial real form."""

    def __init__(self, x0: np.ndarray, dt: float, omega: float):
        self.dt, self.omega = dt, omega
        self.times, self.states, self.tdrift, self.mineig = [], [], [], []
        self.record(0, hermitian(x0), abs(float(x0.trace()) - 1.0))

    def record(self, step: int, rho: np.ndarray, trace_drift: float) -> None:
        t = step * self.dt
        self.times.append(t)
        self.states.append(rho.copy())
        self.tdrift.append(trace_drift)
        if not np.all(np.isfinite(rho)):
            raise PositivityError(f"state is not finite at omega*t={t:.6g}")
        lo = float(np.linalg.eigvalsh(rho)[0])
        self.mineig.append(lo)
        if lo < POSITIVITY_FLOOR:
            raise PositivityError(
                f"state lost positivity at omega*t={t:.6g} (min eig {lo:.3e})")

    def result(self, propagator: str, step: float | None = None) -> EvolutionResult:
        return EvolutionResult(
            times_omega=np.array(self.times), states=np.array(self.states),
            omega=self.omega, trace_drift=np.array(self.tdrift),
            min_eigenvalue=np.array(self.mineig),
            propagator=propagator, step=step)


def evolve(rho0: np.ndarray, rhs: Callable[[np.ndarray, float], np.ndarray],
           t_end: float, dt: float = default_dt, *, sample_every: int = 100,
           omega: float = 1.0, phases: np.ndarray | None = None,
           reach: float = math.inf) -> EvolutionResult:
    """Integrate d rho/d(omega t) = rhs(rho, t) with classical RK4 on the real
    form X = ``real_form(rho)`` of the Hermitian rho0.

    ``rhs`` is the whole right-hand side on the real form, called with a real
    X and dimensionless t, and returns the real form of d rho/d(omega t): the
    ``generators`` right-hand sides do; wrap a complex one ``f(rho, t)`` as
    ``lambda x, t: real_form(f(hermitian(x), t))``.  A complex return is a
    TypeError, and a rho0 that is not Hermitian a ValueError.

    With real ``phases`` = Δ of rho0's shape, ``_lawson`` steps -Δ∘Xᵀ + rhs
    at h = m dt, for the largest divisor m of every sample interval (in
    steps of dt) with h ``reach`` <= ``LAWSON_STEP_LIMIT``, and m >= 1:
    ``reach`` is rhs's largest rate plus the largest difference of Δ between
    elements that rhs couples (the default, inf, keeps h = dt).  dt then sets
    only the grid and the least h.

    After every step X is renormalized to unit trace (tr rho = tr X); a
    sampled step records the trace drift before that and rho =
    ``hermitian(X)``, Hermitian by construction; sample 0 is the state
    evolved, ``hermitian(X0)``.  RK4's stage times come from the step index,
    (step + j/2) dt, so one step's end time is the next one's start, bit for
    bit.  ``step`` of the result is h.  Raises PositivityError when a sampled
    state dips below ``POSITIVITY_FLOOR`` or is not finite.
    """
    steps = _sample_grid(_step_count(t_end, dt), sample_every)
    sampled = set(steps)
    x = _initial_form(rho0)
    samples = _Samples(x, dt, omega)
    stride, advance = 1, _rk4(rhs, dt)
    if phases is not None:
        phases = np.asarray(phases)
        if phases.dtype.kind not in "iuf":
            raise TypeError(f"phases must be a real array, got {phases.dtype}")
        if phases.shape != x.shape:
            raise ValueError(f"phases must have the state's shape {x.shape}, "
                             f"got {phases.shape}")
        gap = math.gcd(*np.diff(steps).tolist())
        stride = int(min(gap, max(1, LAWSON_STEP_LIMIT / (dt * reach)))) if reach else gap
        while gap % stride:
            stride -= 1
        advance = _lawson(rhs, dt, stride, phases)
    for step in range(0, steps[-1], stride):
        x = advance(x, step)
        trace = x.trace()
        x /= trace
        if step + stride in sampled:
            samples.record(step + stride, hermitian(x), abs(float(trace) - 1.0))
    return samples.result("rk4", stride * dt)


def _stage_times(step: int, dt: float, stride: int) -> tuple[float, float, float]:
    """The start, midpoint and end times of the step of ``stride`` dt from
    ``step``, each from its index, so that one step's end is bitwise the next
    step's start."""
    return step * dt, (step + 0.5 * stride) * dt, (step + stride) * dt


def _rk4(rhs, dt: float):
    """One classical RK4 step of rhs from a step index, before
    renormalization."""
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(x, step):
        t, mid, end = _stage_times(step, dt, 1)
        k1 = rhs(x, t)
        k2 = rhs(_stage(x, half, k1), mid)
        k3 = rhs(_stage(x, half, k2), mid)
        k4 = rhs(_stage(x, dt, k3), end)
        return (((2.0 * k2 + k1) + 2.0 * k3) + k4) * sixth + x

    return advance


def _lawson(rhs, dt: float, stride: int, delta: np.ndarray):
    """Lawson's integrating-factor RK4 step (SIAM J. Numer. Anal. 4, 372,
    1967) of -Δ∘Xᵀ + N(X), N = rhs, at h = ``stride`` dt from a step index,
    before renormalization: with E the exact phase rotation
    X -> cos(h Δ/2)∘X - sin(h Δ/2)∘Xᵀ over h/2,
        x_a = E x,  k1 = E N(x),  n2 = N(x_a + h/2 k1),  n3 = N(x_a + h/2 n2),
        n4 = N(E (x_a + h n3)),  x+ = E (x_a + h/6 (k1 + 2 n2 + 2 n3)) + h/6 n4.
    """
    h = stride * dt
    half, sixth = 0.5 * h, h / 6.0
    cos, sin = np.cos(half * delta), np.sin(half * delta)

    def rotate(x):
        return cos * x - sin * x.T

    def advance(x, step):
        t, mid, end = _stage_times(step, dt, stride)
        xa = rotate(x)
        k1 = rotate(rhs(x, t))
        n2 = rhs(_stage(xa, half, k1), mid)
        n3 = rhs(_stage(xa, half, n2), mid)
        n4 = rhs(rotate(_stage(xa, h, n3)), end)
        return rotate(((k1 + 2.0 * n2) + 2.0 * n3) * sixth + xa) + sixth * n4

    return advance


def parity_blocks(dim: int, damped: bool) -> list[np.ndarray]:
    """Row-major indices of the elements of X in each block that a constant
    generator never couples.

    K and K² move n by even steps, so the double commutator conserves
    (m mod 2, n mod 2), and the phases -Δ∘Xᵀ couple X_mn to X_nm: three
    blocks, by m mod 2 + n mod 2.  Damping (a X aᵀ) moves (m, n) to
    (m-1, n-1), which conserves only (m - n) mod 2: two blocks.
    """
    m, n = np.divmod(np.arange(dim * dim), dim)
    key = (m - n) % 2 if damped else m % 2 + n % 2
    return [np.flatnonzero(key == k) for k in np.unique(key)]


def _block_generator(idx: np.ndarray, model: Model,
                     mirror: np.ndarray | None = None) -> np.ndarray:
    """Rows and columns ``idx`` of the model's generator on row-major vec(X):
    column j is the model's right-hand side at the basis matrix of element
    ``idx[j]``, read at ``idx``.

    Given ``mirror``, the indices of the transposes of ``idx``'s elements, it
    is the complex P + iQ, with P each column read at ``idx`` and Q at
    ``mirror``: on (X[idx], X[mirror]) the generator is [[P, -Q], [Q, P]],
    so P + iQ is the same generator on z = X[idx] + i X[mirror], of half the
    order and with half as many columns to build."""
    dim = model.levels.shape[0]
    basis = np.zeros(dim * dim)
    block = np.empty((len(idx), len(idx)), dtype=float if mirror is None else complex)
    for j, k in enumerate(idx):
        basis[k] = 1.0
        column = generators._lindblad_rhs(basis.reshape(dim, dim), model,
                                          (model.op, None), model.c).ravel()
        block.real[:, j] = column[idx]
        if mirror is not None:
            block.imag[:, j] = column[mirror]
        basis[k] = 0.0
    return block


def _norm1(a: np.ndarray) -> float:
    """The 1-norm of a matrix, its largest absolute column sum."""
    return float(np.abs(a).sum(axis=0).max(initial=0.0))


def expm(a: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """exp(a) of a square real or complex matrix, from matrix products only.

    Scaling and squaring of the degree-m Taylor polynomial T (m =
    ``TAYLOR_DEGREE``; Bader, Blanes & Casas, Mathematics 7, 1174, 2019):
    b = a / 2^s with ‖b‖₁ <= ``TAYLOR_THETA``.  Y = T(b) - I is summed by
    Horner's rule in b² over the pairs c_k I + c_(k+1) b, c_k = 1/k! and
    c_0 = 0 (Paterson and Stockmeyer with two powers: m/2 products).  While
    ‖Y‖₁ < 1 it is squared as Y <- 2Y + Y², which is (I + Y)² - I: there
    exp(b) - I keeps digits that I + Y would round away.  The remaining
    squarings take I + Y, which rounds a drift below the unit roundoff of I
    away rather than doubling it at every step: so a trace-preserving block
    at ‖a‖₁ ~ 1e301, a thousand squarings, still ends at its steady state.
    No linear solve, as in a Padé form, and at most four arrays of a's size
    live besides a: b, b² and two for Y.  With ``overwrite_a`` a float or
    complex a is scaled in place and is b, so four in all; otherwise a is
    never written.  A non-finite 1-norm gives a NaN matrix.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    n, norm = a.shape[0], _norm1(a)
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, a.dtype)
    s = max(0, math.ceil(math.log2(norm / TAYLOR_THETA))) if norm else 0
    c, m = _TAYLOR, TAYLOR_DEGREE
    b = np.multiply(a, 2.0 ** -s, out=a if overwrite_a else None)
    del a
    b2 = b @ b
    y = np.multiply(b2, c[m])
    t = np.multiply(b, c[m - 1])
    y += t
    y.flat[::n + 1] += c[m - 2]
    for k in range(m - 4, -1, -2):   # y <- c_k I + c_(k+1) b + b² y
        np.matmul(b2, y, out=t)
        np.multiply(b, c[k + 1], out=y)
        t += y
        t.flat[::n + 1] += c[k]
        y, t = t, y
    del b, b2
    while s and _norm1(y) < 1.0:
        np.matmul(y, y, out=t)
        y *= 2.0
        y += t
        s -= 1
    y.flat[::n + 1] += 1.0
    for _ in range(s):
        np.matmul(y, y, out=t)
        y, t = t, y
    return y


def _complex_half(idx: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, Uᵀ) of the undamped mixed block ``idx``: the row-major indices of
    its (m even, n odd) elements and of their transposes."""
    u = idx[idx // dim % 2 == 0]
    return u, u % dim * dim + u // dim


def propagate_blocks(rho0: np.ndarray, model: Model, t_end: float,
                     dt: float = default_dt, *, sample_every: int = 100) -> EvolutionResult:
    """Sample exp(L t) rho0 exactly, on ``evolve``'s grid, for the constant
    generator L of a model description from ``generators.model``: the
    right-hand side that ``gup_markov_rhs`` and ``breuer_rhs`` step, a real
    map on the real form X = ``real_form(rho0)`` of the Hermitian rho0.

    L is never formed whole: each parity block of L on vec(X) is built from
    the right-hand side (``_block_generator``) and gets one ``expm`` per
    distinct sample interval (at most two), which carries that block's slice
    of X from sample to sample, one block at a time.  The block is scaled
    by the last interval in place, and by an earlier one in a copy, and
    ``expm`` scales that buffer on, so four arrays of the block's size live
    at once (b, b², Y and a product buffer), five with an earlier interval's
    propagator; the block's generator, propagators and slice of X are
    released before the next block is built.  Without damping, the
    mixed block, of real order 2 ⌈d/2⌉ ⌊d/2⌋, is the realification of a
    complex block of order ⌈d/2⌉ ⌊d/2⌋ on z = X_mn + i X_nm, m even and n
    odd (``_complex_half``), and is stepped as z; the other blocks, and every
    damped one, stay real.  A block whose slice of X is all zero stays zero
    and gets no ``expm``: the vacuum and |n⟩ occupy one block of three (of
    two with damping).  ``dt`` sets only the grid.
    Renormalizing commutes with exp(L t), so each sample records its trace
    drift, divides X by its trace and reads rho = ``hermitian(X)``, and the
    division is not fed back.  Refuses a non-Hermitian rho0 and raises
    PositivityError like ``evolve``.
    """
    steps = _sample_grid(_step_count(t_end, dt), sample_every)
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    intervals = list(dict.fromkeys(gaps))
    dim = rho0.shape[0]
    flat = np.zeros((len(steps), dim * dim))
    x0 = _initial_form(rho0)
    flat[0] = x0.ravel()
    damped = bool(model.gamma)
    for idx in parity_blocks(dim, damped):
        if not flat[0, idx].any():
            continue
        mirror = None
        if not damped and sum(divmod(int(idx[0]), dim)) % 2:  # m + n odd
            idx, mirror = _complex_half(idx, dim)
        lv = _block_generator(idx, model, mirror)
        norm, finite = _norm1(lv), bool(np.isfinite(lv).all())
        z = flat[0, idx].astype(lv.dtype)
        if mirror is not None:
            z.imag = flat[0, mirror]
        props = {}
        for g in intervals:
            # an overflow in the squarings is named below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                props[g] = expm(np.multiply(lv, g * dt, out=lv if g == intervals[-1] else None),
                                overwrite_a=True)
            if not np.isfinite(props[g]).all() and finite:
                raise PositivityError(
                    f"matrix exponential overflowed: exp(L t) of a parity block over omega*t="
                    f"{g * dt:.6g} is not finite, with ‖L t‖₁ = {norm * g * dt:.3g}")
        for i, g in enumerate(gaps, 1):
            z = props[g] @ z
            flat[i, idx] = z.real
            if mirror is not None:
                flat[i, mirror] = z.imag
        del lv, props, z   # before the next block is built
    samples = _Samples(x0, dt, model.params.omega)
    for step, vec in zip(steps[1:], flat[1:]):
        x = vec.reshape(dim, dim)
        trace = x.trace()
        samples.record(step, hermitian(x / trace), abs(float(trace) - 1.0))
    return samples.result("exact-blocks")


def _rk4_stable(re: float, im: float) -> bool:
    """Whether |R(z)| <= 1 for RK4's stability polynomial
    R(z) = 1 + z + z²/2 + z³/6 + z⁴/24 over -re <= Re z <= 0, |Im z| <= im.
    R is analytic and R(z̄) is the conjugate of R(z), so its largest modulus
    there lies on the upper half of the rectangle's edge, sampled here."""
    s = np.linspace(0.0, 1.0, 257)
    z = np.concatenate([-re * s + 1j * im, -re + 1j * im * s, 1j * im * s])
    r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return bool(np.max(np.abs(r)) <= 1.0 + 1e-12)


def _check_step(model: Model, dt: float) -> float:
    """ConfigError rather than a blow-up when dt is past RK4's limits for
    what ``solve`` steps with it, whatever the state; else the stiffness s
    of the double commutator and damping, whose eigenvalues lie in [-s, 0].
    Plain RK4 also steps ``gup-nonmarkov``'s phases -Δ∘Xᵀ, up to max |Δ| on
    the imaginary axis, at dt <= tau/10 for its memory kernel, if tau > 0.
    A message names 0.995 of the limit it found, at most tau/10: a dt that
    completes."""
    a = np.linalg.eigvalsh(model.op)
    stiffness = model.c * (a[-1] - a[0]) ** 2 + model.gamma * (len(a) - 1)
    plain = model.name == "gup-nonmarkov"
    phases = float(np.max(np.abs(model.delta))) if plain else 0.0
    dt_max = model.tau / 10.0 if plain and model.tau else math.inf
    if dt * stiffness > RK4_REAL_LIMIT:
        raise ConfigError(
            f"dt={dt:.6g} is past RK4's stability limit: dt (c (a_max - a_min)² "
            f"+ gamma (dim - 1)) = {dt * stiffness:.3g} > {RK4_REAL_LIMIT}; "
            f"take dt <= {0.995 * min(RK4_REAL_LIMIT / stiffness, dt_max):.3g}")
    if math.isfinite(phases) and not _rk4_stable(dt * stiffness, dt * phases):
        # RK4 is stable on the imaginary axis up to |z| = √8
        lo, hi = 0.0, min(dt, math.sqrt(8.0) / phases)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _rk4_stable(mid * stiffness, mid * phases) else (lo, mid)
        raise ConfigError(
            f"dt={dt:.6g} is past RK4's stability region with the phases: "
            f"|R(z)| > 1 somewhere in -dt s <= Re z <= 0, |Im z| <= dt max |Δ| = "
            f"{dt * phases:.3g}, with s = c (a_max - a_min)² + gamma (dim - 1) "
            f"= {stiffness:.3g}; take dt <= {0.995 * min(lo, dt_max):.3g}")
    if dt > dt_max:
        raise ConfigError(f"dt={dt:.3g} exceeds tau/10={dt_max:.3g}; reduce the step")
    return stiffness


def solve(rho0: np.ndarray, model: Model, t_end: float, dt: float = default_dt, *,
          sample_every: int = 100) -> EvolutionResult:
    """Evolve rho0 to t_end under a description from ``generators.model``:
    the exact blocks for a constant generator (all but ``gup-nonmarkov``)
    whose blocks have real order at most ``EXACT_BLOCK_LIMIT``, else Lawson's
    step, or plain RK4 for ``gup-nonmarkov``; RK4 after ``_check_step``."""
    nonmarkov = model.name == "gup-nonmarkov"
    blocks = parity_blocks(rho0.shape[0], damped=bool(model.gamma))
    if not nonmarkov and max(map(len, blocks)) <= EXACT_BLOCK_LIMIT:
        return propagate_blocks(rho0, model, t_end, dt, sample_every=sample_every)
    stiffness = _check_step(model, dt)
    if nonmarkov:
        return evolve(rho0, lambda x, t: generators.gup_nonmarkov_rhs(x, t, model),
                      t_end, dt, sample_every=sample_every, omega=model.params.omega)
    rhs = generators.breuer_rhs if model.name == "breuer" else generators.gup_markov_rhs
    return evolve(rho0, lambda x, t: rhs(x, model, phases=False), t_end, dt,
                  sample_every=sample_every, omega=model.params.omega,
                  phases=model.delta, reach=model.phase_spread + stiffness)


def evolve_nonmarkov(rho0: np.ndarray, params: ModelParams, t_end: float,
                     dt: float, *, sample_every: int = 100) -> EvolutionResult:
    """Evolve under the exponential-memory-kernel master equation, with
    amplitude damping when ``params.gamma`` is non-zero: ``solve`` of its
    ``gup-nonmarkov`` description.  Requires an exponential kernel."""
    model = generators.model("gup-nonmarkov", params, rho0.shape[0])
    if not model.tau:
        raise ConfigError("evolve_nonmarkov requires an exponential kernel")
    return solve(rho0, model, t_end, dt, sample_every=sample_every)
