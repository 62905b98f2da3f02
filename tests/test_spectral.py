import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    closed_form_traces_reference,
    exponential_traces,
    find_spectrum_reference,
    fundamental_traces_reference,
    magnus6_step_reference,
    ordered_product_reference,
    rk4_fundamental,
    rk4_fundamental_loop,
    rk4_piecewise,
    scattering_matrix_reference,
    spectral_det_closed_1,
    spectral_det_parametrized,
    spectral_matrix_reference,
    unitary_from_su2_phase,
    w_combo,
)
from saext import spectral
from saext.boundary import BoundaryCondition, random_unitary
from saext.geometry import IntervalSet
from saext.potentials import (
    CallablePotential,
    ConstantPotential,
    PotentialError,
    SampledPotential,
    ZeroPotential,
)
from saext.spectral import (
    FundamentalTraces,
    TraceIntegrationError,
    find_spectrum,
    fundamental_traces,
    odot,
    secular_matrix,
    spectral_matrix,
)

TWO_PI = 2 * math.pi
GEOM = IntervalSet([(0.0, TWO_PI)])
FREE = ZeroPotential()


# ------------------------------------------------------------ hadamard algebra

def test_odot_against_direct_blocks():
    rng = np.random.default_rng(3)
    for n in (1, 3):
        u = random_unitary(2 * n, rng)
        psi = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
        out = odot(u, psi)
        u11, u12 = u[:n, :n], u[:n, n:]
        u21, u22 = u[n:, :n], u[n:, n:]
        pl, pr = psi[:n], psi[n:]
        for col in (0, 1):
            top = u11 * pl[:, col][None, :] + u12 * pr[:, col][None, :]
            bottom = u21 * pl[:, col][None, :] + u22 * pr[:, col][None, :]
            assert np.array_equal(out[:n, col * n:(col + 1) * n], top)
            assert np.array_equal(out[n:, col * n:(col + 1) * n], bottom)


def test_hadamard_matrix_defining_property():
    # each column block of odot is a Hadamard matrix T . X with
    # (T . X) y = T (X . y), X . y the componentwise product
    rng = np.random.default_rng(1)
    n = 2
    t = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    psi = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
    out = odot(t, psi)
    for col in (0, 1):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = out[:, col * n:(col + 1) * n] @ y
        rhs = t @ (psi[:, col] * np.concatenate([y, y]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_odot_shape_checks():
    with pytest.raises(ValueError):
        odot(np.eye(3), np.ones((3, 2)))
    with pytest.raises(ValueError):
        odot(np.eye(4), np.ones((4, 3)))


# ------------------------------------------------------------------- traces

def _paper_wronskians(lam):
    """Closed-form trace determinants for the free particle on [0, 2pi]
    with mass factor 1/2 in the exponential basis."""
    k = np.sqrt(complex(2 * lam))
    s, c = np.sin(TWO_PI * k), np.cos(TWO_PI * k)
    return {
        ("l", "r", -1, -1): -2j * (1 + 2 * lam) * s - 4 * k * c,
        ("l", "l", +1, -1): 4 * k,
        ("r", "r", -1, +1): 4 * k,
        ("r", "l", -1, +1): 2j * (1 - 2 * lam) * s,
        ("r", "l", +1, -1): 2j * (1 - 2 * lam) * s,
        ("l", "r", +1, +1): -2j * (1 + 2 * lam) * s + 4 * k * c,
    }


@pytest.mark.parametrize("lam", [0.3, 1.7, 4.9, 8.25])
def test_exponential_traces_reproduce_trace_determinants(lam):
    traces = exponential_traces(GEOM, lam, 0.5, [0.0])
    for key, expected in _paper_wronskians(lam).items():
        got = w_combo(traces, *key)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def _det_t_defect(traces):
    """max |det T - 1| / max(1, max |T|^2) over the intervals, T the right
    traces [[psi_r], [dpsi_r]] of the normalized basis; det T = 1 because
    the Wronskian is constant in x and 1 at the left end."""
    t00, t01 = traces.psi_r[..., 0].real, traces.psi_r[..., 1].real
    t10, t11 = traces.dpsi_r[..., 0].real, traces.dpsi_r[..., 1].real
    scale = max(1.0, float(np.max(np.abs([t00, t01, t10, t11]))) ** 2)
    return float(np.max(np.abs(t00 * t11 - t01 * t10 - 1.0))) / scale


def test_normalized_traces_at_zero_energy():
    # limit basis {1, x}: finite traces, unit determinant of the right traces
    traces = fundamental_traces(FREE, GEOM, 0.0, mu=1.0)
    assert traces.psi_l[0, 0] == 1.0
    assert traces.dpsi_l[0, 0] == 0.0
    assert traces.psi_r[0, 0] == 1.0
    assert traces.dpsi_r[0, 0] == 0.0
    assert traces.psi_l[0, 1] == 0.0
    assert traces.dpsi_l[0, 1] == -1.0
    assert traces.psi_r[0, 1] == pytest.approx(TWO_PI)
    assert traces.dpsi_r[0, 1] == 1.0
    assert _det_t_defect(traces) == 0.0


def test_exponential_basis_rejected_at_degeneracy():
    with pytest.raises(ValueError, match="degenerates"):
        exponential_traces(GEOM, 0.0, 1.0, [0.0])


def test_below_plateau_traces_are_real_growing():
    # constant V = 5, lam = 1 < 5: hyperbolic solutions, cosh^2 - sinh^2 = 1
    pot = ConstantPotential([5.0])
    traces = fundamental_traces(pot, GEOM, 1.0, mu=1.0)
    kappa = math.sqrt(4.0)
    length = TWO_PI
    assert traces.psi_r[0, 0] == pytest.approx(math.cosh(kappa * length), rel=1e-12)
    assert traces.psi_r[0, 1] == pytest.approx(
        math.sinh(kappa * length) / kappa, rel=1e-12
    )
    assert _det_t_defect(traces) <= 1e-12
    # oracle: the closed forms satisfy the differential equation; check the
    # second difference of cosh against (V - lam) / mu times the value
    x = 1.3
    dd = (math.cosh(kappa * (x + 1e-4)) - 2 * math.cosh(kappa * x)
          + math.cosh(kappa * (x - 1e-4))) / 1e-8
    assert dd == pytest.approx((5.0 - 1.0) / 1.0 * math.cosh(kappa * x), rel=1e-6)


_TWO_INTERVALS = IntervalSet([(0.0, 1.3), (1.3, 3.0)])


def _det_t_potential(kind):
    if kind == "constant":
        return ConstantPotential([1.5, -0.7])
    if kind == "sampled":
        rng = np.random.default_rng(23)
        return SampledPotential(np.linspace(0.0, 3.0, 23), rng.uniform(-1.0, 3.0, 23))
    return CallablePotential(lambda x: 2.0 * np.cos(3.0 * x) + 0.5 * x)


@pytest.mark.parametrize("lam", [-3.0, 0.2, 5.0, 40.0, 300.0])
@pytest.mark.parametrize("kind", ["constant", "sampled", "callable"])
def test_right_traces_have_unit_determinant(kind, lam):
    # det T = 1 on every interval, closed form or integrated;
    # _scattering_matrix relies on it
    traces = fundamental_traces(_det_t_potential(kind), _TWO_INTERVALS, lam, mu=0.8)
    assert _det_t_defect(traces) <= 1e-12


def _magnus_state(potential, geom, per_piece, lam, mu=1.0):
    """The oracle's Magnus state across interval 0 with ``per_piece``
    steps on each piece, at one lambda."""
    right = spectral._RightTraces(potential, geom, mu)
    edges, first = right.pieces[0]
    right.pieces[0] = edges, np.full(first.size, per_piece)
    return right._states(0, [1], np.array([lam]))[0, 0]


def test_integrated_traces_match_closed_form():
    # same constant potential via the generic integrator.  Magnus steps
    # are exact for constant V, so the first comparison (2048 against 4096
    # steps) accepts, and the first count's state differs from the closed
    # form by rounding only.  All 2048 step maps are equal, so their
    # rounding adds up: below V, where the solutions grow to 1e6, that
    # reaches 1.7e-13 of the scale, within 2048 eps.
    for lam, tol in ((3.2, 1e-13), (-4.0, 2048 * np.finfo(float).eps)):
        calls = []

        def constant(x):
            calls.append(x.size)
            return np.full_like(x, 1.5)

        pot = CallablePotential(constant)
        closed = fundamental_traces(ConstantPotential([1.5]), GEOM, lam, mu=1.0)
        fundamental_traces(pot, GEOM, lam, mu=1.0)
        assert calls == [3 * 2048, 3 * 4096]
        first = _magnus_state(pot, GEOM, 2048, lam)
        ref = np.array([closed.psi_r[0], closed.dpsi_r[0]]).real
        assert np.max(np.abs(first - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


def test_integrated_traces_multi_interval_constant_mix():
    geom = IntervalSet([(0.0, 1.0), (0.0, 2.0)])
    closed = fundamental_traces(ConstantPotential([0.0, 2.0]), geom, 1.1, mu=0.5)
    integrated = fundamental_traces(
        CallablePotential(lambda x: np.zeros_like(x)), geom, 1.1, mu=0.5
    )
    # only interval 0 matches (the callable is zero everywhere)
    assert np.max(np.abs(closed.psi_r[0] - integrated.psi_r[0])) <= 1e-9


@pytest.mark.parametrize("lam", [-1e5, -5.06e4])
def test_closed_form_overflow_reported(lam):
    # L sqrt(-lam) on (0, pi): 993 makes cmath overflow; 706.7 keeps cos and
    # sin finite but k^2 sin(kL)/k overflows
    with pytest.raises(TraceIntegrationError, match="overflow"):
        fundamental_traces(FREE, IntervalSet([(0.0, math.pi)]), lam, mu=1.0)


def test_integration_failure_reported(monkeypatch):
    # a jump of V between step nodes keeps the step halving at low order,
    # so 2048 and 4096 steps (the patched cap) disagree
    monkeypatch.setattr(spectral, "_MAX_ODE_STEPS", 4096)
    jump = CallablePotential(lambda x: np.where(x > 1.0 / 3.0, 50.0, 0.0))
    with pytest.raises(TraceIntegrationError, match="did not reach"):
        fundamental_traces(jump, IntervalSet([(0.0, 1.0)]), 0.5, mu=1.0)


@pytest.mark.parametrize("case", ["sampled", "constant"])
def test_integrated_overflow_reported(case):
    # cosh(sqrt(1e5) pi) and cosh(1e6) overflow float64: the first
    # integration is not finite and is reported as such, without halving
    table = _sampled_potential(0)
    calls = []

    def v(x):
        calls.append(x.size)
        return table.value(0, x) if case == "sampled" else np.full_like(x, 1e12)

    pot, lam = ((_sampled_table(v, table), -1e5) if case == "sampled"
                else (CallablePotential(v), 0.5))
    with pytest.raises(TraceIntegrationError, match="overflow"):
        fundamental_traces(pot, IntervalSet([(0.0, TWO_PI / 2)]), lam)
    assert 1 <= len(calls) <= 2


def _sampled_potential(seed, length=TWO_PI / 2, points=17):
    rng = np.random.default_rng(seed)
    return SampledPotential(np.linspace(0.0, length, points),
                            rng.uniform(0.0, 2.0, points))


def _sampled_table(value, table):
    """A sampled potential with ``table``'s knots whose values come from
    ``value(x)``, so a test can record the nodes V is tabulated at."""

    class Recorded(SampledPotential):
        def value(self, alpha, x):
            return value(np.asarray(x, dtype=float))

    return Recorded(table.x, table.v)


@pytest.mark.parametrize("steps", [1, 3, 1023])
@pytest.mark.parametrize("seed", range(3))
def test_transfer_matrix_rk4_matches_stepping_loop(seed, steps):
    # the vectorized RK4 reference against its stepping loop.  V ranges
    # over [0, 2]: lambda below, inside and above that range, two
    # intervals of the shared table, mu != 1
    pot = _sampled_potential(seed)
    for alpha, (a, b) in enumerate([(0.0, 1.2), (0.5, 3.0)]):
        for lam in (-3.0, 0.7, 25.0):
            for mu in (1.0, 0.35):
                ref = rk4_fundamental_loop(pot, alpha, a, b, lam, mu, steps)
                got = rk4_fundamental(pot, alpha, a, b, lam, mu, steps)
                assert got.dtype == complex and got.shape == (2, 2)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_transfer_matrix_rk4_nodes_match_stepping_loop():
    # the RK4 reference tabulates V at exactly the abscissae the stepping
    # loop visits
    seen = []

    def record(x):
        seen.append(np.array(x, copy=True))
        return np.zeros_like(x)

    a, b, steps = 0.1, 2.9, 777
    rk4_fundamental(CallablePotential(record), 0, a, b, 1.0, 1.0, steps)
    assert len(seen) == 3
    h = (b - a) / steps
    x, left, mid, right = a, [], [], []
    for _ in range(steps):
        left.append(x)
        mid.append(x + h / 2)
        right.append(x + h)
        x += h
    for got, ref in zip(seen, (left, mid, right)):
        assert np.array_equal(got, np.array(ref))


def _step_bounds(nodes):
    """Left and right ends of the steps whose three Gauss nodes are
    ``nodes``, laid out as one (3, m) array raveled."""
    x1, _, x3 = np.asarray(nodes).reshape(3, -1)
    c1, _, c3 = spectral._GAUSS_NODES
    h = (x3 - x1) / (c3 - c1)
    left = x1 - c1 * h
    return left, left + h


@pytest.mark.parametrize("shift", [0.0, 0.013, 0.3])
def test_magnus_steps_end_on_every_knot(shift):
    # every knot inside (a, b) is a step boundary, so each step lies on
    # one linear piece of the table; the knots outside are ignored
    table = SampledPotential(np.linspace(-0.5, 3.5, 23) + shift,
                             np.random.default_rng(7).uniform(0.0, 2.0, 23))
    seen = []

    def record(x):
        seen.append(x.copy())
        return table.value(0, x)

    a, b = 0.2, 2.9
    fundamental_traces(_sampled_table(record, table), IntervalSet([(a, b)]), 1.3)
    knots = table.x[(table.x > a) & (table.x < b)]
    for nodes in seen:
        left, right = _step_bounds(nodes)
        tol = 1e-12
        assert abs(left[0] - a) <= tol and abs(right[-1] - b) <= tol
        assert np.max(np.abs(left[1:] - right[:-1])) <= tol
        assert all(np.min(np.abs(left - k)) <= tol for k in knots)
        assert not np.any((left[:, None] < knots - tol)
                          & (knots + tol < right[:, None]))


def test_sampled_traces_tabulate_v_once_per_step_count():
    table = _sampled_potential(4)
    geom = IntervalSet([(0.0, TWO_PI / 2)])
    calls = []

    def count(x):
        calls.append(x.size)
        return table.value(0, x)

    # a table starts at 8 steps on each of its 16 equal linear pieces, a V that
    # declares no knots at 2048 steps; three Gauss nodes a step, one call
    # for each of the coarse and the fine integration
    fundamental_traces(_sampled_table(count, table), geom, 1.3)
    assert calls == [3 * 128, 3 * 256]
    calls.clear()
    fundamental_traces(CallablePotential(count), geom, 1.3)
    assert calls == [3 * 2048, 3 * 4096]
    # a whole scan, grid and refinement, tabulates V once per (interval,
    # step count): lambda = -3e4 needs four step counts, the other trial
    # lambdas fewer
    seen = []

    class Recorded(SampledPotential):
        def value(self, alpha, x):
            seen.append((alpha, x.size))
            return super().value(alpha, x)

    two = IntervalSet([(0.0, TWO_PI / 2), (0.5, 2.5)])
    bc = BoundaryCondition.from_matrix(random_unitary(4, np.random.default_rng(1)))
    roots = find_spectrum(bc, Recorded(table.x, table.v), two, (-3e4, 400.0),
                          grid_points=200)
    assert roots.size > 0
    assert len(seen) == len(set(seen))
    # (0.5, 2.5) holds nine whole pieces, 8 steps each, and end pieces
    # 0.45 and 0.73 of a whole one wide, 4 and 6 steps
    assert sorted(seen) == [(alpha, 3 * steps * 2**k)
                            for alpha, steps in ((0, 128), (1, 82))
                            for k in range(4)]


def test_magnus_step_maps_match_commutator_formula():
    # the multiplied-out exponent and the closed-form 2x2 exponential
    # against the published commutators and expm, on steps whose terms of
    # every order matter: growing, oscillating and near-zero exponents
    rng = np.random.default_rng(11)
    h = np.concatenate((rng.uniform(0.05, 1.5, 40), [0.3, 0.3]))
    q = np.concatenate((rng.uniform(-30.0, 30.0, (3, 40)),
                        [[0.0, 1e-9], [0.0, 1e-9], [0.0, 1e-9]]), axis=1)
    got = spectral._magnus_step_maps(q * h * h, h)
    for j in range(h.size):
        ref = magnus6_step_reference(q[:, j], h[j])
        assert np.max(np.abs(got[j] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_step_maps_round_alike_in_pure_and_mixed_batches():
    # a batch of growing and oscillating steps selects each map from both
    # branches; the growing and the oscillating steps alone evaluate one
    # branch each, and every map keeps its bits.  q varies by at most 0.1
    # across a step, so the exponent's determinant has the sign of q.
    rng = np.random.default_rng(12)
    h = rng.uniform(0.05, 1.5, 64)
    plateau = rng.choice([-1.0, 1.0], 64) * rng.uniform(0.5, 30.0, 64)
    z = (plateau + rng.uniform(-0.05, 0.05, (3, 64))) * h * h
    mixed = spectral._magnus_step_maps(z, h)
    grows = plateau > 0
    assert 0 < grows.sum() < grows.size
    for part in (grows, ~grows):
        alone = spectral._magnus_step_maps(z[:, part], h[part])
        assert alone.tobytes() == mixed[part].tobytes()


@pytest.mark.parametrize("lengths", [(1, 3, 5, 7), (3, 6), (128, 256), (1024, 2048)],
                         ids=["odd-1-3-5-7", "m3", "m128", "m1024"])
def test_joint_reduction_equals_each_stack_alone(lengths):
    # the stacks of one reduction, padded by the identity at odd lengths,
    # give each stack's ordered product alone, bit for bit
    rng = np.random.default_rng(sum(lengths))
    stacks = [rng.standard_normal((5, m, 2, 2)) for m in lengths]
    joint = spectral._ordered_product(stacks)
    assert joint.shape == (len(lengths), 5, 2, 2)
    for mats, product in zip(stacks, joint):
        assert product.tobytes() == ordered_product_reference(mats).tobytes()
        assert product.tobytes() == spectral._ordered_product([mats])[0].tobytes()


def test_scattering_matrix_equals_entrywise_reference():
    # the scale of T from one stack, one division: the same bits as the
    # scale from the four entries one by one, down to traces of 1e150; and
    # S written through strided slices of its flat view: the same bits as
    # S written through index arrays, for 1, 2, 3 and 5 intervals, a lone
    # lambda (no leading axis) and a 2-d stack included
    rng = np.random.default_rng(31)
    for shape in ((1, 1), (8, 1), (300, 3), (2,), (4, 5), (2, 3, 2)):
        for size in (1.0, 1e3, 1e150):
            psi_r = size * rng.standard_normal(shape + (2,))
            dpsi_r = size * rng.standard_normal(shape + (2,))
            got = spectral._scattering_matrix(psi_r, dpsi_r)
            ref = scattering_matrix_reference(psi_r, dpsi_r)
            assert got.shape == shape[:-1] + (2 * shape[-1],) * 2
            assert got.tobytes() == ref.tobytes()


def test_magnus_is_sixth_order_on_smooth_potential():
    # successive step-halving differences on V = cos x fall by about
    # 2**6; a wrong commutator coefficient still converges, at lower order
    pot = CallablePotential(np.cos)
    geom = IntervalSet([(0.0, 3.0)])
    states = [_magnus_state(pot, geom, m, 2.0) for m in (4, 8, 16, 32, 64)]
    diffs = [np.max(np.abs(fine - coarse))
             for coarse, fine in zip(states, states[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert coarse / fine >= 2**5


def _piecewise_reference(pot, a, b, lam):
    # 32768 RK4 steps per piece for |lambda| >= 1e4, where 4096 are
    # themselves off by about 1e-6
    per_piece = 32768 if abs(lam) >= 1e4 else 4096
    return rk4_piecewise(pot, 0, a, b, lam, 1.0, per_piece)


def _table_40():
    rng = np.random.default_rng(40)
    return SampledPotential(np.linspace(0.0, 6.0, 40), rng.uniform(0.0, 2.0, 40))


def _table_shifted():
    rng = np.random.default_rng(17)
    return SampledPotential(np.linspace(0.0, TWO_PI / 2, 17) + 0.013,
                            rng.uniform(0.0, 2.0, 17))


def _table_random():
    # non-uniform knots reaching past both ends: V clamps outside them
    rng = np.random.default_rng(5)
    return SampledPotential(np.sort(rng.uniform(-0.5, 3.6, 23)),
                            rng.uniform(0.0, 2.0, 23))


@pytest.mark.parametrize("table, b, lam", [
    (_table_40, 6.0, 1.3),
    (_table_shifted, TWO_PI / 2, 1.3),
    (_table_random, TWO_PI / 2, 25.0),
    (lambda: _sampled_potential(0), TWO_PI / 2, -3e4),
], ids=["40-knots", "shifted-17", "random-knots", "17-knots-below"])
def test_sampled_traces_match_piecewise_rk4(table, b, lam):
    # knots off the step grid used to stall RK4's step halving at second
    # order: the 40-knot table reached 2**17 steps, and lambda = -3e4
    # never reached rtol
    pot = table()
    traces = fundamental_traces(pot, IntervalSet([(0.0, b)]), lam)
    got = np.array([traces.psi_r[0], traces.dpsi_r[0]])
    ref = _piecewise_reference(pot, 0.0, b, lam)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_unequal_pieces_take_steps_in_proportion_to_width():
    # the random-knot table's 17 pieces on (0, pi) are 0.012 to 0.53 wide.
    # With 8 first steps on every piece it accepted at 2176 steps (128 on
    # each) at lambda = 400; in proportion to width it takes 928, with the
    # same number of doublings
    table = _table_random()
    sizes = []

    def count(x):
        sizes.append(x.size)
        return table.value(0, x)

    geom = IntervalSet([(0.0, TWO_PI / 2)])
    traces = fundamental_traces(_sampled_table(count, table), geom, 400.0)
    assert len(sizes) == 5
    assert sizes[-1] < 3 * 2176
    got = np.array([traces.psi_r[0], traces.dpsi_r[0]])
    ref = _piecewise_reference(table, 0.0, TWO_PI / 2, 400.0)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_dense_table_stays_within_step_cap():
    # 20000 pieces: fewer first steps per piece keep the fine count
    # within 2**17.  Linear interpolation of sin 3x on the table is off by
    # up to 3e-9, which bounds the agreement with the smooth V.
    x = np.linspace(0.0, 1.0, 20001)
    pot = SampledPotential(x, np.sin(3.0 * x))
    traces = fundamental_traces(pot, IntervalSet([(0.0, 1.0)]), 2.0)
    got = np.array([traces.psi_r[0], traces.dpsi_r[0]])
    ref = rk4_fundamental(CallablePotential(lambda t: np.sin(3.0 * t)),
                          0, 0.0, 1.0, 2.0, 1.0, 4096)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_non_finite_potential_in_integration_raises_potential_error():
    nan_tail = CallablePotential(lambda x: np.where(x > 0.8, np.nan, 1.0))
    with pytest.raises(PotentialError, match="not finite"):
        fundamental_traces(nan_tail, IntervalSet([(0.0, 1.0)]), 0.5)


def test_sampled_find_spectrum_is_deterministic():
    pot = _sampled_potential(2)
    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(2)))
    geom = IntervalSet([(0.0, TWO_PI / 2)])
    first, second = (
        find_spectrum(bc, pot, geom, (1.5, 2.5), mu=0.5, grid_points=48)
        for _ in range(2)
    )
    assert first.size > 0
    assert first.tobytes() == second.tobytes()


# ------------------------------------------------------------ determinant paths

@pytest.mark.parametrize("seed", range(10))
def test_block_path_equals_closed_form(seed):
    rng = np.random.default_rng(seed)
    bc = BoundaryCondition.from_matrix(random_unitary(2, rng))
    lam = float(rng.uniform(-2.0, 12.0))
    traces = fundamental_traces(FREE, GEOM, lam, mu=1.0)
    d_block = spectral_matrix(bc, traces).detval
    d_closed = spectral_det_closed_1(bc, traces)
    scale = max(1.0, float(np.max(np.abs(traces.psi_r))) ** 2)
    assert abs(d_block - d_closed) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(10))
def test_parametrized_form_equals_closed_form(seed):
    rng = np.random.default_rng(100 + seed)
    theta = float(rng.uniform(0, 2 * math.pi))
    alpha = rng.standard_normal() + 1j * rng.standard_normal()
    beta = rng.standard_normal() + 1j * rng.standard_normal()
    norm = math.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / norm, beta / norm
    u = unitary_from_su2_phase(theta, alpha, beta)
    bc = BoundaryCondition.from_matrix(u, ordering="block")
    lam = float(rng.uniform(0.05, 10.0))
    traces = exponential_traces(GEOM, lam, 0.5, [0.0])
    d1 = spectral_det_closed_1(bc, traces)
    d2 = spectral_det_parametrized(theta, alpha, beta, traces)
    assert abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1))


def test_worked_free_particle_formula():
    # mass 1/2 on [0, 2pi], exponential basis: the determinant reduces to
    # a trigonometric expression in sqrt(2 lam).
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * math.pi))
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        norm = math.hypot(abs(alpha), abs(beta))
        alpha, beta = alpha / norm, beta / norm
        lam = float(rng.uniform(0.05, 9.0))
        k = np.sqrt(complex(2 * lam))
        s, c = np.sin(TWO_PI * k), np.cos(TWO_PI * k)
        formula = (
            -2j * (1 + 2 * lam) * s - 4 * k * c
            + np.exp(1j * theta / 2)
            * (4j * alpha.real * (1 - 2 * lam) * s + 8j * beta.imag * k)
            + np.exp(1j * theta) * (-2j * (1 + 2 * lam) * s + 4 * k * c)
        )
        traces = exponential_traces(GEOM, lam, 0.5, [0.0])
        bc = BoundaryCondition.from_matrix(
            unitary_from_su2_phase(theta, alpha, beta), ordering="block"
        )
        value = spectral_matrix(bc, traces).detval
        assert abs(value - formula) <= 1e-11 * max(1.0, abs(formula))


def test_spectral_matrix_shape_and_det():
    traces = fundamental_traces(FREE, GEOM, 0.7, mu=1.0)
    bc = BoundaryCondition.dirichlet(1)
    sm = spectral_matrix(bc, traces)
    assert sm.m.shape == (2, 2)
    assert sm.detval == pytest.approx(np.linalg.det(sm.m))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_matrix_equals_index_arithmetic_reference(n):
    rng = np.random.default_rng(70 + n)
    geom = IntervalSet([(2.0 * k, 2.0 * k + rng.uniform(0.5, 1.9))
                        for k in range(n)])
    for case in range(100):
        bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng),
                                           ordering="block")
        if case % 2:
            traces = fundamental_traces(ConstantPotential(rng.uniform(-2.0, 2.0, n)),
                                        geom, rng.uniform(-5.0, 30.0), mu=1.0)
        else:
            lam, mu = rng.uniform(-5.0, 30.0), 1.0
            psi_l, dpsi_l, psi_r, dpsi_r = (
                rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
                for _ in range(4))
            traces = FundamentalTraces(lam, mu, psi_l, dpsi_l, psi_r, dpsi_r)
        m = spectral_matrix(bc, traces).m
        assert np.array_equal(m, spectral_matrix_reference(bc, traces))


# ----------------------------------------------------------------- root finding

def test_dirichlet_roots_quarter_squares():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 5.0), mu=1.0
    )
    assert np.allclose(roots, [0.25, 1.0, 2.25, 4.0], atol=1e-8)


def test_dirichlet_roots_half_mass():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.05, 1.3), mu=0.5
    )
    assert np.allclose(roots, [0.125, 0.5, 1.125], atol=1e-8)


def test_periodic_roots_with_multiplicity():
    roots = find_spectrum(
        BoundaryCondition.quasi_periodic(0.0), FREE, GEOM, (-0.5, 4.5), mu=1.0
    )
    assert roots.size == 5
    assert abs(roots[0]) <= 1e-8
    assert np.allclose(roots[1:], [1.0, 1.0, 4.0, 4.0], atol=1e-8)


def test_empty_range_is_empty():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (-10.0, -5.0), mu=1.0
    )
    assert roots.size == 0


def test_roots_stable_under_grid_halving():
    bc = BoundaryCondition.dirichlet(1)
    coarse = find_spectrum(bc, FREE, GEOM, (0.1, 5.0), mu=1.0, grid_points=4000)
    fine = find_spectrum(bc, FREE, GEOM, (0.1, 5.0), mu=1.0, grid_points=8000)
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse - fine)) <= 10 * 1e-10 * np.maximum(
        1.0, np.abs(coarse)
    ).max()


@pytest.mark.parametrize("hi", [6.2, 6.3])
def test_range_end_is_exact(hi):
    # the root 6.25 sits just outside, then just inside the range
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, hi), mu=1.0
    )
    expected = [k * k / 4 for k in range(1, 6) if k * k / 4 < hi]
    assert roots.size == len(expected)
    assert np.allclose(roots, expected, atol=1e-8)


def test_scan_output_has_raw_determinant():
    roots, scan = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 2.0),
        mu=1.0, grid_points=256, return_scan=True,
    )
    assert scan.lam.size == 256
    assert np.all(scan.absdet >= 0)
    assert np.allclose(np.hypot(scan.redet, scan.imdet), scan.absdet, rtol=1e-12)


def test_constant_potential_shifts_roots():
    # Dirichlet with V = 2: lambda = 2 + k^2/4
    pot = ConstantPotential([2.0])
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), pot, GEOM, (2.1, 6.1), mu=1.0
    )
    assert np.allclose(roots, [2.25, 3.0, 4.25, 6.0], atol=1e-8)


def test_fem_cross_check_single_random_extension():
    from saext.boundary import assemble_boundary_system, solve_boundary_values
    from saext.eigen import solve_pencil
    from saext.fem import assemble_pencil
    from saext.geometry import build_mesh

    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(3)))
    mesh = build_mesh(GEOM, 800)
    vals = solve_boundary_values(assemble_boundary_system(bc, mesh))
    sol = solve_pencil(assemble_pencil(mesh, bc, vals), count=5)
    fem = sol.eigenvalues
    lo = fem[0] - max(0.1, 0.01 * abs(fem[0]))
    roots = find_spectrum(bc, FREE, GEOM, (lo, fem[-1] + 0.5), mu=1.0)
    assert roots.size >= 5
    rel = np.abs(roots[:5] - fem) / np.maximum(1.0, np.abs(roots[:5]))
    assert np.max(rel) <= 1e-3


# ------------------------------------------------------------ eigenphase flow

def _ring_levels(theta):
    return np.sort([(m + theta / TWO_PI) ** 2 for m in range(-3, 4)])


@pytest.mark.parametrize("theta", [1e-3, 1e-4])
def test_split_periodic_pairs_are_all_found(theta):
    # the pairs (m +- theta / 2 pi)^2 are 6e-4 and 6e-5 apart near 1
    roots = find_spectrum(
        BoundaryCondition.quasi_periodic(theta), FREE, GEOM, (-0.5, 10.0)
    )
    assert roots.size == 7
    assert np.max(np.abs(roots - _ring_levels(theta))) <= 1e-8


@pytest.mark.parametrize("theta", [0.0, 1e-3, 1e-4])
def test_root_count_stable_under_grid_halving(theta):
    # down to 12 points, where a scan cell holds two levels and the phase
    # of det W advances by more than 2 pi across it: the cells are halved
    # until their counts are exact
    bc = BoundaryCondition.quasi_periodic(theta)
    for grid in (3000, 1500, 750, 375, 188, 94, 47, 24, 12):
        roots = find_spectrum(bc, FREE, GEOM, (-0.5, 10.0), grid_points=grid)
        assert roots.size == 7
        assert np.max(np.abs(roots - _ring_levels(theta))) <= 1e-8


def _counted_batches(monkeypatch):
    """The sizes of the batches of trial lambdas traced from now on."""
    sizes = []
    batched = spectral._RightTraces.__call__

    def counted(self, lam):
        sizes.append(np.size(lam))
        return batched(self, lam)

    monkeypatch.setattr(spectral._RightTraces, "__call__", counted)
    return sizes


def test_refinement_needs_few_trace_evaluations_per_root(monkeypatch):
    # regula falsi on the crossing eigenphase; bisection alone needs ~29.
    # The scan evaluates traces in batches, so count trial lambdas.
    sizes = _counted_batches(monkeypatch)
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 5.0), grid_points=64
    )
    assert roots.size == 4
    assert sizes[0] == 64
    assert len(sizes) - 1 <= 6
    assert sum(sizes) - 64 <= 6 * roots.size


@pytest.mark.parametrize("seed", range(4))
def test_narrow_sampled_scan_needs_at_most_five_refinement_rounds(seed, monkeypatch):
    # the oracle-sampled benchmark's shape: a 17-point table on (0, pi), a
    # random 2x2 U and 8 grid points on s_c (1 -+ 0.03) in s = sqrt(lambda)
    # around one level s_c^2.  A midpoint every third round took 7 or 8.
    pot = _sampled_potential(seed)
    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(seed)))
    geom = IntervalSet([(0.0, TWO_PI / 2)])
    levels = find_spectrum(bc, pot, geom, (2.0, 12.0), grid_points=200)
    s_c = math.sqrt(levels[0])
    window = ((0.97 * s_c) ** 2, (1.03 * s_c) ** 2)
    sizes = _counted_batches(monkeypatch)
    roots = find_spectrum(bc, pot, geom, window, grid_points=8)
    assert sizes[0] == 8
    assert len(sizes) - 1 <= 5
    expected = levels[(levels > window[0]) & (levels < window[1])]
    assert roots.size == expected.size == 1
    assert abs(roots[0] - expected[0]) <= spectral.REFINE_WIDTH * max(1.0, roots[0])


def test_strongly_curved_crossing_phase_converges(monkeypatch):
    # W = diag(exp(i theta(lambda)), -1) with theta = 1e-3 (exp(40 (lambda
    # - 0.3)) - 1): across the last bracket the crossing phase is nearly
    # flat at the root and steep at the right end, where plain regula falsi
    # creeps up on the root from the left, keeping the right end (149
    # rounds with the half-width clamp alone, 74 when the kept end's phase
    # is halved only once, 20 with a midpoint every third round)
    root = 0.3

    class LambdaTraces:
        def __init__(self, *args):
            pass

        def __call__(self, lam):
            lam = np.asarray(lam, dtype=float)[:, None, None]
            return lam, lam

    def scattering(psi_r, dpsi_r):
        lam = psi_r[..., 0, 0]
        s = np.zeros(lam.shape + (2, 2), dtype=complex)
        s[..., 0, 0] = np.exp(1j * 1e-3 * np.expm1(40.0 * (lam - root)))
        s[..., 1, 1] = -1.0
        return s

    monkeypatch.setattr(spectral, "_RightTraces", LambdaTraces)
    monkeypatch.setattr(spectral, "_scattering_matrix", scattering)
    phases = []
    wrapped = spectral._wrapped_phases
    monkeypatch.setattr(spectral, "_wrapped_phases",
                        lambda w: phases.append(len(w)) or wrapped(w))
    roots = find_spectrum(BoundaryCondition.from_matrix(np.eye(2)), FREE,
                          IntervalSet([(0.0, 1.0)]), (0.01, 0.5), grid_points=8)
    assert roots.size == 1
    assert abs(roots[0] - root) <= spectral.REFINE_WIDTH
    assert len(phases) - 1 <= 12


def test_deep_level_is_reported_once():
    # two intervals of length 2, zero V, a level near -74.63 whose traces
    # grow like e^17: FEM's inertia count has exactly one level there
    from saext.boundary import assemble_boundary_system, solve_boundary_values
    from saext.eigen import _negative_count, solve_pencil
    from saext.fem import assemble_pencil
    from saext.geometry import build_mesh

    bc = BoundaryCondition.from_matrix(random_unitary(4, np.random.default_rng(1285)))
    geom = IntervalSet([(0.0, 2.0), (3.0, 5.0)])
    lo, hi = -76.0, -73.5
    roots = find_spectrum(bc, FREE, geom, (lo, hi))
    mesh = build_mesh(geom, 400)
    pencil = assemble_pencil(
        mesh, bc, solve_boundary_values(assemble_boundary_system(bc, mesh)))
    nu = [_negative_count(*pencil.arrow.minus(x)) for x in (lo, hi)]
    assert roots.size == nu[1] - nu[0] == 1
    # conforming FEM lies above the exact level
    fem = solve_pencil(pencil, count=1).eigenvalues[0]
    assert roots[0] <= fem <= roots[0] + 2e-3 * abs(roots[0])


def _secular(bc, potential, geom, lam, mu=1.0):
    return secular_matrix(bc, fundamental_traces(potential, geom, lam, mu=mu))


@pytest.mark.parametrize("lam", [-2000.0, -300.0, -75.0, 0.0, 5.5])
def test_secular_matrix_is_unitary(lam):
    # the transfer-matrix entries reach 1e122 at -2000 on the ring
    cases = [
        (BoundaryCondition.quasi_periodic(1e-3), GEOM),
        (BoundaryCondition.from_matrix(random_unitary(4, np.random.default_rng(7))),
         IntervalSet([(0.0, 1.0), (0.0, 2.6)])),
    ]
    for bc, geom in cases:
        w = _secular(bc, FREE, geom, lam)
        assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) <= 1e-12


def test_secular_matrix_eigenvalue_one_at_the_levels():
    # Dirichlet on (0, 2 pi): W has eigenvalue 1 exactly at k^2 / 4
    bc = BoundaryCondition.dirichlet(1)
    for lam, ones in ((0.25, 1), (1.0, 1), (0.6, 0)):
        phases = np.angle(np.linalg.eigvals(_secular(bc, FREE, GEOM, lam)))
        assert np.sum(np.abs(phases) <= 1e-12) == ones


@pytest.mark.parametrize("seed", range(3))
def test_secular_matrix_eigenvalue_one_where_det_m_vanishes(seed):
    # at each root the scan reports, W has eigenvalue 1 and det M, built
    # from the same traces through the block algebra, vanishes
    rng = np.random.default_rng(40 + seed)
    bc = BoundaryCondition.from_matrix(random_unitary(4, rng))
    geom = IntervalSet([(0.0, 1.0), (0.0, 2.6)])
    for root in find_spectrum(bc, FREE, geom, (-3.0, 12.0)):
        traces = fundamental_traces(FREE, geom, root)
        phases = np.angle(np.linalg.eigvals(secular_matrix(bc, traces)))
        assert np.min(np.abs(phases)) <= 1e-8
        # each term of det M carries two traces per interval
        scale = np.prod(np.abs(traces.psi_r).max(axis=1) + 1.0) ** 2
        assert abs(spectral_matrix(bc, traces).detval) <= 1e-9 * scale


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["zero", "constant", "sampled"])
def test_eigenphases_increase_with_lambda(seed, kind):
    # -i W^H dW/dlambda is hermitian positive definite, so every
    # eigenphase of W increases; checked by central differences
    rng = np.random.default_rng(500 + seed)
    n = 1 + seed % 2
    geom = GEOM if n == 1 else IntervalSet([(0.0, 1.0), (0.0, 2.0)])
    bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
    potential = {
        "zero": FREE,
        "constant": ConstantPotential(rng.uniform(-2.0, 3.0, n)),
        "sampled": _sampled_potential(seed, length=TWO_PI),
    }[kind]
    h = 1e-5
    for lam in rng.uniform(-20.0, 15.0, 6):
        w = _secular(bc, potential, geom, lam)
        dw = (_secular(bc, potential, geom, lam + h)
              - _secular(bc, potential, geom, lam - h)) / (2 * h)
        gen = -1j * w.conj().T @ dw
        herm = (gen + gen.conj().T) / 2
        assert np.max(np.abs(gen - herm)) <= 1e-6 * np.max(np.abs(herm))
        assert np.min(np.linalg.eigvalsh(herm)) > 0


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_fundamental_traces_rejects_bad_mass_factor(mu):
    with pytest.raises(ValueError, match="mu"):
        fundamental_traces(FREE, GEOM, 1.0, mu=mu)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_fundamental_traces_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
        fundamental_traces(FREE, GEOM, lam)


@pytest.mark.parametrize("grid_points", [0, -3])
def test_find_spectrum_rejects_grid_points_below_one(grid_points):
    bc = BoundaryCondition.dirichlet(1)
    with pytest.raises(ValueError, match=f"grid_points must be at least 1, got {grid_points}"):
        find_spectrum(bc, FREE, GEOM, (0.1, 5.0), grid_points=grid_points)
    # a count of 1 to 7 is raised to 8
    assert np.array_equal(find_spectrum(bc, FREE, GEOM, (0.1, 5.0), grid_points=1),
                          find_spectrum(bc, FREE, GEOM, (0.1, 5.0), grid_points=8))


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
def test_find_spectrum_rejects_bad_mass_factor(mu):
    with pytest.raises(ValueError, match="mu"):
        find_spectrum(BoundaryCondition.dirichlet(1), FREE, GEOM, (0.0, 2.0), mu=mu)


# -------------------------------------------- batched oracle against scalar paths

EQUIVALENCE_LAMBDAS = np.array([-3e4, -50.0, 0.7, 25.0, 400.0, 1e4])


def _equivalence_cases():
    """(potential, geometry) pairs on 1 to 3 intervals, none longer than
    3.5, where every lambda of ``EQUIVALENCE_LAMBDAS`` stays finite."""
    return [
        (_sampled_potential(0), IntervalSet([(0.0, TWO_PI / 2)])),
        (_table_40(), IntervalSet([(0.0, 3.1), (2.5, 6.0)])),
        (_table_random(), IntervalSet([(0.0, 1.2), (1.0, 2.2), (2.0, 3.4)])),
        (CallablePotential(lambda x: 1.0 + np.cos(3.0 * x)),
         IntervalSet([(0.0, 1.0), (0.5, 2.5)])),
    ]


@pytest.mark.parametrize("case", range(4),
                         ids=["17-knots", "40-knots", "random-knots", "callable"])
def test_batched_magnus_traces_equal_scalar_reference(case):
    # one batch of all six lambdas against the scalar step-halving loop,
    # bit for bit; the columns accept at different step counts
    potential, geom = _equivalence_cases()[case]
    for mu in (1.0, 2.5):
        psi_r, dpsi_r = spectral._RightTraces(potential, geom, mu)(EQUIVALENCE_LAMBDAS)
        for i, lam in enumerate(EQUIVALENCE_LAMBDAS):
            ref = fundamental_traces_reference(potential, geom, float(lam), mu)
            assert np.array_equal(psi_r[i], ref.psi_r.real)
            assert np.array_equal(dpsi_r[i], ref.dpsi_r.real)
            one = fundamental_traces(potential, geom, lam, mu=mu)
            assert one.psi_r.tobytes() == ref.psi_r.tobytes()
            assert one.dpsi_r.tobytes() == ref.dpsi_r.tobytes()


def test_batch_columns_accept_at_different_step_counts():
    # lambda = 1e4 needs 2048 steps on the 17-knot table, 0.7 only 256:
    # one batch tabulates V at every count up to the largest, once
    table = _sampled_potential(0)
    sizes = []

    def count(x):
        sizes.append(x.size)
        return table.value(0, x)

    pot = _sampled_table(count, table)
    geom = IntervalSet([(0.0, TWO_PI / 2)])
    spectral._RightTraces(pot, geom, 1.0)(EQUIVALENCE_LAMBDAS)
    assert sizes == [3 * 128, 3 * 256, 3 * 512, 3 * 1024, 3 * 2048]
    sizes.clear()
    spectral._RightTraces(pot, geom, 1.0)(np.array([0.7]))
    assert sizes == [3 * 128, 3 * 256]


def test_batched_closed_form_equals_cmath_reference():
    # numpy's complex sqrt, cos and sin agree with cmath on the real and
    # imaginary arguments that real lambda and V give, and sin(kL) / k is
    # one real division: the bound is 0 ulp, signs of zero included
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        geom = IntervalSet([(2.0 * k, 2.0 * k + rng.uniform(0.3, 3.0))
                            for k in range(n)])
        constants = rng.uniform(-5.0, 5.0, n)
        lams = np.concatenate((rng.uniform(-2000.0, 3000.0, 60), constants, [0.0]))
        for mu in (1.0, 0.5, 2.7):
            right = spectral._RightTraces(ConstantPotential(constants), geom, mu)
            psi_r, dpsi_r = right(lams)
            for i, lam in enumerate(lams):
                ref = closed_form_traces_reference(geom, float(lam), mu, list(constants))
                assert psi_r[i].tobytes() == ref[2].real.tobytes()
                assert dpsi_r[i].tobytes() == ref[3].real.tobytes()


def _scan_cases():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        geom = IntervalSet([(2.0 * k, 2.0 * k + rng.uniform(0.5, 2.5))
                            for k in range(n)])
        bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
        yield "constant", bc, ConstantPotential(rng.uniform(-2.0, 3.0, n)), geom
        table = SampledPotential(np.linspace(0.0, 8.0, 17), rng.uniform(0.0, 2.0, 17))
        yield "sampled", bc, table, geom


def test_find_spectrum_equals_scalar_reference_scan():
    # sampled V: identical roots; constant V: within REFINE_WIDTH
    # max(1, |lambda|), and in fact identical too (largest deviation 0).
    # The raw det M of scan.csv is identical byte for byte.
    found = 0
    for kind, bc, potential, geom in _scan_cases():
        roots, scan = find_spectrum(bc, potential, geom, (-5.0, 40.0),
                                    grid_points=300, return_scan=True)
        ref, (lam_grid, det) = find_spectrum_reference(
            bc, potential, geom, (-5.0, 40.0), grid_points=300, return_scan=True)
        assert roots.size == ref.size
        found += roots.size
        if kind == "sampled":
            assert roots.tobytes() == ref.tobytes()
        else:
            width = spectral.REFINE_WIDTH * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(roots - ref) <= width)
            assert np.max(np.abs(roots - ref), initial=0.0) == 0.0
        assert scan.lam.tobytes() == lam_grid.tobytes()
        assert scan.redet.tobytes() == det.real.tobytes()
        assert scan.imdet.tobytes() == det.imag.tobytes()
    assert found > 50


def test_default_grid_scan_memory_is_bounded(monkeypatch):
    # about 8300 trial lambdas in batches of at most _BATCH_ELEMENTS
    # lambda-steps: the peak reads 13 MiB, and one batch of all of them
    # reads 980 MiB.  A V without knots starts
    # at 256 steps here instead of 2048, which keeps the two scans short;
    # the batches are bounded in lambda-steps, so the peak does not
    # depend on it.  Chunking changes no root.
    monkeypatch.setattr(spectral, "_ODE_STEPS", 256)
    potential = CallablePotential(lambda x: 1.0 + np.cos(x))
    geom = IntervalSet([(0.0, math.pi)])
    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(3)))
    tracemalloc.start()
    try:
        roots = find_spectrum(bc, potential, geom, (-1.0, 10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    assert roots.size == 4
    ref = find_spectrum_reference(bc, potential, geom, (-1.0, 10.0))
    assert roots.tobytes() == ref.tobytes()


# ----------------------------------------------------------- error parity

def _first_grid_lambda(lo):
    """The first trial lambda of a scan from ``lo``, as the grid rounds it."""
    s = -math.sqrt(-lo)
    return float(np.sign(s) * s * s)


def test_scan_overflow_names_first_lambda():
    # lambda = -1e5 on (0, pi) overflows float64 at the first step count;
    # the batch raises at once, naming the lowest lambda of the grid
    table = _sampled_potential(0)
    calls = []

    def count(x):
        calls.append(x.size)
        return table.value(0, x)

    pot = _sampled_table(count, table)
    with pytest.raises(TraceIntegrationError, match="overflow") as info:
        find_spectrum(BoundaryCondition.dirichlet(1), pot,
                      IntervalSet([(0.0, TWO_PI / 2)]), (-1e5, 10.0), grid_points=64)
    assert repr(_first_grid_lambda(-1e5)) in str(info.value)
    assert 1 <= len(calls) <= 2


def test_batch_with_one_nan_node_raises_potential_error():
    table = _sampled_potential(0)

    def one_nan(x):
        v = table.value(0, x)
        v[v.size // 3] = np.nan
        return v

    with pytest.raises(PotentialError, match="not finite"):
        find_spectrum(BoundaryCondition.dirichlet(1), _sampled_table(one_nan, table),
                      IntervalSet([(0.0, TWO_PI / 2)]), (0.5, 5.0), grid_points=16)


def test_under_resolved_scan_did_not_reach(monkeypatch):
    # as test_integration_failure_reported, for a whole batch
    monkeypatch.setattr(spectral, "_MAX_ODE_STEPS", 4096)
    jump = CallablePotential(lambda x: np.where(x > 1.0 / 3.0, 50.0, 0.0))
    with pytest.raises(TraceIntegrationError, match="did not reach"):
        find_spectrum(BoundaryCondition.dirichlet(1), jump,
                      IntervalSet([(0.0, 1.0)]), (0.5, 60.0), grid_points=16)
