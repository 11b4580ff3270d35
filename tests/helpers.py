"""What only the tests use: state comparisons, zero fields, the
stream-function velocity, the vorticity-form cross-check of the primitive
stepper, the batch oracle of the online stopping monitor and the
stopping-record reader."""

from dataclasses import replace

import numpy as np

from slicelab.dynamics import _advect, _rk4_arrays
from slicelab.errors import ConfigError
from slicelab.grid import (ScalarField, VectorField, axis_derivative_modes,
                           derivative_values, from_modes, scalar_field,
                           to_modes, vector_field)
from slicelab.incompressible import velocity_from_vorticity
from slicelab.state import Params, SimState, state_arrays
from slicelab.stochastic import _KINDS, StoppingRecord


def states_close(a: SimState, b: SimState, tol: float) -> bool:
    return all(np.max(np.abs(x - y)) <= tol
               for x, y in zip(state_arrays(a), state_arrays(b)))


def state_max_abs_diff(a: SimState, b: SimState) -> float:
    return max(float(np.max(np.abs(x - y))) if x.size else 0.0
               for x, y in zip(state_arrays(a), state_arrays(b)))


def with_time(state: SimState, t: float) -> SimState:
    return replace(state, t=float(t))


def zero_scalar(grid, basis=None) -> ScalarField:
    return ScalarField(grid, np.zeros((grid.nz, grid.nx)), basis)


def streamfunction_velocity(psi: ScalarField) -> VectorField:
    """grad-perp(psi): divergence-free by construction, wall-tangent on the
    square when psi is sine-sine."""
    g = psi.grid
    c = to_modes(g, psi.values, psi.basis)
    ux, bux = axis_derivative_modes(g, -c, psi.basis, "z")
    uz, buz = axis_derivative_modes(g, c, psi.basis, "x")
    return vector_field(g, from_modes(g, ux, bux), from_modes(g, uz, buz))


def rhs_vorticity(omega: ScalarField, u_t: ScalarField, theta_s: ScalarField,
                  params: Params):
    """Vorticity-form tendencies (domega, du_T, dtheta_S).

    u_S is recovered from omega by the Biot-Savart solve; the couplings are
    the curl of the primitive ones: domega = -(u.grad)omega - f d_z u_T
    + (g/theta0) d_x theta_S.
    """
    g = omega.grid
    u = velocity_from_vorticity(omega)
    ux, uz = u.x.values, u.z.values
    co = to_modes(g, omega.values, omega.basis)
    ct = to_modes(g, u_t.values, u_t.basis)
    cs = to_modes(g, theta_s.values, theta_s.basis)
    domega = (-_advect(g, ux, uz, co, omega.basis)
              - params.f * derivative_values(g, ct, u_t.basis, 0, 1)[0]
              + params.buoyancy * derivative_values(g, cs, theta_s.basis,
                                                    1, 0)[0])
    dut = (-_advect(g, ux, uz, ct, u_t.basis) - params.f * ux
           - params.buoyancy * params.s * g.z_weight)
    dth = -_advect(g, ux, uz, cs, theta_s.basis) - params.s * u_t.values
    return (scalar_field(g, domega, omega.basis),
            scalar_field(g, dut, u_t.basis),
            scalar_field(g, dth, theta_s.basis))


def step_rk4_vorticity(omega: ScalarField, u_t: ScalarField,
                       theta_s: ScalarField, params: Params, dt: float):
    """One RK4 step of the (omega, u_T, theta_S) triple.  It solves the flow
    of the primitive stepper through different discrete operators, so the
    two trajectories agree to discretization accuracy, not bitwise."""
    g = omega.grid
    bases = (omega.basis, u_t.basis, theta_s.basis)

    def f(t, y):
        fields = [scalar_field(g, v, b) for v, b in zip(y, bases)]
        return tuple(o.values for o in rhs_vorticity(*fields, params))

    y1 = _rk4_arrays((omega.values, u_t.values, theta_s.values), f, 0.0, dt)
    return tuple(scalar_field(g, v, b) for v, b in zip(y1, bases))


def stopping_monitor(times, values, kind: str,
                     threshold: float) -> StoppingRecord:
    """Batch first-crossing scan of a recorded series (the oracle form)."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown monitor kind {kind!r}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ConfigError("times and values must have matching shapes")
    for t, v in zip(times, values):
        if v >= threshold:
            return StoppingRecord(kind, float(threshold), True, float(t),
                                  float(v))
    peak = float(values.max()) if values.size else 0.0
    return StoppingRecord(kind, float(threshold), False, None, peak)


def read_stopping_record(path) -> StoppingRecord:
    with open(path, "r", encoding="ascii") as fh:
        kv = dict((k.strip(), v.strip()) for k, _, v in
                  (line.partition("=") for line in fh if "=" in line))
    t = kv.get("trigger_time")
    return StoppingRecord(kv["kind"], float(kv["threshold"]),
                          kv["triggered"] == "yes",
                          None if t is None else float(t),
                          float(kv["trigger_value"]))
