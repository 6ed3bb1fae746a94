"""Reference oracles for the DAE residuals and Jacobians.

Jacobians: central differences at steps h and h/2, combined by one
Richardson extrapolation, ``(4 D(h/2) - D(h)) / 3``, so the truncation
error is of order h^4.  droope itself uses only its analytic Jacobian; this
oracle lives in the tests to check it, and backs the ``jacobian`` method of
the small stand-in DAEs the solver tests use.

Residuals: ``reference_f`` and ``reference_g`` evaluate ``f`` and ``g`` in
real arithmetic on numpy arrays, one array per device, with the bus
currents from the real and imaginary parts of the admittance matrix and
the loads from ``p_load``/``q_load``.
"""

import math

import numpy as np

STEP = 1e-4


def refined_jacobian(fn, z, h=STEP) -> np.ndarray:
    """d fn / d z at ``z``; column j steps by ``h * max(1, |z_j|)``."""
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(len(z)):
        def central(step):
            zp, zm = z.copy(), z.copy()
            zp[j] += step
            zm[j] -= step
            return (np.asarray(fn(zp)) - np.asarray(fn(zm))) / (2.0 * step)

        step = h * max(1.0, abs(z[j]))
        cols.append((4.0 * central(0.5 * step) - central(step)) / 3.0)
    return np.column_stack(cols)


def dae_jacobian(dae, x, y) -> np.ndarray:
    """Jacobian of ``[f; g]`` with respect to ``[x; y]``."""
    n_x = len(x)
    return refined_jacobian(
        lambda z: np.concatenate([dae.f(z[:n_x], z[n_x:]),
                                  dae.g(z[:n_x], z[n_x:])]),
        np.concatenate([x, y]))


def input_jacobian(dae, x, y) -> np.ndarray:
    """Columns of ``d[f; g]/du`` for ``dae.input_labels``, by setting each
    device set-point attribute and restoring it."""
    devices = {dev.name: dev for dev in dae.devices}
    cols = []
    for label in dae.input_labels:
        name, attr = label.rsplit(".", 1)
        dev = devices[name]
        u0 = getattr(dev, attr)

        def residual(u):
            setattr(dev, attr, u[0])
            return np.concatenate([dae.f(x, y), dae.g(x, y)])

        try:
            cols.append(refined_jacobian(residual, np.array([u0]))[:, 0])
        finally:
            setattr(dev, attr, u0)
    return np.column_stack(cols)


def blocks(jac, n_x) -> dict:
    """The f_x, f_y, g_x, g_y blocks of a ``[f; g]`` Jacobian."""
    return {"f_x": jac[:n_x, :n_x], "f_y": jac[:n_x, n_x:],
            "g_x": jac[n_x:, :n_x], "g_y": jac[n_x:, n_x:]}


class OracleJacobian:
    """Gives a duck-typed test DAE the ``jacobian`` the solvers call."""

    def jacobian(self, x, y):
        return dae_jacobian(self, x, y)


def relative_error(got, want) -> float:
    """Largest entry of ``|got - want| / max(1, |want|)``."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _reference_gfm_derivatives(dev, xs, v_mag, theta, i_d, i_q):
    """Inverter state derivatives with the droop law on ``np.exp``; the
    angle moves at the law's offset from the base speed."""
    pr = dev.params
    delta, p_m = xs[0], xs[1]
    v_d, v_q = v_mag * np.sin(delta - theta), v_mag * np.cos(delta - theta)
    omega_delta = pr.offset(dev.p_set, p_m, dev.omega_b)
    d_p = (v_d * i_d + v_q * i_q - p_m) / pr.t_fil
    if dev.sharing is None:
        return np.array([omega_delta, d_p])
    ps, omega_ps = dev.sharing, xs[2]
    error = 0.0
    if dev.gate_closed:
        error = dev.omega_b * ps.d_static * (dev.p_set - p_m) - omega_delta
    return np.array([omega_delta + omega_ps, d_p, ps.k * (error - omega_ps)])


def reference_f(dae, x, y) -> np.ndarray:
    """Time derivatives of all device states."""
    theta, v, idq = dae.split_y(y)
    out = np.empty(dae.n_x)
    for k, dev in enumerate(dae.devices):
        b, off = dae.dev_bus[k], dae.x_offsets[k]
        xs = x[off:off + dev.n_states]
        args = (xs, v[b], theta[b], idq[2 * k], idq[2 * k + 1])
        if dev.kind == "sg":
            rows = np.array(dev.derivatives(*args))
        else:
            rows = _reference_gfm_derivatives(dev, *args)
        out[off:off + dev.n_states] = rows
    return out


def reference_g(dae, x, y) -> np.ndarray:
    """Bus current balance (real parts, then imaginary) and stator rows."""
    n = dae.n_bus
    theta, v, idq = dae.split_y(y)
    gm, bm = dae.ybus.real, dae.ybus.imag
    vc = v * np.cos(theta)
    vs = v * np.sin(theta)
    ire = -(gm @ vc - bm @ vs)
    iim = -(gm @ vs + bm @ vc)
    v2 = v * v
    ire -= (dae.p_load * vc + dae.q_load * vs) / v2
    iim -= (dae.p_load * vs - dae.q_load * vc) / v2
    res = np.empty(dae.n_y)
    dev_rows = res[2 * n:]
    for k, dev in enumerate(dae.devices):
        b, off = dae.dev_bus[k], dae.x_offsets[k]
        xs = x[off:off + dev.n_states]
        i_d, i_q = idq[2 * k], idq[2 * k + 1]
        sd, cd = math.sin(xs[0]), math.cos(xs[0])
        c = dae.dev_ratio[k]
        ire[b] += (i_d * sd + i_q * cd) * c
        iim[b] += (-i_d * cd + i_q * sd) * c
        dev_rows[2 * k], dev_rows[2 * k + 1] = dev.stator_residual(
            xs, v[b], theta[b], i_d, i_q)
    res[:n] = ire
    res[n:2 * n] = iim
    return res
