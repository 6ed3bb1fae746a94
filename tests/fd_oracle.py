"""Finite-difference oracle for the DAE Jacobians.

Central differences at steps h and h/2, combined by one Richardson
extrapolation, ``(4 D(h/2) - D(h)) / 3``, so the truncation error is of
order h^4.  droope itself uses only its analytic Jacobian; this oracle
lives in the tests to check it, and backs the ``jacobian`` method of the
small stand-in DAEs the solver tests use.
"""

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
