"""Observation energies and observability Gramians on small truncations.

Walks through the basic quantities everything else is built on: propagated
states, the energy collected by a sensor over a horizon, and the Gramian
matrix whose quadratic form reproduces that energy.
"""

import numpy as np

from stabcert import (build_system, observability_gramian,
                      observation_energy, propagate)

# a two-mode diagonal system observed through a single shared sensor
sys2 = build_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]])

print("propagate e^{At} x at t = 1:", propagate(sys2, 1.0, [1.0, 1.0]))
print("  (exact mode decays e^-1, e^-2)")

phi = np.array([1.0, -0.5])
energy = observation_energy(sys2, 1.0, phi)
print(f"\nobservation energy of phi over [0, 1]: {energy:.12f}")

gram = observability_gramian(sys2, 1.0)
print("gramian G(1):")
print(gram.matrix)
print(f"quadratic form <G phi, phi> = {gram.quad_form(phi):.12f} "
      "(matches the energy)")

# the closed form of a diagonal system,
# G_ij = b_i b_j (e^{(l_i + l_j) T} - 1) / (l_i + l_j), against the quadrature
lam = np.array([-1.0, -2.0])
rate = lam[:, None] + lam[None, :]
closed = np.outer(sys2.b_matrix[:, 0], sys2.b_matrix[:, 0]) \
    * np.expm1(rate * 1.0) / rate
print(f"\nclosed form vs quadrature gramian, max deviation: "
      f"{np.abs(gram.matrix - closed).max():.2e}")

# the Gramian grows monotonically with the horizon
g_short = observability_gramian(sys2, 0.5).matrix
g_long = observability_gramian(sys2, 2.0).matrix
print("eigenvalues of G(2) - G(0.5):",
      np.linalg.eigvalsh(g_long - g_short))
