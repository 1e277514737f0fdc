"""A periodic system that defeats null controllability yet stabilizes.

Each mode n decays at rate n and is observed only through its private
window of width e^{-n^2}/alpha inside each period.  The windows shrink so
fast that steering any single high mode to zero is hopeless over any
finite horizon, and an explicit witness index defeats every candidate
steering constant.  Stabilizability survives: one period of multiplexed
observation supports a certificate at every index k.
"""

import math

import numpy as np

from stabcert import (build_multiplexed_system,
                      multiplexed_stabilizability_check,
                      noncontrollability_witness,
                      periodic_observation_energy,
                      periodic_observation_energy_quadrature)

sys_p = build_multiplexed_system(10)
print(f"window normalizer alpha = {sys_p.alpha_series:.7f} "
      f"(series tail below {sys_p.tail_bound:.1e})")
print("switch times tau_0..tau_4:",
      [f"{t:.3e}" for t in sys_p.switch_times[:5]])

# per-mode observation energy over one period, exact vs quadrature
print("\nper-mode energies over one period:")
for n in range(1, 6):
    e_closed = periodic_observation_energy(sys_p, 1, np.eye(10)[n - 1])
    e_quad = periodic_observation_energy_quadrature(sys_p, 1,
                                                    np.eye(10)[n - 1])
    print(f"  mode {n}: {e_closed:.6e}  (quadrature agrees to "
          f"{abs(e_closed - e_quad) / e_closed:.1e})")

# refutation of null controllability over [0, m]
print("\nnull-controllability refutation witnesses:")
for m in (1, 2, 3):
    n, lhs, rhs = noncontrollability_witness(sys_p, m, big_c=10.0)
    print(f"  horizon {m}: mode {n} has free adjoint norm {lhs:.4e} > "
          f"10 * sqrt(energy) = {rhs:.4e}")

# stabilizability certificates at every index
print("\nstabilizability certificates (one period each):")
# g_n: mode n's energy over the one period, w_n = e^{2 lambda_n T}
energies = np.array([periodic_observation_energy(sys_p, 1, e)
                     for e in np.eye(sys_p.n)])
for k in range(1, 6):
    cert = multiplexed_stabilizability_check(sys_p, k)
    decays = np.exp(2.0 * sys_p.a_diag * cert.horizon)
    # c_k^2 g_n + eps^2 - w_n >= 0 for every n is the per-mode test
    per_mode = cert.d_const**2 * energies + cert.residual**2 - decays
    worst = int(np.argmin(per_mode))
    print(f"  k={k}: {cert.status}, C(k) = {cert.d_const:.4f}, "
          f"decision margin D^2 - max_n (w_n - eps^2)/g_n "
          f"= {cert.margin:.3e}")
    print(f"       smallest per-mode margin c_k^2 g_n + eps^2 - w_n "
          f"= {per_mode[worst]:.3e} (mode {worst + 1})")
# a_n = e^{-n^2} up to the normalizer, so e^(k^2) a_n = e^(k^2 - n^2)
print("\nkey per-mode quantities e^(k^2) a_n at k=3:",
      [f"{math.exp(3**2 - n**2):.3e}" for n in range(1, 4)])
print("(each at least 1: the first k channels carry their modes)")
