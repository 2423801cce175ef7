"""Normalized mode fields and the perfect-conductor boundary conditions.

Each mode's amplitude is fixed so that the classical field energy
(1/2) omega^2 eps0 int |A|^2 d^3r equals one photon, hbar omega.  At the
wall the tangential electric field and the normal magnetic field vanish.
Everything below runs in dimensionless units R = c = hbar = eps0 = 1.
"""

import numpy as np

from sphcavity import boundary_residual, mode_field, mode_spec
from sphcavity.angular import unit_phi, unit_radial, unit_theta
from sphcavity.modes import fibonacci_directions
from sphcavity.verify import DEFAULT_TOLERANCES, check_mode_energy

print(__doc__)

for tau, j, n in (("E", 1, 1), ("M", 1, 1), ("E", 2, 1)):
    spec = mode_spec(tau, j, 0, n)
    print(f"mode {tau}{j} n={n}: x = {spec.x_root:.5f}, "
          f"normalization = {spec.norm_const:.5f}")

    th, ph = fibonacci_directions(32)
    wall = mode_field(spec, np.ones_like(th), th, ph)
    e_tan = max(np.abs((wall.E * unit_theta(th, ph)).sum(0)).max(),
                np.abs((wall.E * unit_phi(th, ph)).sum(0)).max())
    b_norm = np.abs((wall.B * unit_radial(th, ph)).sum(0)).max()
    print(f"  wall tangential |E|: {e_tan:.2e}   wall normal |B|: {b_norm:.2e}")

    interior = mode_field(spec, 0.5 * np.ones_like(th), th, ph)
    print(f"  interior |E| at r = R/2: up to "
          f"{np.sqrt((np.abs(interior.E) ** 2).sum(0)).max():.4f}")

    resid, tol = boundary_residual(spec, n_dirs=64), DEFAULT_TOLERANCES["mode_boundary"]
    print(f"  boundary check: residual {resid:.2e} (tolerance {tol:.0e}) -> "
          f"{'pass' if resid < tol else 'FAIL'}")

print("\nsingle-photon energy normalization, modes with j <= 3, n <= 3:")
resid, _ = check_mode_energy(j_max=3, n_max=3)
print(f"  max |energy/(hbar omega) - 1| = {resid:.2e} "
      f"-> {'pass' if resid < DEFAULT_TOLERANCES['mode_energy'] else 'FAIL'}")
