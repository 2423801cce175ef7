"""The catalog of bipartite entangled two-photon states in the cavity.

A cavity photon carries four quantum numbers (tau, omega, j, m).
Splitting them into an entangling block of one or two numbers and a
spectator block gives 10 partitions; combining each with one of the four
Bell pair types gives 40 entangled-state types.  States built from
symmetrized boson operators factor exactly into Bell(spectators) x
Bell(entangling).
"""

from collections import Counter

from sphcavity import (
    DEFAULT_TOLERANCES,
    DegenerateStateError,
    build_state,
    enumerate_catalog,
    enumerate_partitions,
    factorization_check,
    partition_by_id,
)

print(__doc__)

partitions = enumerate_partitions()
print(f"{len(partitions)} partitions:")
for p in partitions:
    print(f"  entangling {'+'.join(p.alpha_fields):12s} "
          f"spectators {'+'.join(p.gamma_fields)}")

catalog = enumerate_catalog()
counts = Counter(e.bell for e in catalog)
print(f"\ncatalog size: {len(catalog)} "
      f"({' + '.join(f'{v} {k}' for k, v in counts.items())})")

print("\nfrequency-entangled singlet (distinct spectators):")
p = partition_by_id("omega")
alpha, gamma = ((1,), (2,)), (("E", 1, 0), ("M", 2, 1))
state = build_state(p, "psi-minus", alpha, gamma)
for (l1, l2), amp in state.sorted_items():
    print(f"  |{l1}> |{l2}>  amplitude {amp.real:+.4f}")
resid = factorization_check(state, p, "psi-minus", alpha, gamma)
print(f"Bell factorization residual: {resid:.2e} "
      f"-> {'pass' if resid < DEFAULT_TOLERANCES['entangle_factorization'] else 'FAIL'}")

print("\nthe same construction with equal spectator labels must vanish:")
try:
    build_state(p, "psi-minus", alpha, (("E", 1, 0), ("E", 1, 0)))
except DegenerateStateError as exc:
    print(f"  DegenerateStateError: {exc}")
