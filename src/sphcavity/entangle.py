"""Bipartite entangled two-photon states over spherical-mode quantum numbers.

A cavity photon carries four quantum numbers (tau, omega, j, m).  Choosing
a nonempty proper subset of one or two of them as the "entangling" block
alpha (three-field blocks are equivalent to their one-field complement)
gives 10 distinct partitions; pairing each with one of the four Bell
types gives the catalog of 40 entangled-state types.

States are exact sparse amplitude maps over unordered pairs of discrete
labels, built from symmetrized two-boson creation-operator products:

    psi-minus: a+(g1 a1) a+(g2 a2) - a+(g1 a2) a+(g2 a1)
    psi-plus:  a+(g1 a1) a+(g2 a2) + a+(g1 a2) a+(g2 a1)
    phi-plus:  a+(g1 a1) a+(g2 a1) + a+(g1 a2) a+(g2 a2)
    phi-minus: a+(g1 a1) a+(g2 a1) - a+(g1 a2) a+(g2 a2)

Every such state is exchange-symmetric by construction.  After unit
normalization the amplitudes factor exactly into a spatial Bell function
of the gamma labels times a Bell function of the alpha labels,

    psi-minus -> +Psi-(g) Psi-(a)     psi-plus  -> -Psi+(g) Psi+(a)
    phi-plus  -> -Psi+(g) Phi+(a)     phi-minus -> +Psi+(g) Phi-(a)

and the built states carry these global signs (a global phase; the
symmetrized operator products by themselves come out with + sign in all
four cases).  A construction that symmetrizes to zero (e.g. psi-minus
with g1 = g2) raises DegenerateStateError rather than silently
normalizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, NamedTuple, Sequence

from .modes import TAU_ELECTRIC, TAU_MAGNETIC
from .specfun import _check_int, _check_sign

__all__ = [
    "QUANTUM_FIELDS",
    "BELL_TYPES",
    "QuantumLabel",
    "Partition",
    "CatalogEntry",
    "TwoPhotonState",
    "DegenerateStateError",
    "enumerate_partitions",
    "enumerate_catalog",
    "build_state",
    "build_plane_wave_state",
    "factorization_check",
    "partition_by_id",
]

QUANTUM_FIELDS = ("tau", "omega", "j", "m")

BELL_TYPES = ("psi-minus", "psi-plus", "phi-plus", "phi-minus")

# operator pattern: which (gamma_i, alpha_k) pairs appear and with what sign
_OPERATOR_TERMS = {
    "psi-minus": (((0, 0), (1, 1), +1.0), ((0, 1), (1, 0), -1.0)),
    "psi-plus": (((0, 0), (1, 1), +1.0), ((0, 1), (1, 0), +1.0)),
    "phi-plus": (((0, 0), (1, 0), +1.0), ((0, 1), (1, 1), +1.0)),
    "phi-minus": (((0, 0), (1, 0), +1.0), ((0, 1), (1, 1), -1.0)),
}

# factored form: overall sign, Bell function of the gamma pair, of the alpha pair
_FACTORED_FORM = {
    "psi-minus": (+1.0, "psi-minus", "psi-minus"),
    "psi-plus": (-1.0, "psi-plus", "psi-plus"),
    "phi-plus": (-1.0, "psi-plus", "phi-plus"),
    "phi-minus": (+1.0, "psi-plus", "phi-minus"),
}


class DegenerateStateError(ValueError):
    """The requested construction symmetrizes to the zero state."""


class QuantumLabel(NamedTuple):
    """Full single-photon label (tau, omega ordinal, j, m)."""

    tau: str
    omega: int
    j: int
    m: int

    def validate(self) -> "QuantumLabel":
        if self.tau not in (TAU_ELECTRIC, TAU_MAGNETIC):
            raise ValueError(f"tau must be 'E' or 'M', got {self.tau!r}")
        _check_int("omega", self.omega, 1, math.inf)
        _check_int("j", self.j, 1, math.inf)
        _check_int("m", self.m, -self.j, self.j)
        return self


@dataclass(frozen=True)
class Partition:
    """Split of the four quantum numbers into entangling/spectator blocks."""

    alpha_fields: tuple[str, ...]
    gamma_fields: tuple[str, ...]

    @property
    def id(self) -> str:
        return "+".join(self.alpha_fields)

    def combine(self, alpha_values: Sequence, gamma_values: Sequence) -> QuantumLabel:
        """Assemble a full label from one alpha tuple and one gamma tuple."""
        alpha_values = _as_tuple(alpha_values)
        gamma_values = _as_tuple(gamma_values)
        if len(alpha_values) != len(self.alpha_fields):
            raise ValueError(f"partition {self.id!r} needs {len(self.alpha_fields)} "
                             f"alpha value(s), got {alpha_values!r}")
        if len(gamma_values) != len(self.gamma_fields):
            raise ValueError(f"partition {self.id!r} needs {len(self.gamma_fields)} "
                             f"gamma value(s), got {gamma_values!r}")
        fields = dict(zip(self.alpha_fields, alpha_values))
        fields.update(zip(self.gamma_fields, gamma_values))
        return QuantumLabel(**{f: fields[f] for f in QUANTUM_FIELDS}).validate()


def _as_tuple(value) -> tuple:
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list,)):
        return tuple(value)
    return (value,)


def _pair(name: str, values) -> tuple:
    """The values of the pair argument ``name`` as a tuple; ValueError naming
    it unless it holds exactly two."""
    values = tuple(values)
    if len(values) != 2:
        raise ValueError(f"{name} must hold exactly two values, got {values!r}")
    return values


def enumerate_partitions() -> list[Partition]:
    """The 10 partitions: 4 single-field blocks then 6 two-field blocks."""
    parts: list[Partition] = []
    for size in (1, 2):
        for alpha in combinations(QUANTUM_FIELDS, size):
            gamma = tuple(f for f in QUANTUM_FIELDS if f not in alpha)
            parts.append(Partition(alpha_fields=alpha, gamma_fields=gamma))
    return parts


def partition_by_id(partition_id: str) -> Partition:
    for p in enumerate_partitions():
        if p.id == partition_id:
            return p
    raise ValueError(f"unknown partition {partition_id!r}; valid ids: "
                     + ", ".join(p.id for p in enumerate_partitions()))


@dataclass(frozen=True)
class CatalogEntry:
    """One of the 40 entangled-state types: a partition and a Bell type."""

    partition: Partition
    bell: str

    @property
    def identifier(self) -> str:
        return f"{self.partition.id}:{self.bell}"


def enumerate_catalog() -> list[CatalogEntry]:
    """All 40 (partition, Bell type) combinations, deterministic order."""
    return [CatalogEntry(partition=p, bell=b)
            for p in enumerate_partitions() for b in BELL_TYPES]


@dataclass
class TwoPhotonState:
    """Sparse symmetric amplitude map over unordered label pairs.

    ``amplitudes`` maps sorted label pairs to the (ordered-basis)
    amplitude; exchange symmetry is structural.  The norm accumulates
    off-diagonal pairs twice, matching the ordered two-particle basis.
    """

    amplitudes: dict[tuple[Hashable, Hashable], complex] = field(default_factory=dict)

    @staticmethod
    def _key(label1, label2) -> tuple:
        return (label1, label2) if label1 <= label2 else (label2, label1)

    def add(self, label1, label2, amplitude: complex) -> None:
        key = self._key(label1, label2)
        self.amplitudes[key] = self.amplitudes.get(key, 0.0) + amplitude

    def amplitude(self, label1, label2) -> complex:
        return self.amplitudes.get(self._key(label1, label2), 0.0)

    def norm(self) -> float:
        total = 0.0
        for (l1, l2), a in self.amplitudes.items():
            total += (1.0 if l1 == l2 else 2.0) * abs(a) ** 2
        return math.sqrt(total)

    def is_zero(self, cutoff: float = 0.0) -> bool:
        return all(abs(a) <= cutoff for a in self.amplitudes.values())

    def scaled(self, factor: complex) -> "TwoPhotonState":
        return TwoPhotonState({k: factor * a for k, a in self.amplitudes.items()})

    def normalized(self) -> "TwoPhotonState":
        n = self.norm()
        if n == 0.0:
            raise DegenerateStateError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def sorted_items(self) -> list[tuple[tuple, complex]]:
        return sorted(self.amplitudes.items())


def _check_bell(bell: str) -> None:
    if bell not in BELL_TYPES:
        raise ValueError(f"bell must be one of {BELL_TYPES}, got {bell!r}")


def _build(bell: str, gammas: tuple, alphas: tuple, combine,
           entangling: str, inputs: str) -> TwoPhotonState:
    """The normalized state of a Bell pattern, with its factored-form sign.

    The two-creation-operator state is projected onto the ordered pair
    basis, <x y| a+_p a+_q |0> = delta_xp delta_yq + delta_xq delta_yp,
    with ``combine(g, a)`` making each photon label.  ``entangling`` names
    the alpha values and ``inputs`` the given values in error messages.
    """
    _check_bell(bell)
    if bell in ("psi-minus", "psi-plus") and alphas[0] == alphas[1]:
        raise ValueError(f"{bell} requires two distinct {entangling} values")
    state = TwoPhotonState()
    for (gi, ai), (gk, ak), sign in _OPERATOR_TERMS[bell]:
        p = combine(gammas[gi], alphas[ai])
        q = combine(gammas[gk], alphas[ak])
        # unordered key covers both Wick pairings; a diagonal pair picks
        # up both contractions at once
        state.add(p, q, sign * (2.0 if p == q else 1.0))
    # cancel exact zeros produced by symmetrization
    state.amplitudes = {k: a for k, a in state.amplitudes.items() if a != 0.0}
    if state.is_zero():
        raise DegenerateStateError(
            f"{bell} construction with {inputs} symmetrizes to the zero state")
    return state.normalized().scaled(_FACTORED_FORM[bell][0])


def build_state(partition: Partition | str, bell: str,
                alpha_values: tuple, gamma_values: tuple) -> TwoPhotonState:
    """Build the normalized symmetric two-photon state for a catalog entry.

    ``alpha_values = (a1, a2)`` and ``gamma_values = (g1, g2)`` hold the
    value tuples for the partition's entangling and spectator fields.
    a1 != a2 is required for psi-minus/psi-plus, and each argument must
    hold exactly two values (ValueError naming it).  Raises
    DegenerateStateError when the symmetrized construction vanishes
    (e.g. psi-minus with g1 = g2).
    """
    if isinstance(partition, str):
        partition = partition_by_id(partition)
    a1, a2 = (_as_tuple(v) for v in _pair("alpha_values", alpha_values))
    g1, g2 = (_as_tuple(v) for v in _pair("gamma_values", gamma_values))
    return _build(bell, (g1, g2), (a1, a2), lambda g, a: partition.combine(a, g),
                  "entangling", f"gamma={gamma_values!r}, alpha={alpha_values!r}")


def build_plane_wave_state(bell: str, momentum_labels: tuple,
                           helicities: tuple) -> TwoPhotonState:
    """Two-photon state over discrete (momentum label, helicity) pairs.

    Helicities must be +1 or -1 (helicity 0 is excluded for a transverse
    field).  Momentum labels are opaque hashables on a fixed shell.  Each
    argument must hold exactly two values (ValueError naming it).
    """
    momenta, lams = _pair("momentum_labels", momentum_labels), _pair("helicities", helicities)
    for lam in lams:
        _check_sign("helicities", lam)
    return _build(bell, momenta, lams, lambda g, a: (g, a),
                  "helicity", f"momenta={momentum_labels!r}, helicities={helicities!r}")


def _bell_wavefunction(bell: str, v1, v2, x, y) -> float:
    """<x, y | Bell(v1, v2)> for distinguishable slots, 1/sqrt(2) units."""
    inv = 1.0 / math.sqrt(2.0)
    if bell == "psi-minus":
        return inv * ((x == v1) * (y == v2) - (x == v2) * (y == v1))
    if bell == "psi-plus":
        return inv * ((x == v1) * (y == v2) + (x == v2) * (y == v1))
    if bell == "phi-plus":
        return inv * ((x == v1) * (y == v1) + (x == v2) * (y == v2))
    return inv * ((x == v1) * (y == v1) - (x == v2) * (y == v2))


def factorization_check(state: TwoPhotonState, partition: Partition | str,
                        bell: str, alpha_values: tuple, gamma_values: tuple) -> float:
    """Largest |amplitude(g a, g' a') - sign * Bell_gamma(g, g') * Bell_alpha(a, a')|.

    The reference amplitudes are assembled independently from the factored
    Bell-product form (normalized the same way as the state), and the two
    maps are compared over every basis pair.  Exchange symmetry needs no
    scan of its own: amplitude(l1, l2) and amplitude(l2, l1) read the same
    sorted key.  The suite's entangle_factorization check holds the
    residual to its tolerance in verify.DEFAULT_TOLERANCES.
    """
    if isinstance(partition, str):
        partition = partition_by_id(partition)
    _check_bell(bell)
    a1, a2 = (_as_tuple(v) for v in _pair("alpha_values", alpha_values))
    g1, g2 = (_as_tuple(v) for v in _pair("gamma_values", gamma_values))
    sign, gamma_bell, alpha_bell = _FACTORED_FORM[bell]

    reference = TwoPhotonState()
    # each of the four single-photon labels is assembled once
    labels = {(ax, gx): partition.combine(ax, gx) for gx in (g1, g2) for ax in (a1, a2)}
    for gx in (g1, g2):
        for ax in (a1, a2):
            for gy in (g1, g2):
                for ay in (a1, a2):
                    amp = sign * (_bell_wavefunction(gamma_bell, g1, g2, gx, gy)
                                  * _bell_wavefunction(alpha_bell, a1, a2, ax, ay))
                    key = TwoPhotonState._key(labels[ax, gx], labels[ay, gy])
                    if amp != 0.0:
                        reference.amplitudes[key] = amp  # ordered pairs agree by symmetry
    if reference.is_zero():
        resid = 0.0 if state.is_zero() else max(abs(a) for a in state.amplitudes.values())
    else:
        # in the generic all-distinct case the reference is already unit
        # norm and this rescaling is the identity
        reference = reference.scaled(1.0 / reference.norm())
        keys = set(state.amplitudes) | set(reference.amplitudes)
        resid = max(abs(state.amplitude(*k) - reference.amplitude(*k)) for k in keys)
    return float(resid)
