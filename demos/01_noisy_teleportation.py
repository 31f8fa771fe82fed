# Teleporting through a noisy entangled pair.
#
# A Pauli channel on the receiving half of a Bell pair turns the resource
# into a mixture of Bell states. Teleporting rho through such a resource
# delivers the channel applied to rho itself, up to the usual outcome
# corrections. This script walks the two classic extremes and a biased
# Pauli channel in between.

from itertools import product

import numpy as np

from noisy_mbqc import densemath as dm
from noisy_mbqc.channels import apply, bit_flip, depolarizing, phase_flip
from noisy_mbqc.teleport import diagonal_resource, pauli_corrected_target, teleport_branch

rho = dm.projector(dm.PLUS)
print("input state |+><+|:\n", np.round(rho.real, 3))

# Fully depolarised resource: nothing gets through.
resource = diagonal_resource(depolarizing())
print("\n-- completely depolarising resource --")
for s, t in product(range(2), repeat=2):
    out = teleport_branch(resource, rho, s, t)
    prob = np.trace(out).real  # the branch state is unnormalised
    print(
        f"outcome (s={s}, t={t})  prob={prob:.3f}  "
        f"state={np.round((out / prob).real, 3).tolist()}"
    )
print("every branch is the maximally mixed state: nothing was teleported")

# Dephasing resource: half the entanglement is gone, but the protocol still
# transmits the dephased input.
print("\n-- dephasing resource (p = 1/2) --")
resource = diagonal_resource(phase_flip(0.5))
for s, t in product(range(2), repeat=2):
    out = teleport_branch(resource, rho, s, t)
    corrected = np.linalg.matrix_power(dm.Z, t) @ np.linalg.matrix_power(dm.X, s)
    state = corrected @ (out / np.trace(out).real) @ dm.dag(corrected)
    print(f"outcome (s={s}, t={t})  corrected state diag={np.diag(state).real}")
print("the dephased input I/2 came through on every branch")

# A biased bit-flip: the closed form holds for any Pauli channel.
eps = bit_flip(0.3)
rho = dm.projector(dm.KET0)
print("\n-- bit-flip resource (p = 0.3), teleporting |0><0| --")
resource = diagonal_resource(eps)
gaps = [
    dm.trace_distance(teleport_branch(resource, rho, s, t), pauli_corrected_target(eps, rho, s, t))
    for s, t in product(range(2), repeat=2)
]
print("closed form verified:", max(gaps) <= 1e-10)
print("teleported output:\n", np.round(apply(eps, rho).real, 3))
