# Watching physical noise act on the logical computation.
#
# Measuring cluster sites in the X basis drives a computation in the bond
# (correlation) space: each measured site contributes (1/sqrt2) H Z^m. A
# channel applied to a physical qubit beforehand deforms that site's logical
# family, and the deformation is exactly what a dense simulation sees.

import numpy as np

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.channels import KrausChannel, apply, bit_flip, mixed_unitary, validate
from noisy_mbqc.mpo import (
    mpo_apply_channel,
    mpo_cluster,
    mpo_contract,
    mpo_logical_output,
    mpo_measure,
)

X_KETS = (dm.PLUS, dm.MINUS)

n = 5
outcomes = [0, 1, 0, 0]

print("-- noiseless X sweep --")
state = mpo_cluster(n)
for site, m in enumerate(outcomes):
    state = mpo_measure(state, site, X_KETS[m])
out = mpo_logical_output(state)
print(f"outcome string {outcomes}, branch probability {np.trace(out).real:.6f}")
print("logical output (normalised):\n", np.round(out / np.trace(out).real, 4))

print("\n-- bit flip on site 2 before the sweep --")
state = mpo_apply_channel(mpo_cluster(n), 2, bit_flip(0.5))
for site, m in enumerate(outcomes):
    state = mpo_measure(state, site, X_KETS[m])
noisy_out = mpo_contract(state)
print("max diff from the noiseless branch:", np.max(np.abs(noisy_out - out)))
print("a bit flip before an X readout never reaches the logical state")

print("\n-- {I, X, Y} mixture on site 1, checked against the dense simulation --")
ixy = validate([np.sqrt(0.6) * dm.I2, np.sqrt(0.25) * dm.X, np.sqrt(0.15) * dm.Y])
state = mpo_apply_channel(mpo_cluster(n), 1, ixy)
ops = oracle.cluster_ops(n) + [oracle.Channel1Q(1, ixy)]
for site, m in enumerate(outcomes):
    state = mpo_measure(state, site, X_KETS[m])
    ops.append(oracle.Measure(site, X_KETS[m]))
diff = np.max(np.abs(mpo_contract(state) - oracle.simulate(n, ops)))
print("contraction vs dense branch, max diff:", diff)

print("\n-- Hadamard mixture then X readout: the logical step degrades --")
p = 0.4
state = mpo_apply_channel(mpo_cluster(3), 1, mixed_unitary([(1 - p, dm.I2), (p, dm.H)]))
state = mpo_measure(state, 1, X_KETS[0])
for s, branch in enumerate(state.sites[1][0]):
    print(f"branch {s}:\n{np.round(branch, 4)}")
print("the noisy branch is a rank-one projector: the step stopped rotating")
step = KrausChannel(state.sites[1][0])
print("logical step trace on I/2:", np.trace(apply(step, dm.I2 / 2)).real)
