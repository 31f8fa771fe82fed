# Three states, one tensor format.
#
# A matrix product operator stores a density matrix as per-site families of
# small bond-space matrices; contracting over all physical index strings
# rebuilds the dense operator. The cluster state needs a single branch per
# site, the maximally mixed state needs a scrambling pair, and the
# one-clean-qubit input shows that sites need not look alike.

import numpy as np

from noisy_mbqc import oracle
from noisy_mbqc.mpo import (
    mpo_cluster,
    mpo_contract,
    mpo_maximally_mixed,
    mpo_one_clean,
)

print("-- linear cluster --")
for n in (2, 4, 6):
    dense = oracle.simulate(n, oracle.cluster_ops(n))
    diff = np.max(np.abs(mpo_contract(mpo_cluster(n)) - dense))
    print(f"n={n}: contraction vs dense circuit, max diff {diff:.2e}")

state = mpo_cluster(3)
print("interior site family A[0], A[1] (bond space, one branch each):")
for k in (0, 1):
    print(np.round(state.sites[0][k][0], 4))

print("\n-- maximally mixed --")
for n in (1, 3, 5):
    got = mpo_contract(mpo_maximally_mixed(n))
    diff = np.max(np.abs(got - np.eye(2**n) / 2**n))
    print(f"n={n}: max diff from I/2^n {diff:.2e}, trace {np.trace(got).real:.6f}")

print("\n-- one clean qubit --")
got = mpo_contract(mpo_one_clean(2))
print("diagonal of the contraction (clean qubit first):", np.diag(got).real)

# each site is one (P, S, D, D) array, (P, S, D) on the boundary
sizes = [(len(a), a.shape[-1], a.shape[1]) for a in mpo_cluster(4).sites]
print("\nsite table (physical, bond, branches):", sizes)
