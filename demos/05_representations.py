"""
Matrix representations and characters
=====================================

A representation sends elements to invertible complex matrices so that the
image of f(x1..xn) is the n-fold product, with at least one element mapping
to the identity matrix.  That kernel condition does real work: purely
multiplicative solutions without it are not representations.
"""

import numpy as np

import polyadic as P

T2 = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z) % 2)
T2b = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z + 1) % 2)
Z4M = P.NaryGroup.from_function(3, 4, lambda x, y, z: (x - y + z) % 4)
S3T = P.derived(P.symmetric_group_3(), 3)


def one_dim(values):
    return np.asarray(values, dtype=complex).reshape(-1, 1, 1)

#%%
# (1,-1) is a representation of (Z2, x+y+z); on the shifted group the
# analogous (i,-i) satisfies the product identity but never takes the value
# 1, so it is only a hom-solution and is rejected.

print("T2 (1,-1):", P.verify_representation(T2, one_dim([1, -1])).passed)
report = P.verify_representation(T2b, one_dim([1j, -1j]))
print("T2b (i,-i):", report.passed, [f.axiom for f in report.failures])

#%%
# A Representation is a verified value: building one runs the same check and
# refuses images that fail it, handing back the report.

try:
    P.Representation(T2b, one_dim([1j, -1j]))
except P.InvalidGroupError as exc:
    print("Representation(T2b, (i,-i)) refused:", exc.report == report)

#%%
# All 1-dim representations come in closed form from the decomposition
# (G, phi, b): u times a phi-invariant linear character chi of G, with
# u^(n-1) = chi(b); an independent root-of-unity search returns the same sets.

for name, group in [("T2", T2), ("T2b", T2b), ("Z4M", Z4M)]:
    reps = P.one_dim_reps(group)
    same = P.value_vector_set(reps) == P.value_vector_set(P.one_dim_reps_bruteforce(group))
    print(f"{name}: {len(reps)} one-dim reps, search agrees: {same}")

#%%
# For the difference group over an abelian base every 1-dim representation
# is a sign times an ordinary character; candidates without a kernel are
# tracked separately.

result = P.classify_ternary_minus(P.cyclic_group(4))
print("valid sign*character pairs over Z4:", len(result.valid),
      " hom-only:", len(result.hom_only))

#%%
# Characters are constant on conjugacy classes, and the kernel computed
# from matrices agrees with the kernel computed from traces.

sign = P.Representation(S3T, one_dim([1, -1, -1, 1, 1, -1]))
char = P.character(sign)
print("sign character:", np.round(char.values.real, 1), " kernel:", P.kernel(sign))

#%%
# Transfer to the retract: L_hat(x) = L(e)^(n-2) L(x) is an ordinary
# representation whose trace matches the shifted character formula.

hat = P.hat_rep(sign, 0)
hatc = P.hat_char(char, 0, 0)
print("hat traces match:", np.abs(np.trace(hat.images, axis1=1, axis2=2) - hatc).max() < 1e-12)

#%%
# A retract representation comes back to the n-ary group exactly when it
# inverts skews.  For the Z4 retract of (Z4, x-y+z) that selects the
# characters with k even.

ret = P.retract(Z4M, 0)
for k in range(4):
    gamma = P.BinaryRepresentation(ret, one_dim([1j ** (k * x) for x in range(4)]))
    print(f"character k={k} lifts:", P.lift_from_retract(Z4M, gamma, 0) is not None)

#%%
# Hat characters satisfy the orthogonality relation with the kernel-shifted
# arguments: the sum is 1 exactly when the two hat characters coincide (two
# distinct representations can share a hat, like (1,-1,...) and its negative).

chars = [P.character(rep) for rep in P.one_dim_reps(Z4M)]
grid = [[P.orthogonality_check(c1, P.kernel_chi(c1)[0], c2, P.kernel_chi(c2)[0], 0)
         for c2 in chars] for c1 in chars]
print("orthogonality grid:\n", np.round(np.real(grid), 6))

#%%
# Averaging recovers an equivariant projector onto any invariant subspace:
# a 2-dim module built as a twisted direct sum splits back apart.

rng = np.random.default_rng(42)
while True:
    basis = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if abs(np.linalg.det(basis)) > 0.5:
        break
diag = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
rep = P.Representation(T2, np.array([basis @ diag[x] @ np.linalg.inv(basis) for x in range(2)]))
theta, complement = P.maschke_decompose(P.GModule(rep, 0), basis[:, :1])
print("projector rank:", np.linalg.matrix_rank(theta, tol=1e-9),
      " complement dim:", complement.shape[1])
