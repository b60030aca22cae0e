"""
Self-actions, conjugacy classes and centralizers
================================================

The canonical self-action x.a = f(x, a, x, ..., x, skew(x)) plays the role
conjugation plays for ordinary groups.  Its orbits are the conjugacy
classes; stabilizers are centralizers and are always n-ary subgroups.
"""

import numpy as np

import polyadic as P

T2b = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z + 1) % 2)
Z4M = P.NaryGroup.from_function(3, 4, lambda x, y, z: (x - y + z) % 4)
S3T = P.derived(P.symmetric_group_3(), 3)

#%%
# On a derived ternary group the canonical action is literally conjugation,
# so the classes of der(S3) are the familiar S3 classes (sizes 1, 3, 2).
# The action's composition axiom is decided by the homomorphism certificate:
# m^2 + m + 1 tuples at every point instead of all m^n.

act = P.canonical_action(S3T)
report = P.verify_action(act)
print("action verifies:", report.passed, "by", report.method)
print("classes of der(S3):", P.conjugacy_classes(S3T).blocks)

#%%
# On (Z4, x-y+z) the action is the reflection a -> 2x - a, pairing each
# element with 2-a: two classes of size two.

print("classes of (Z4, x-y+z):", P.conjugacy_classes(Z4M).blocks)
print("action table of Z4M:\n", P.canonical_action(Z4M).table)

#%%
# On (Z2, x+y+z+1) every element acts trivially.

print("classes of (Z2, x+y+z+1):", P.conjugacy_classes(T2b).blocks)

#%%
# Stabilizers and centralizers are verified n-ary subgroups.

print("stabilizer of the transposition 1:", P.stabilizer(act, 1))
print("centralizer of the 3-cycle 3:", P.centralizer(S3T, 3))

#%%
# For semiabelian groups componentwise conjugacy is a congruence; for
# der(S3) it is not (products of equivalent tuples can land in different
# classes).

print("congruence on Z4M:", P.is_conjugation_congruence(Z4M))
print("congruence on der(S3):", P.is_conjugation_congruence(S3T))

#%%
# In the semiabelian case, everything conjugate to a subgroup is again a
# subgroup.

print("conjugate closure of {0} in Z4M:", P.conjugate_subgroup_closure(Z4M, (0,)))
