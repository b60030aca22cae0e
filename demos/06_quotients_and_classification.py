"""
Normal subgroups, quotients and the simplicity classification
=============================================================

An n-ary subgroup is normal when the conjugation-shaped word
f(a^(n-3), skew(a), h, a) stays inside it.  Quotients by normal subgroups
are n-ary groups with the subgroup as an identity block, which reduces
their representation theory to ordinary group theory.
"""

import numpy as np

import polyadic as P

S3T = P.derived(P.symmetric_group_3(), 3)
Z4M = P.NaryGroup.from_function(3, 4, lambda x, y, z: (x - y + z) % 4)
T2 = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z) % 2)

#%%
# der(S3) has ten subgroups; note the transposition set {1,2,5} is one of
# them even though it misses the identity permutation.

subs = P.subgroups(S3T)
print(len(subs), "subgroups:", subs)
print("normal ones:", [h for h in subs if P.is_normal(S3T, h)])

#%%
# Cosets partition the carrier into equal blocks.

print("cosets of A3:", P.cosets(S3T, (0, 3, 4)).blocks)
print("cosets of {0,2} in Z4M:", P.cosets(Z4M, (0, 2)).blocks)

#%%
# The quotient by A3 is a two-element ternary group with A3 as identity
# block; well-definedness is checked over every tuple of representatives.

quot = P.quotient(S3T, (0, 3, 4))
print("quotient order:", quot.group.order, " identity block:", quot.identity_block)
print("quotient reduces to the ordinary group of order", quot.retract_group().order)

#%%
# Representations with the subgroup inside their kernel factor through the
# quotient, and pulling back returns the original images.

sign = P.Representation(S3T, np.array([1, -1, -1, 1, 1, -1], dtype=complex).reshape(6, 1, 1))
factored = P.factor_rep(sign, quot)
print("factored images:", factored.images[:, 0, 0])
print("round trip exact:", np.array_equal(P.pull_back_rep(quot, factored).images, sign.images))

#%%
# The classification: proper normal subgroups, or a central singleton that
# exhibits the group as a twisted product, or evidence of strong simplicity.

for name, group in [("der(S3)", S3T), ("(Z4, x-y+z)", Z4M), ("(Z2, x+y+z)", T2),
                    ("(Z3, x-y+z)", P.NaryGroup.from_function(3, 3, lambda x, y, z: (x - y + z) % 3))]:
    result = P.classify_simplicity(group)
    print(f"{name}: {result.case}")
