"""
Building n-ary groups and verifying the axioms
==============================================

An n-ary group is a set with one n-argument operation that is associative in
every bracketing and uniquely solvable at every argument position.  This
script builds the standard small examples, runs the full axiom check, and
shows what the verifier reports when a table is corrupted.  A passing verdict
is an exact Hosszú–Gluskin certificate; only a failing table is scanned for a
witness.
"""

import numpy as np

import polyadic as P

#%%
# Three ternary groups on tiny carriers, given by explicit formulas, and a
# 4-ary one.  ``from_function`` materializes the dense operation table.

T2 = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z) % 2)
T2b = P.NaryGroup.from_function(3, 2, lambda x, y, z: (x + y + z + 1) % 2)
Z4M = P.NaryGroup.from_function(3, 4, lambda x, y, z: (x - y + z) % 4)
Q4 = P.NaryGroup.from_function(4, 2, lambda w, x, y, z: (w + x + y + z + 1) % 2)

for name, group in [("T2", T2), ("T2b", T2b), ("Z4M", Z4M), ("Q4", Q4)]:
    report = P.verify_nary_group(group)
    print(f"{name}: passed={report.passed} method={report.method} cells_checked={report.checked}")

#%%
# Any ordinary group gives an n-ary group by composing n elements in a row;
# with a central twist b appended it is still one.  The verifier agrees.

S3 = P.symmetric_group_3()
S3T = P.derived(S3, 3)
print("der(S3) verifies:", P.verify_nary_group(S3T).passed)
print("b-derived (Z2, +1, n=4) equals Q4:", P.b_derived(P.cyclic_group(2), 1, 4).equals(Q4))

#%%
# The skew element generalizes the inverse: it is the unique z with
# f(x,...,x,z) = x.  Its shape varies wildly between examples.

print("skew in Z4M (every element its own skew):", Z4M.skew_table().tolist())
print("skew in Q4  (one element skew to all):  ", Q4.skew_table().tolist())
print("skew in T2b (a fixed-point-free swap):  ", T2b.skew_table().tolist())

#%%
# Corrupt a single table entry and the verifier pinpoints a witness tuple.

table = T2.dense().copy()
table[0, 0, 0] ^= 1
report = P.verify_nary_group(P.NaryGroup(3, 2, table=table))
print("corrupted T2 passed:", report.passed)
print("first failure:", report.first())

#%%
# A failing table's witnesses come from the cells where the table leaves its
# decomposition and equal a full scan's: here 72 tuples and 3 lines, where
# the scan has 7776.  Where that search cannot answer, the scans run up to
# 10^7 tuples, and past them the report is the certificate's first failed
# step.  No report rests on a sample, and no argument, flag or environment
# variable changes one, so the report depends on the table alone.

table = S3T.dense().copy()
table[1, 2, 3] = (table[1, 2, 3] + 1) % 6
report = P.verify_nary_group(P.NaryGroup(3, 6, table=table))
print(f"corrupted S3T: passed={report.passed} method={report.method} sampled={report.sampled}")
print("first failure:", report.first())
