"""Census of the variety xyz = 0, x^2 = 0, 2x = 0 and graph determinacy.

Rings here are elementary abelian 2-groups with alternating multiplication
factoring through wedge^2 of a generator space, so a ring is a pair
(generator dimension m, kernel subspace K) and isomorphism classes are
GL(m, 2)-orbits of kernels.  Within this variety, rings of order up to 64
are determined by their zero-divisor graphs: the census verifies that no
two distinct classes share a graph.
"""

from collections import Counter

from zdgforge import brute_force_census, determinacy_report, enumerate_variety_rings

entries = enumerate_variety_rings(64)
counts = Counter(e.order for e in entries)
print("isomorphism classes by order:", dict(sorted(counts.items())))

for e in entries:
    if e.order == 64:
        print(
            f"order 64: m={e.m} k={e.k}",
            f"kernel rows={e.presentation.relation.dim}",
            f"fingerprint={e.fingerprint}",
        )

report = determinacy_report(entries)
print()
for row in report:
    print(
        f"order {row['order']:>2}: {row['classes']} classes,",
        f"{len(row['violations'])} graph collisions",
    )

# The structure reduction above is itself validated by a brute-force oracle
# that enumerates raw alternating multiplication tables (2^24 of them at
# order 16) and buckets them into isomorphism classes by GL-orbit closure.
print()
oracle = brute_force_census(16)
mine = {order: counts[order] for order in oracle}
print("oracle counts:    ", oracle)
print("enumerator counts:", mine)
print("agree:", oracle == mine)
