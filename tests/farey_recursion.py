"""The memoized Farey-distance recursion: the reference that both ladders
(`models.farey.dist_to_infinity` and `engines._dists_to_infinity`) are
checked against.

For a target x strictly between consecutive integers m and m+1, every path
from infinity to x passes through m or m+1 (Farey edges do not cross), so
d(inf, x) = 1 + min(d(inf, 1/(x - m)), d(inf, 1/(x - m - 1))).  States are
(den, r) with r = p mod den, folded by z -> -z to r <= den - r; a run of
subtractive steps from a large quotient is collapsed into one move.
"""

from __future__ import annotations


def recursive_dist_to_infinity(p: int, q: int, memo: dict | None = None) -> int:
    """d(inf, p/q) for coprime p, q by the memoized recursion."""
    if q == 0:
        return 0
    q = abs(q)
    res = p % q
    if res == 0:
        return 1
    if memo is None:
        memo = {}

    def norm(den: int, r: int) -> tuple[int, int]:
        return (den, den - r) if r > den - r else (den, r)

    root = norm(q, res)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        den, r = key
        if r == 1:
            # 1/den is adjacent to 0, which is adjacent to infinity
            memo[key] = 2
            stack.pop()
            continue
        a, rem = divmod(den, r)
        # child A: one continued-fraction step; child E: the end of the
        # subtractive chain generated by the quotient a, reached in a-1 edges
        k_a = norm(r, rem)
        k_e = norm(r + rem, rem)
        pending = [k for k in (k_a, k_e) if k not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[key] = min(1 + memo[k_a], (a - 1) + memo[k_e])
        stack.pop()
    return memo[root]
