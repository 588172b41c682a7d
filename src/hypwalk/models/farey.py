"""SL(2,Z) acting on the Farey graph.

Vertices of the Farey graph are slopes p/q in lowest terms together with
infinity = 1/0; p/q and r/s are joined by an edge iff |ps - qr| = 1.  A
matrix acts by fractional linear maps, and the group carries the improper
metric d(g, h) = graph distance between g*x0 and h*x0 with basepoint
x0 = infinity.  Distinct matrices can be at distance 0 (e.g. the identity
and R, which fixes infinity), so this is not a proper metric.

Distance algorithm
------------------
Edges of the Farey graph are the ideal edges of the Farey tessellation,
which are pairwise non-crossing chords of the circle.  For a target x
strictly between consecutive integers m and m+1, every path from infinity
to x must therefore pass through m or m+1, giving the exact recursion

    d(inf, x) = 1 + min(d(inf, 1/(x - m)), d(inf, 1/(x - m - 1)))

after renormalizing each neighbour to infinity.  With runs of subtractive
steps collapsed in closed form, the recursion is a ladder two states wide
over the Euclidean remainders of the target, walked once per slope
(`dist_to_infinity`).  The model distance d(g, h) = d(g*inf, h*inf) is the
ladder on the first column of g^-1 h, the slope g^-1 h*inf, so it needs no
Mobius normalisation (`slope_distance` does that for two arbitrary slopes).
The same ladder over the continued fraction of a hyperbolic element's
attracting fixed point, from its first reduced complete quotient until the
digits' product reaches the element's trace, gives its exact translation
length, the integer min(A00, A11) of the ladder (`translation_length`;
README proves it).  `next_quotient` and `reduced` are that continued
fraction's one digit rule and reduced test, for Python ints and numpy rows
alike.  A brute-force breadth-first search over a denominator-bounded
subgraph (`bounded_bfs_distances`) and the horizon estimate
`translation_length_detail` are the independent desk-scale oracles.

`FareyElement` entries are Python ints, so the scalar API never overflows
however long a walk runs.  The batch engine (`engines._farey_steps`) keeps
a block of walks in int64 while an exact bound shows that the next step
cannot overflow, and finishes the block in Python ints once an entry
passes it.  Its distances and translation lengths run the same ladder
and rule in lockstep over all rows (`engines._dists_to_infinity`,
`engines._translation_lengths`).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Slope:
    """A vertex of the Farey graph: p/q in lowest terms, q >= 0, 1/0 = infinity."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        else:
            g = math.gcd(abs(p), q)
            if g > 1:
                p //= g
                q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def is_infinity(self) -> bool:
        return self.q == 0

    def to_str(self) -> str:
        return f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


class FareyElement:
    """A determinant-1 integer 2x2 matrix [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FareyElement is immutable")

    def __mul__(self, other: "FareyElement") -> "FareyElement":
        return FareyElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "FareyElement":
        # adjugate; valid because det = 1
        return FareyElement(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def apply(self, s: Slope) -> Slope:
        return Slope(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, FareyElement) and self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"FareyElement[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def to_str(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @classmethod
    def from_str(cls, text: str) -> "FareyElement":
        m = re.fullmatch(
            r"\s*\[\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*,\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*\]\s*",
            text,
        )
        if not m:
            raise ValueError(f"invalid matrix text {text!r}")
        return cls(*(int(g) for g in m.groups()))


IDENTITY = FareyElement(1, 0, 0, 1)
R = FareyElement(1, 1, 0, 1)
L = FareyElement(1, 0, 1, 1)


def random_product_entries(rng, radius: int, steps: int = 1, far: float | None = None):
    """The entries (a, b, c, d) of [[a, b], [c, d]] after `steps` products
    from 1, each of at most `radius` generators from (R, L, R^-1, L^-1) and
    drawn as one counted run of `rng.runs(radius, 4)` (a `walk.StreamDraws`).
    Given `far`, the walk stops at the first step whose slope a/c is at
    distance >= far from infinity, or returns None if none is.  R^+-1 keep
    the first column, so the slope is measured only after a run with L^+-1.

    The product is kept in four Python ints and checks no determinant; the
    caller builds one `FareyElement` from the result.  Every SL(2,Z) product
    the package samples goes through this one generator switch.
    """
    if far is not None and far <= 0:
        steps, far = 1, None  # the first step reaches far, as 1 itself does
    a, b, c, d = 1, 0, 0, 1
    moved = False  # the slope moved since it was last measured
    for k in rng.runs(radius, 4):
        if k is None:  # a run ends: one step taken
            if moved and far is not None and dist_to_infinity(a, c) >= far:
                return a, b, c, d
            moved = False
            steps -= 1
            if not steps:
                return (a, b, c, d) if far is None else None
        elif k == 0:  # times R = [[1, 1], [0, 1]]
            b += a
            d += c
        elif k == 1:  # times L = [[1, 0], [1, 1]]
            a += b
            c += d
            moved = True
        elif k == 2:  # times R^-1
            b -= a
            d -= c
        else:  # times L^-1
            a -= b
            c -= d
            moved = True


def dist_to_infinity(p: int, q: int) -> int:
    """Exact Farey-graph distance from infinity to the slope p/q (p, q coprime).

    From (den, r), r = p mod den, the recursion steps to X = (r, rem) in one
    edge or to E = (r + rem, rem), the end of the subtractive chain of the
    quotient a, in a - 1 edges; X and E share their children.  Down this
    ladder X costs one edge more than the cheaper state above, and E is one
    edge cheaper than X exactly when a is 1 and E above was not cheaper (a
    no-cheaper E never matters).  At r = 1 two edges remain (1/den - 0 - inf).
    """
    den = abs(q)
    if den <= 1:
        return den  # 0 at infinity, 1 at the integers
    r = p % den
    cost, cheaper = 0, False  # cost of X; E costs one less than X
    while r != 1:
        if r == 0:  # Euclid reached 0 before 1: it would never end
            raise ValueError("slope columns must be coprime")
        cost += 1 - cheaper
        cheaper = den - r < r and not cheaper
        den, r = r, den % r
    return cost - cheaper + 2


def mobius_to_infinity(s: Slope) -> FareyElement:
    """An element of SL(2,Z) sending the slope s to infinity."""
    if s.is_infinity():
        return IDENTITY
    p, q = s.p, s.q
    # solve alpha*p + beta*q = 1; rows (alpha, beta) and (-q, p) give det 1
    g, alpha, beta = _extended_gcd(p, q)
    assert g == 1
    return FareyElement(alpha, beta, -q, p)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def slope_distance(u: Slope, v: Slope) -> int:
    """Exact Farey-graph distance between two slopes."""
    if u == v:
        return 0
    if u.is_infinity():
        return dist_to_infinity(v.p, v.q)
    w = mobius_to_infinity(u).apply(v)
    return dist_to_infinity(w.p, w.q)


def bounded_bfs_distances(q_max: int, value_bound: int) -> Dict[Slope, int]:
    """Brute-force BFS distances from infinity on the subgraph of slopes with
    |q| <= q_max and |p| <= value_bound * q (plus the integers and infinity).

    This is the independent oracle: it never calls `slope_distance`.  The
    subgraph restriction can only overestimate distances, so agreement that
    is stable when both bounds double certifies the fast algorithm at desk
    scale.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")

    def in_range(p: int, q: int) -> bool:
        if q == 0:
            return True
        return 1 <= q <= q_max and abs(p) <= value_bound * q

    def neighbours(s: Slope) -> Iterable[Slope]:
        p, q = s.p, s.q
        if q == 0:
            for n in range(-value_bound, value_bound + 1):
                yield Slope(n, 1)
            return
        # solutions of p*y - q*x = +-1 form two lines (x0 + t*p, y0 + t*q)
        g, alpha, beta = _extended_gcd(p, q)
        # p*beta' - q*alpha' = 1 with (alpha', beta') = (-beta, alpha)
        x0, y0 = -beta, alpha
        for sign in (1, -1):
            bx, by = sign * x0, sign * y0
            if q > 0:
                t_lo = -(q_max + by) // q
                t_hi = (q_max - by) // q
            else:  # q == 0 handled above
                continue
            for t in range(t_lo - 1, t_hi + 2):
                r, sden = bx + t * p, by + t * q
                if sden == 0:
                    if abs(r) == 1:
                        yield INFINITY
                    continue
                if in_range(r, sden):
                    yield Slope(r, sden)

    dist: Dict[Slope, int] = {INFINITY: 0}
    queue = deque([INFINITY])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nb in neighbours(cur):
            if nb not in dist:
                dist[nb] = d + 1
                queue.append(nb)
    return dist


def classify(m: FareyElement) -> str:
    """Trace classification of the mapping-torus type of m.

    |trace| > 2 -> "pseudo_anosov" (Anosov on the torus); |trace| = 2 ->
    "reducible_parabolic", except +-identity which is "identity";
    |trace| < 2 -> "periodic_elliptic".
    """
    t = abs(m.trace())
    if t > 2:
        return "pseudo_anosov"
    if t == 2:
        if m.b == 0 and m.c == 0:
            return "identity"
        return "reducible_parabolic"
    return "periodic_elliptic"


@dataclass(frozen=True)
class TranslationLength:
    value: float
    stabilized: bool
    increments: tuple[int, ...]


def translation_length_detail(m: FareyElement, horizon: int) -> TranslationLength:
    """Estimate lim d(1, m^n)/n from the first `horizon` powers.

    The estimate is reported as stabilized when the distance increments are
    constant over the last max(8, horizon // 4) steps; d(1, m^n) = n * tau +
    O(1) in a hyperbolic space, so a constant trailing window certifies the
    limit for this integer-valued metric.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    dists = [0]
    power = IDENTITY
    for _ in range(horizon):
        power = power * m
        dists.append(dist_to_infinity(power.a, power.c))
    increments = tuple(dists[i + 1] - dists[i] for i in range(horizon))
    window = max(8, horizon // 4)
    if horizon >= window:
        tail = increments[-window:]
        if all(x == tail[0] for x in tail):
            return TranslationLength(float(tail[0]), True, increments)
    return TranslationLength(dists[-1] / horizon, False, increments)


def next_quotient(P, Q, D, root):
    """The continued-fraction digit q of (P + sqrt D) / Q, root = isqrt D,
    and the (P, Q) of the next complete quotient.  Python ints or numpy
    rows alike."""
    q = (P + root + (Q < 0)) // Q
    P = q * Q - P
    return q, P, (D - P * P) // Q


def reduced(P, Q, root):
    """Whether (P + sqrt D) / Q is reduced: Q > 0, P <= root, Q - P <= root
    and root < P + Q, root = isqrt D (P > 0 follows).  Python ints or numpy
    rows alike."""
    return (Q > 0) & (P <= root) & (Q - P <= root) & (root < P + Q)


def translation_length(m: FareyElement) -> float:
    """Exact stable translation length lim d(1, m^n)/n on the Farey graph:
    0 unless |tr m| = t > 2, and otherwise the integer min(A00, A11) of the
    ladder over the digits below (README, "Notes on the Farey distance").

    The attracting fixed point of m is (P + sqrt D)/Q with D = t^2 - 4,
    P = s(a - d), Q = 2sc, s = sign tr m.  From the first reduced (P, Q)
    the continued fraction is purely periodic (Galois).  From there carry
    the product of the digit matrices [[q, 1], [1, 0]] and the ladder, per
    digit the min-plus matrix [[1, q - 1], [1, q]] on (X, E), until the
    product's trace reaches t, which it must not pass.
    """
    t = abs(m.trace())
    if t <= 2:
        return 0.0
    s = 1 if m.trace() > 0 else -1
    D, root = t * t - 4, t - 1  # isqrt D, as (t - 1)^2 <= t^2 - 4 < t^2
    P, Q = s * (m.a - m.d), 2 * s * m.c
    while not reduced(P, Q, root):
        _, P, Q = next_quotient(P, Q, D, root)
    m00, m01, m10, m11 = 1, 0, 0, 1
    a00, a01, a10, a11 = 0, math.inf, math.inf, 0
    while m00 + m11 < t:
        q, P, Q = next_quotient(P, Q, D, root)
        m00, m01, m10, m11 = m00 * q + m01, m00, m10 * q + m11, m10
        a00, a01 = min(a00, a01) + 1, min(a00 + q - 1, a01 + q)
        a10, a11 = min(a10, a11) + 1, min(a10 + q - 1, a11 + q)
    if m00 + m11 != t:
        raise ArithmeticError("the digit product passed the element's trace")
    return float(min(a00, a11))


class FareyModel:
    """SL(2,Z) with the improper metric from its action on the Farey graph.

    `delta` is half the largest four-point defect seen, 1.0, a calibration
    for the full infinite-valence graph rather than a proven bound.  About
    1.3e-4 of radius-8 quadruples show it, so `calibrate`'s 1 000 see it
    with probability about 0.12, and its `four_point_defect` usually reads
    0.5, a lower bound.
    """

    name = "farey"
    delta = 0.5

    def identity(self) -> FareyElement:
        return IDENTITY

    def multiply(self, g: FareyElement, h: FareyElement) -> FareyElement:
        return g * h

    def invert(self, g: FareyElement) -> FareyElement:
        return g.inverse()

    def distance(self, g: FareyElement, h: FareyElement) -> int:
        # d(g*inf, h*inf) = d(inf, g^-1 h*inf): the first column of g^-1 h
        return dist_to_infinity(g.d * h.a - g.b * h.c, g.a * h.c - g.c * h.a)

    def distances(self, points: Sequence[FareyElement]) -> np.ndarray:
        """`distance` over every pair of `points`, as an int64 matrix: one
        ladder per pair, the graph metric being symmetric."""
        n = len(points)
        dist = np.zeros((n, n), dtype=np.int64)
        for i, g in enumerate(points):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = self.distance(g, points[j])
        return dist

    def parse(self, text: str) -> FareyElement:
        return FareyElement.from_str(text)

    def format(self, g: FareyElement) -> str:
        return g.to_str()

    def translation_length(self, g: FareyElement) -> float:
        return translation_length(g)

    def sample_element(self, rng, radius: int) -> FareyElement:
        """A random product of at most `radius` generators (improper distance
        from the identity is then at most `radius`), multiplied in four
        Python ints (`random_product_entries`) and checked once."""
        if radius < 1:
            raise ValueError("radius must be >= 1")
        return FareyElement(*random_product_entries(rng, radius))
