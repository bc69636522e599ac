"""Seeded input generator for the benchmark.

Nothing here imports latticelab: Gram matrices, determinants, symbol
strings and diagonal actions are built with the standard library only, so
a change to the library (to `to_symbol`, say) cannot change the inputs a
seed produces.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- workload composition -----------------------------------------------------------

CUBIC_ROWS = tuple(range(1, 16))
K3_ROOTS = ("E6+A1", "D7", "E7", "E8")
K3_ROWS = tuple(range(1, 12))

# Query kinds, each with a fixed count per batch and the group-order strata
# its inputs are drawn from (inclusive bounds on |A|, or on det for rank2).
# Item i of a kind in a batch uses stratum i mod len(strata).  Counts and
# caps were set so that no kind takes more than about a third of the time.
QUERY_KINDS = {
    "dform": (3, ((2, 64), (65, 512), (513, 4096))),
    "symbol": (6, ((2, 64), (65, 512), (513, 4096))),
    "iso_same": (3, ((2, 64), (65, 512), (513, 4096))),
    "iso_other": (3, ((3, 24), (25, 64))),
    "exists": (6, ((2, 64), (65, 512), (513, 4096))),
    "rank2": (6, ((3, 3000), (3001, 30000), (30001, 100000))),
    "shortvec": (6, ((2, 64), (65, 512), (513, 4096))),
    "glue": (4, ((4, 32), (33, 96))),
    "saturate": (4, ((4, 32), (33, 96))),
    "famdim": (8, ((2, 4), (5, 8), (9, 12))),
}

# A run draws at most this many batches, so that no (kind, stratum) input
# space runs dry however fast the library becomes.
MAX_BATCHES = 120


# Determinants of the named lattices the `dform` kind adds as summands.
NAMED_DET = {"A1": 2, "A2": 3, "A3": 4, "D4": 4, "E6": 3}


def seeded_rng(seed: int, *tag) -> random.Random:
    """An independent generator for (seed, tag): stable across Python versions."""
    return random.Random("|".join(map(str, (seed,) + tag)))


def cubic_order(seed: int, unit: int) -> list[int]:
    rows = list(CUBIC_ROWS)
    seeded_rng(seed, "cubic", unit).shuffle(rows)
    return rows


def k3_order(seed: int, unit: int) -> list[tuple[str, int]]:
    ops = [(root, row) for root in K3_ROOTS for row in K3_ROWS]
    seeded_rng(seed, "k3", unit).shuffle(ops)
    return ops


# -- exact integer helpers ----------------------------------------------------------


def det(mat) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signature(mat) -> tuple[int, int]:
    """(n_plus, n_minus) of a nondegenerate symmetric matrix, by exact LDL^T
    with symmetric pivoting on a 2x2 block when the diagonal vanishes."""
    a = [[Fraction(x) for x in row] for row in mat]
    plus = minus = 0
    while a:
        n = len(a)
        piv = next((i for i in range(n) if a[i][i] != 0), None)
        if piv is None:
            j = next(j for j in range(1, n) if a[0][j] != 0)
            # a hyperbolic 2x2 block contributes one positive and one negative
            plus += 1
            minus += 1
            keep = [i for i in range(n) if i not in (0, j)]
            blk = [[a[0][0], a[0][j]], [a[j][0], a[j][j]]]
            d = blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0]
            inv = [[blk[1][1] / d, -blk[0][1] / d], [-blk[1][0] / d, blk[0][0] / d]]
            cols = (0, j)
            a = [[a[r][c] - sum(a[r][cols[s]] * inv[s][t] * a[cols[t]][c]
                                for s in range(2) for t in range(2))
                  for c in keep] for r in keep]
            continue
        p = a[piv][piv]
        if p > 0:
            plus += 1
        else:
            minus += 1
        keep = [i for i in range(n) if i != piv]
        a = [[a[r][c] - a[r][piv] * a[piv][c] / p for c in keep] for r in keep]
    return plus, minus


def transform(gram, u):
    """U^T G U."""
    n = len(gram)
    gu = [[sum(gram[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def random_unimodular(rng: random.Random, n: int, steps: int):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            u[r][i] += c * u[r][j]
    return u


def even_gram(rng: random.Random, rank: int, lo: int, hi: int,
              definite: bool = False):
    """A random even Gram matrix with lo <= |det| <= hi (positive definite
    when asked).  Diagonal entries are drawn near the rank-th root of a
    target determinant so that rejection stays cheap in every stratum.
    Raises ValueError when the range is not met after many tries."""
    for _ in range(40):
        half = max(1, round((rng.randint(max(1, lo), max(1, hi)) ** (1 / rank)) / 2))
        for _ in range(50):
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = 2 * rng.randint(max(1, half - 1), half + 1)
                if not definite and rng.random() < 0.5:
                    g[i][i] = -g[i][i]
                for j in range(i + 1, rank):
                    g[i][j] = g[j][i] = rng.randint(-1, 1)
            if not lo <= abs(det(g)) <= hi:
                continue
            if definite and any(det([row[:k] for row in g[:k]]) <= 0
                                for k in range(1, rank + 1)):
                continue
            return g
    raise ValueError(f"no even rank-{rank} Gram matrix with |det| in {lo}..{hi}")


# -- symbol strings -----------------------------------------------------------------


def _det_class_2(a: int) -> int:
    return 1 if a % 8 in (1, 7) else -1


def random_constituent(rng: random.Random):
    """(prime, exponent, token, order) of one realizable Jordan constituent."""
    p = rng.choice((2, 2, 3, 3, 5, 7))
    k = rng.randint(1, {2: 3, 3: 3, 5: 2, 7: 1}[p])
    scale = p ** k
    if p != 2:
        n = rng.choice((1, 1, 2, 3))
        sign = rng.choice("+-")
        return p, k, f"{scale}^{sign}{n}", scale ** n
    if rng.random() < 0.4:
        n = rng.choice((2, 2, 4))
        sign = rng.choice("+-")
        return p, k, f"{scale}_II^{sign}{n}", scale ** n
    n = rng.choice((1, 1, 2, 3))
    units = [rng.choice((1, 3, 5, 7)) for _ in range(n)]
    eps = 1
    for a in units:
        eps *= _det_class_2(a)
    sign = "+" if eps > 0 else "-"
    return p, k, f"{scale}_{sum(units) % 8}^{sign}{n}", scale ** n


def random_symbol(rng: random.Random, lo: int, hi: int) -> tuple[str, int]:
    """A symbol string with lo <= order <= hi, and its order."""
    while True:
        parts: dict[tuple[int, int], tuple[str, int]] = {}
        order = 1
        for _ in range(rng.randint(1, 3)):
            p, k, token, o = random_constituent(rng)
            if (p, k) in parts or order * o > hi:
                continue
            parts[(p, k)] = (token, o)
            order *= o
        if lo <= order <= hi:
            tokens = [parts[key][0] for key in sorted(parts)]
            return " ".join(tokens), order


# -- the query stream ---------------------------------------------------------------


def _query_input(rng: random.Random, kind: str, lo: int, hi: int, slot: int):
    """One input of `kind` in the stratum lo..hi.  `slot` counts this kind's
    inputs in the stream; ranks, norms and summands cycle with it, so every
    seed gets the same mix of sizes and only the entries are random."""
    rank = 2 + slot % 5
    if kind == "dform":
        # five of seven lattices get a named root lattice as a summand
        named = (None, "A1", "A2", None, "A3", "D4", "E6")[slot % 7]
        d = NAMED_DET.get(named, 1)
        return {"gram": even_gram(rng, rank, max(1, -(-lo // d)), hi // d),
                "named": named}
    if kind == "symbol":
        text, order = random_symbol(rng, lo, hi)
        return {"symbol": text, "order": order}
    if kind == "iso_same":
        gram = even_gram(rng, rank, lo, hi)
        u = random_unimodular(rng, rank, rng.randint(2, 6))
        return {"gram": gram, "other": transform(gram, u)}
    if kind == "iso_other":
        d = rng.choice([d for d in range(lo, hi + 1) if d % 4 in (0, 3)])
        forms = [(a, b, c) for a in range(2, d + 1, 2) for b in range(-a, a + 1)
                 for c in [(d + b * b) // a] if (d + b * b) % a == 0 and c % 2 == 0]
        (a1, b1, c1), (a2, b2, c2) = rng.sample(forms, 2)
        return {"gram": [[a1, b1], [b1, c1]], "other": [[a2, b2], [b2, c2]]}
    if kind == "exists":
        gram = even_gram(rng, rank, lo, hi)
        shift = ((0, 0), (8, 0), (1, 1), (1, 0), (0, 1))[slot // 5 % 5]
        return {"gram": gram, "shift": list(shift)}
    if kind == "rank2":
        det_ = rng.randint(lo, hi)
        det_ -= (det_ % 4) % 3  # an even rank-2 form has det = 0 or 3 mod 4
        return {"det": det_, "negative": rng.random() < 0.5}
    if kind == "shortvec":
        gram = even_gram(rng, rank, lo, hi, definite=True)
        gram = transform(gram, random_unimodular(rng, rank, rng.randint(0, 3)))
        negative = slot // 20 % 2 == 1
        if negative:
            gram = [[-x for x in row] for row in gram]
        norm = (2, 4, 6, 8)[slot // 5 % 4] * (-1 if negative else 1)
        return {"gram": gram, "norm": norm}
    if kind == "glue":
        return {"gram": even_gram(rng, 2 + slot % 3, lo, hi)}
    if kind == "saturate":
        gram_s = even_gram(rng, 2 + slot % 2, 2, hi // 3)
        d_s = abs(det(gram_s))
        gram_r = even_gram(rng, 2 + slot // 2 % 2, max(2, -(-lo // d_s)), hi // d_s)
        return {"gram_s": gram_s, "gram_r": gram_r}
    if kind == "famdim":
        n = rng.randint(lo, hi)
        weights = [rng.randrange(n) for _ in range(6)]
        return {"order": n, "weights": weights, "w0": rng.randrange(n)}
    raise ValueError(f"unknown query kind {kind!r}")


def _key(kind, item) -> str:
    return kind + repr(sorted(item.items()))


class QueryStream:
    """Batches of independent queries; no input repeats within a stream.

    Batch b holds the fixed count of every kind, its strata cycled, in a
    seeded order.  Batches must be drawn in order: the repeat filter makes
    batch b depend on the batches before it.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = seeded_rng(seed, "queries")
        self.seen: set[str] = set()
        self.batches = 0

    def next_batch(self) -> list[tuple[str, dict]]:
        batch = []
        for kind, (count, strata) in QUERY_KINDS.items():
            for i in range(count):
                lo, hi = strata[i % len(strata)]
                for _ in range(10000):
                    try:
                        item = _query_input(self.rng, kind, lo, hi,
                                            self.batches * count + i)
                    except ValueError:  # this draw's sizes cannot be met
                        continue
                    key = _key(kind, item)
                    if key not in self.seen:
                        self.seen.add(key)
                        break
                else:
                    raise RuntimeError(f"inputs of {kind} in {lo}..{hi} ran dry")
                item["stratum"] = [lo, hi]
                batch.append((kind, item))
        self.rng.shuffle(batch)
        self.batches += 1
        return batch
