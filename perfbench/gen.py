"""Seeded input generation for the momentcut benchmark.

Everything here is a pure function of (seed, pass index): polytopes are
built as JSON documents with plain Fraction arithmetic, so the program only
ever sees the generated texts and argument lists.  The bundled Delzant
corpus is read once (it is data shipped with the program) and converted to
the same JSON form.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, Sequence

F = Fraction


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def polytope_doc(dim: int, facets: Iterable[tuple[Sequence[int], Fraction, int]]) -> dict:
    return {"dim": dim, "facets": [
        {"normal": list(n), "offset": fmt(c), "label": lab} for n, c, lab in facets]}


def facets_of(doc: dict) -> list[tuple[tuple[int, ...], Fraction, int]]:
    return [(tuple(f["normal"]), F(f["offset"]), f.get("label", 1)) for f in doc["facets"]]


def text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def corpus_docs() -> list[tuple[str, dict]]:
    """The bundled Delzant corpus as JSON documents."""
    from momentcut.corpus import delzant_corpus
    return [(name, polytope_doc(P.dim, ((f.normal, f.offset, f.label) for f in P.facets)))
            for name, P in delzant_corpus()]


def wedge_doc(scale: Fraction = F(1)) -> dict:
    """The asymmetric wedge (two inner Z2 vertices), dilated by `scale`."""
    return polytope_doc(2, [((-1, 2), scale, 1), ((-1, -2), scale, 1), ((1, 0), scale, 1)])


def chopped_cube_doc(n: int, corners: Sequence[tuple[int, ...]],
                     depth: Fraction = F(1, 4)) -> dict:
    """Unit n-cube with the given corners chopped at `depth`."""
    facets = []
    for i in range(n):
        facets.append((tuple(-1 if j == i else 0 for j in range(n)), F(0), 1))
        facets.append((tuple(1 if j == i else 0 for j in range(n)), F(1), 1))
    for bits in corners:
        facets.append((tuple(1 if b else -1 for b in bits), F(sum(bits)) - depth, 1))
    return polytope_doc(n, facets)


def random_unimodular(rng: random.Random, n: int, steps: int,
                      keep_first: bool = False) -> list[list[int]]:
    """A random product of integer shears, swaps and sign flips (|det| = 1).

    With keep_first only rows 2..n change, so x1 is preserved and with it
    the circle action and its weights.
    """
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = list(range(1 if keep_first else 0, n))
    for _ in range(steps):
        i = rng.choice(rows)
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            j = rng.choice([j for j in range(n) if j != i])
            c = rng.choice((-2, -1, 1, 2))
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif kind == 1 and len(rows) > 1:
            j = rng.choice([j for j in rows if j != i])
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


def image_doc(doc: dict, M: list[list[int]], b: Sequence[Fraction]) -> dict:
    """{A x + b : x in P} for A = M^-1: <u, x> <= c maps to <M^T u, y> <= c + <M^T u, b>."""
    n = doc["dim"]
    out = []
    for u, c, lab in facets_of(doc):
        v = tuple(sum(M[k][i] * u[k] for k in range(n)) for i in range(n))
        out.append((v, c + sum(vi * bi for vi, bi in zip(v, b)), lab))
    return polytope_doc(n, out)


def random_image(doc: dict, rng: random.Random, keep_first: bool = False) -> dict:
    n = doc["dim"]
    M = random_unimodular(rng, n, steps=2 * n, keep_first=keep_first)
    b = [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4))) for _ in range(n)]
    if keep_first:
        b[0] = F(0)
    return image_doc(doc, M, b)


# x1 of a tilted image (of dimension at most 3) is x1 + 2 x2 + 3 x3 of the
# original: a fixed generic direction, so the image has many chambers and
# its cost hardly depends on the seed, which only shears the other
# coordinates.
TILT = (1, 2, 3)


def tilted_image(doc: dict, rng: random.Random) -> dict:
    """A random image whose first coordinate is the fixed TILT direction."""
    n = doc["dim"]
    R = random_unimodular(rng, n, steps=2 * n, keep_first=True)
    # M = T^-1 R, where T = I + e1 (0, 2, 3) has inverse I - e1 (0, 2, 3)
    M = [row[:] for row in R]
    M[0] = [R[0][j] - sum(TILT[i] * R[i][j] for i in range(1, n)) for j in range(n)]
    b = [F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4))) for _ in range(n)]
    return image_doc(doc, M, b)


def translate(doc: dict, b: Sequence[Fraction]) -> dict:
    n = doc["dim"]
    return image_doc(doc, [[int(i == j) for j in range(n)] for i in range(n)], b)


def translate_first(doc: dict, t: Fraction) -> dict:
    """Shift along x1 by t."""
    return translate(doc, [F(t)] + [F(0)] * (doc["dim"] - 1))


def max_subsets(doc: dict) -> int:
    return comb(len(doc["facets"]), doc["dim"])


def pass_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# ---------------------------------------------------------------------------
# per-workload input lists (one list per pass)
# ---------------------------------------------------------------------------

# n -> (chopped corners, cubes per pass).  The corners are random, their
# number is not: on the 5-cube the number of chops moves the cost of an op
# by a factor of two, the choice of corners by about 7 %.  The eight chopped
# 4-cubes hold ranks 91-98 of the 103 ops of a pass, so p90 falls inside
# that group; only the 5-cubes and the chopped 4-cube of the corpus and its
# image cost more.
CUBE_CHOPS = {3: (4, 6), 4: (6, 8), 5: (4, 2)}


# Images per corpus member, by dimension.  The 63 corpus polygons and their
# images, 2-6 ms each, are the cheapest ops, so the median op lies inside
# that cluster.
IMAGES_PER_MEMBER = {2: 8, 3: 3, 4: 1}


def profile_inputs(corpus: list[tuple[str, dict]], seed: int, k: int) -> list[tuple[str, dict]]:
    """Corpus, images of every corpus member, and chopped n-cubes.

    Images of polygons and 3-polytopes are tilted.  A tilted image of the
    chopped 4-cube took 2.3 s against 0.6 s for the original, so the
    4-dimensional images keep x1 and with it the original's chambers.
    """
    rng = pass_rng("profile-sweep", seed, k)
    out = list(corpus)
    for name, doc in corpus:
        for _ in range(IMAGES_PER_MEMBER[doc["dim"]]):
            image = (tilted_image(doc, rng) if doc["dim"] < 4
                     else random_image(doc, rng, keep_first=True))
            out.append((f"image-{name}", image))
    for n, (chops, count) in CUBE_CHOPS.items():
        corners = list(product((0, 1), repeat=n))
        for _ in range(count):
            out.append((f"cube{n}-chop{chops}", chopped_cube_doc(n, rng.sample(corners, chops))))
    rng.shuffle(out)
    return out


def surgery_inputs(corpus: list[tuple[str, dict]], seed: int, k: int) -> list[tuple[str, dict, int]]:
    """Dim-2..3 corpus members, one image of each, and rescaled wedges.

    Each entry carries its own seed for the choices the client makes along
    the chain (levels, eps), so a chain's inputs do not depend on the
    outputs of other chains.
    """
    rng = pass_rng("surgery-chain", seed, k)
    small = [(name, doc) for name, doc in corpus if doc["dim"] <= 3]
    out = []
    for name, doc in small:
        out.append((name, doc))
        out.append((f"image-{name}", random_image(doc, rng)))
    for _ in range(4):
        scale = F(rng.randint(1, 12), rng.randint(1, 4))
        out.append((f"wedge*{fmt(scale)}", random_image(wedge_doc(scale), rng, keep_first=True)))
    rng.shuffle(out)
    return [(name, doc, rng.getrandbits(64)) for name, doc in out]


# Malformed CLI inputs (ROADMAP item 4).  Each is (kind, argv tail, file
# text, known_defect): a correct program refuses every one of them with exit
# code 1 or 2 and a message.  known_defect marks the ones the seed program
# is known to get wrong (a traceback or an exit-0 answer).
def malformed_inputs(rng: random.Random) -> list[tuple[str, list[str], str, bool]]:
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    good = wedge_doc(F(rng.randint(1, 5)))
    label_true = json.loads(text(good))
    label_true["facets"][rng.randrange(3)]["label"] = True
    float_off = json.loads(text(good))
    float_off["facets"][0]["offset"] = a / (b + 0.5)
    nonprim = json.loads(text(good))
    nonprim["facets"][2]["normal"] = [2 * a, 0]
    strip = polytope_doc(2, [((-1, 0), F(0), 1), ((0, -1), F(0), 1), ((0, 1), F(a), 1)])
    return [
        ("facets-ints", ["validate"], json.dumps({"dim": 2, "facets": [a, b]}), True),
        ("unbounded-dh", ["dh"], text(strip), True),
        ("label-true", ["validate"], json.dumps(label_true, sort_keys=True), True),
        ("float-offset", ["validate"], json.dumps(float_off, sort_keys=True), False),
        ("non-primitive", ["info"], json.dumps(nonprim, sort_keys=True), False),
        ("bad-json", ["dh"], text(good)[:-b], False),
    ]


def cli_inputs(corpus: list[tuple[str, dict]], seed: int, k: int):
    """Chains on sheared, rescaled wedges and two dim-2 corpus images, plus the
    malformed inputs: ([(name, doc, chain seed)], malformed_inputs)."""
    rng = pass_rng("cli-pipeline", seed, k)
    out = []
    for _ in range(3):
        scale = F(rng.randint(1, 12), rng.randint(1, 4))
        out.append((f"wedge*{fmt(scale)}", random_image(wedge_doc(scale), rng, keep_first=True)))
    two = [(name, doc) for name, doc in corpus if doc["dim"] == 2]
    for name, doc in rng.sample(two, 2):
        out.append((f"image-{name}", random_image(doc, rng, keep_first=True)))
    return [(name, doc, rng.getrandbits(64)) for name, doc in out], malformed_inputs(rng)


# Calls of each battery per pass.  At 20 trials a call of `psh` or
# `npm_scaling` costs about 3 ms, `cut_identity` 13, `blowup_potential` 35,
# `solve_membership` 47 and `monotone` 53; the probes cost 60-140 ms.  With
# one call of each of the two cheapest, the 8 passes of a run put the median
# op in the middle of the 16 `solve_membership` calls rather than at the
# edge between two batteries.
BATTERIES = {"monotone": 2, "solve_membership": 2, "npm_scaling": 1, "psh": 1,
             "cut_identity": 2, "blowup_potential": 2}
BATTERY_TRIALS = 20
# Battery calls draw their seed from range(BATTERY_SEEDS), convexity
# probes from range(CONVEXITY_SEEDS).  Every call in these ranges was run
# once with the seed program: no probe failed, and the battery calls that
# did are listed in workloads.FAILING_BATTERY_CALLS.
BATTERY_SEEDS = 1024
CONVEXITY_SEEDS = 256
CONVEXITY_TRIALS = 4
CONVEXITY_WEIGHTS = ((-1, 1), (-2, 3), (-1, -1, 2), (-2, 1, 1, 0))


def local_inputs(seed: int, k: int) -> list[tuple[str, object, int]]:
    """BATTERIES calls of every battery and one probe per action, seeds drawn from the pass's stream."""
    rng = pass_rng("local-model", seed, k)
    calls: list[tuple[str, object, int]] = []
    for name, count in BATTERIES.items():
        for _ in range(count):
            calls.append(("battery", name, rng.randrange(BATTERY_SEEDS)))
    for w in CONVEXITY_WEIGHTS:
        calls.append(("convexity", w, rng.randrange(CONVEXITY_SEEDS)))
    rng.shuffle(calls)
    return calls
