"""Independent checks of the answers the benchmark's jobs produce.

Nothing here calls the code it checks on the path being checked.  Group
tables, the Hurwitz moves, orbit counting, the Burau representation and
GF(2) elimination are written out again from their definitions; only the
coherence equations (the problem statement of the solver) and the tree
operations used by the graft-then-normalize sample come from the package.

Every checker returns a list of problems; an empty list means the answer
passed.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

# -- group tables --------------------------------------------------------


def _perm_table(perms):
    elems = sorted(perms)
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[q[k]] for k in range(len(q)))] for q in elems]
           for p in elems]
    return mul


def _closure(gens, n):
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[k]] for k in range(n))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def _factor_table(spec):
    family, n = spec[0], int(spec[1:])
    if family == "C":
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    if family == "S":
        return _perm_table(itertools.permutations(range(n)))
    if family == "D" and n >= 3:
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((-i) % n for i in range(n))
        return _perm_table(_closure((rot, ref), n))
    raise ValueError(f"no oracle table for {spec!r}")


def group_table(spec: str):
    """(mul, inv) for C<n>, S<n>, D<n> (n >= 3) and their x-products, with
    the package's indexing: lexicographic one-line order for permutation
    groups, x*|b| + y for pairs."""
    parts = spec.split("x")
    mul = _factor_table(parts[0])
    for part in parts[1:]:
        a, b = mul, _factor_table(part)
        nb = len(b)
        size = len(a) * nb
        mul = [[a[i // nb][j // nb] * nb + b[i % nb][j % nb]
                for j in range(size)] for i in range(size)]
    inv = [row.index(0) for row in mul]
    return mul, inv


# -- Hurwitz orbits by union-find ----------------------------------------


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:  # the smaller id stays root: it is the sorted-first point
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra


def _components(parent):
    sizes = {}
    for x in range(len(parent)):
        root = _find(parent, x)
        sizes[root] = sizes.get(root, 0) + 1
    return sizes


def colored_census(spec: str, colors: tuple[int, ...]) -> dict:
    """Every colored tuple (sigma, b) over the given input colors, split by
    boundary output.  ``census`` maps each output to {"points": n,
    "orbits": {rep: size}}, where rep = (sigma images, b) is the
    sorted-first point of its orbit; the rest is kept for sample checks."""
    mul, inv = group_table(spec)
    order, r = len(mul), len(colors)
    perms = list(itertools.permutations(range(1, r + 1)))
    perm_id = {p: i for i, p in enumerate(perms)}
    bs = list(itertools.product(range(order), repeat=r))
    nb = len(bs)
    b_id = {b: i for i, b in enumerate(bs)}
    parent = list(range(len(perms) * nb))
    outputs = [0] * len(parent)
    for pi, sigma in enumerate(perms):
        slot_at = [0] * (r + 1)  # position -> slot
        for slot, pos in enumerate(sigma, start=1):
            slot_at[pos] = slot
        moved = []
        for j in range(1, r):
            s = list(sigma)
            for k in range(r):
                if s[k] == j:
                    s[k] = j + 1
                elif s[k] == j + 1:
                    s[k] = j
            moved.append(perm_id[tuple(s)] * nb)
        for bi, b in enumerate(bs):
            acc = 0
            for p in range(r):
                x = b[p]
                acc = mul[acc][mul[mul[x][colors[slot_at[p + 1] - 1]]][inv[x]]]
            point = pi * nb + bi
            outputs[point] = acc
            for j in range(1, r):
                g = colors[slot_at[j] - 1]
                x, y = b[j - 1], b[j]
                nb_ = list(b)
                nb_[j - 1] = mul[mul[mul[x][g]][inv[x]]][y]
                nb_[j] = x
                _union(parent, point, moved[j - 1] + b_id[tuple(nb_)])
    census = {}
    for root, size in _components(parent).items():
        entry = census.setdefault(outputs[root], {"points": 0, "orbits": {}})
        entry["points"] += size
        entry["orbits"][(perms[root // nb], bs[root % nb])] = size
    return {"census": census, "parent": parent, "perms": perms,
            "perm_id": perm_id, "bs": bs, "b_id": b_id, "outputs": outputs}


def bare_census(spec: str, r: int) -> dict:
    """Orbits of the bare move (t_j, t_j+1) -> (t_j t_j+1 t_j^-1, t_j) on
    G^r, keyed like colored ones: ((), b) of the sorted-first tuple."""
    mul, inv = group_table(spec)
    order = len(mul)
    bs = list(itertools.product(range(order), repeat=r))
    b_id = {b: i for i, b in enumerate(bs)}
    parent = list(range(len(bs)))
    for i, b in enumerate(bs):
        for j in range(1, r):
            x, y = b[j - 1], b[j]
            nb_ = list(b)
            nb_[j - 1] = mul[mul[x][y]][inv[x]]
            nb_[j] = x
            _union(parent, i, b_id[tuple(nb_)])
    orbits = {((), bs[root]): size
              for root, size in _components(parent).items()}
    return {"orbits": orbits, "parent": parent, "b_id": b_id,
            "points": len(bs)}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def _decorated_key(entry: dict):
    return (tuple(entry.get("sigma", ())), _ints(entry["b"]))


def check_orbit_report(results: dict, expected_orbits: dict,
                       expected_points: int) -> list[str]:
    """A full decomposition against the union-find orbits: the point count,
    the orbit count, and every (representative, size) pair."""
    problems = []
    if results.get("points") != expected_points:
        problems.append(f"points {results.get('points')} != {expected_points}")
    if results.get("orbit_count") != len(expected_orbits):
        problems.append(f"orbit_count {results.get('orbit_count')} != "
                        f"{len(expected_orbits)}")
    got = {}
    for o in results.get("orbits", ()):
        got[_decorated_key(o["representative"])] = o["size"]
    if got != expected_orbits:
        problems.append("orbit representatives or sizes differ")
    keys = [_decorated_key(o["representative"])
            for o in results.get("orbits", ())]
    if keys != sorted(keys):
        problems.append("orbits are not ordered by representative")
    return problems


def check_colored_samples(results: dict, info: dict, colors, output,
                          expected_points: int) -> list[str]:
    """Each sampled start lies in the component, and its orbit size is the
    size of its union-find class."""
    problems = []
    if results.get("points") != expected_points:
        problems.append(f"points {results.get('points')} != {expected_points}")
    nb = len(info["bs"])
    for s in results.get("samples", ()):
        start = s["start"]
        sigma, b = tuple(start.get("sigma", ())), _ints(start["b"])
        if _ints(start.get("colors", "")) != tuple(colors) \
                or sigma not in info["perm_id"] or b not in info["b_id"]:
            problems.append("sample start is not a point of the coloring")
            continue
        point = info["perm_id"][sigma] * nb + info["b_id"][b]
        if info["outputs"][point] != output:
            problems.append("sample start lies outside the component")
            continue
        root = _find(info["parent"], point)
        size = info["census"][output]["orbits"][
            (info["perms"][root // nb], info["bs"][root % nb])]
        if s["orbit_size"] != size:
            problems.append(f"orbit size {s['orbit_size']} != {size}")
    return problems


def check_bare_samples(results: dict, info: dict) -> list[str]:
    problems = []
    if results.get("points") != info["points"]:
        problems.append(f"points {results.get('points')} != {info['points']}")
    bs = list(info["b_id"])
    for s in results.get("samples", ()):
        point = info["b_id"].get(_ints(s["start"]["b"]))
        if point is None:
            problems.append("sample start is not a tuple of the space")
            continue
        size = info["orbits"][((), bs[_find(info["parent"], point)])]
        if s["orbit_size"] != size:
            problems.append(f"orbit size {s['orbit_size']} != {size}")
    return problems


# -- groupoid counts -----------------------------------------------------


def check_groupoid_report(results: dict, order: int, r: int) -> list[str]:
    """objects = r!|G|^r; each object has r-1 braid and |G| conjugation
    generators; each generator composes with every generator at its target."""
    objects = math.factorial(r) * order ** r
    per_object = r - 1 + order
    want = {"objects": objects, "generators": objects * per_object,
            "compositions": objects * per_object * per_object}
    problems = [f"{k} {results.get(k)} != {v}"
                for k, v in want.items() if results.get(k) != v]
    if results.get("failures"):
        problems.append(f"{len(results['failures'])} comparison failures")
    return problems


# -- relation table ------------------------------------------------------


def load_table(root: Path) -> list[dict]:
    return json.loads(
        (root / "src" / "gbraids" / "relation_table.json").read_text())


def check_relation_reports(reports: list, table: list, order: int,
                           mutant: bool) -> list[str]:
    """Every table entry checked in order over all |G|^#symbols
    assignments; no failures on the real table, some under the mutant."""
    problems = []
    if [r["relation"] for r in reports] != [e["id"] for e in table]:
        return ["relations reported differ from the table"]
    failures = 0
    for rep, entry in zip(reports, table):
        want = order ** len(entry["symbols"])
        if rep["assignments_checked"] != want:
            problems.append(f"{entry['id']}: assignments_checked "
                            f"{rep['assignments_checked']} != {want}")
        failures += rep["failure_count"]
    if mutant and failures == 0:
        problems.append("mutated braiding passed every relation")
    if not mutant and failures:
        problems.append(f"{failures} relation failures on the real table")
    return problems


# -- coherence over GF(2) ------------------------------------------------

_GENERATORS = ("alpha", "ell", "r", "beta", "gamma", "delta", "eps", "c")
_KEY_ARITY = {"alpha": 3, "ell": 1, "r": 1, "beta": 3, "gamma": 3,
              "delta": 1, "eps": 1, "c": 2}


def variable_index(order: int) -> dict:
    """The documented variable order: generators in table order, keys in
    lexicographic order."""
    out = {}
    for gen in _GENERATORS:
        for key in itertools.product(range(order), repeat=_KEY_ARITY[gen]):
            out[(gen, key)] = len(out)
    return out


def gf2_rows(equations, index: dict) -> list[int]:
    rows = []
    for eq in equations:
        mask = 0
        for var, coeff in eq.items():
            if coeff % 2:
                mask |= 1 << index[var]
        rows.append(mask)
    return rows


def gf2_rank(rows: list[int]) -> int:
    """Gaussian elimination on bitmask rows, keyed by each pivot's top bit."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def check_solutions(results: dict, rows: list[int], nvars: int,
                    listed_all: bool) -> list[str]:
    """The solution count is 2^(variables - rank), and every returned vector
    has even dot product with every equation."""
    problems = []
    want = 2 ** (nvars - gf2_rank(rows))
    if results.get("variables") != nvars:
        problems.append(f"variables {results.get('variables')} != {nvars}")
    if results.get("solutions") != want:
        problems.append(f"solutions {results.get('solutions')} != {want}")
    vectors = results.get("vectors", [])
    if listed_all and len(vectors) != want:
        problems.append(f"{len(vectors)} vectors listed, {want} expected")
    if len({tuple(v) for v in vectors}) != len(vectors):
        problems.append("repeated solution vectors")
    for v in vectors:
        if len(v) != nvars or any(x not in (0, 1) for x in v):
            problems.append("malformed solution vector")
            break
        mask = sum(1 << i for i, x in enumerate(v) if x)
        if any(bin(row & mask).count("1") % 2 for row in rows):
            problems.append("a returned vector violates an equation")
            break
    return problems


def datum_json(label: str, order: int, vector) -> dict:
    names = {f"{gen}:{','.join(map(str, key))}": vector[i]
             for (gen, key), i in variable_index(order).items()}
    return {"group": label, "modulus": 2, "values": names}


def check_coherent_report(results: dict, table: list, order: int) -> list[str]:
    problems = check_relation_reports(results.get("relations", []), table,
                                      order, mutant=False)
    if results.get("coherent") is not True:
        problems.append("a solution vector was reported incoherent")
    return problems


# -- operad axiom instance counts ----------------------------------------


def operad_stream_sizes(order: int, arity: int) -> dict:
    """Instances in each axiom stream when run to exhaustion.

    A(r) = r!|G|^(2r) operations of arity r; for s >= 1 the outputs are
    equidistributed over the colors, so B(s) = s!|G|^(2s-1) operations of
    arity s have any one given output."""
    A = {r: math.factorial(r) * order ** (2 * r) for r in range(1, arity + 1)}
    B = {s: math.factorial(s) * order ** (2 * s - 1)
         for s in range(1, arity + 1)}
    rs = range(1, arity + 1)
    sum_b = sum(B.values())
    return {
        "sequential-associativity":
            sum(r * A[r] for r in rs) * sum(s * B[s] for s in rs) * sum_b,
        "parallel-associativity":
            sum(math.comb(r, 2) * A[r] for r in rs) * sum_b * sum_b,
        "units": sum(A.values()),
        "equivariance": sum(r * A[r] * (math.factorial(r) + math.factorial(s))
                            * B[s] for r in rs for s in rs),
    }


def check_operad_report(report: dict, order: int, arity: int,
                        cap: int) -> list[str]:
    problems = []
    sizes = operad_stream_sizes(order, arity)
    names = [a["axiom"] for a in report.get("axioms", ())]
    if names != list(sizes):
        return [f"axiom streams {names}"]
    for a in report["axioms"]:
        want = min(cap, sizes[a["axiom"]])
        if a["instances"] != want:
            problems.append(f"{a['axiom']}: {a['instances']} instances, "
                            f"{want} expected")
        if a["failure_count"]:
            problems.append(f"{a['axiom']}: {a['failure_count']} failures")
    complete = all(sizes[n] <= cap for n in sizes)
    if report.get("complete") is not complete:
        problems.append(f"complete is {report.get('complete')}, "
                        f"{complete} expected")
    return problems


def check_splices(trees, hurwitz, braids, group, arity: int, rng,
                  samples: int) -> list[str]:
    """compose_normal against graft-then-normalize on random operations."""
    els = group.elements()
    perms = {r: braids.all_permutations(r) for r in range(1, arity + 1)}
    problems = []
    for _ in range(samples):
        r, s = rng.randint(1, arity), rng.randint(1, arity)
        j = rng.randint(1, r)
        x = hurwitz.DecoratedTuple(tuple(rng.choice(els) for _ in range(r)),
                                   rng.choice(perms[r]),
                                   tuple(rng.choice(els) for _ in range(r)))
        # y: random decorations and colors, last color fixed so that its
        # output is the color of slot j of x
        while True:
            y = hurwitz.DecoratedTuple(
                tuple(rng.choice(els) for _ in range(s)),
                rng.choice(perms[s]),
                tuple(rng.choice(els) for _ in range(s)))
            if hurwitz.color_condition(y.sigma, y.b, y.colors) == \
                    x.colors[j - 1]:
                break
        direct = trees.compose_normal(x, j, y)
        grafted = trees.normalize(trees.graft(trees.denormalize(x), j,
                                              trees.denormalize(y)))
        if direct != grafted:
            problems.append(f"splice differs from graft at r={r} s={s} j={j}")
    return problems


# -- braids: reduced Burau matrices, evaluated exactly ---------------------

PRIME = (1 << 61) - 1


def burau_points(seed: int) -> tuple[int, ...]:
    rng = random.Random(f"burau-{seed}")
    return tuple(rng.randrange(2, PRIME - 1) for _ in range(3))


def burau(n: int, letters, t: int) -> tuple:
    """The reduced Burau matrix of a word, under the ring map
    Z[t, 1/t] -> F_p sending t to the given point.  sigma_i is the identity
    except row i = (.., t, -t, 1, ..) at columns i-1, i, i+1; its inverse
    has row i = (.., 1, -1/t, 1/t, ..).  Rows of the running product are
    updated in place, as M <- M * B."""
    size = n - 1
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    tinv = pow(t, PRIME - 2, PRIME)
    for letter in letters:
        i = abs(letter) - 1  # 0-based row of the generator's matrix
        if letter > 0:
            left, mid, right = t, PRIME - t, 1
        else:
            left, mid, right = 1, PRIME - tinv, tinv
        for row in rows:
            x = row[i]
            if x:
                if i > 0:
                    row[i - 1] = (row[i - 1] + left * x) % PRIME
                if i + 1 < size:
                    row[i + 1] = (row[i + 1] + right * x) % PRIME
                row[i] = mid * x % PRIME
    return tuple(tuple(row) for row in rows)


def burau_all(n: int, letters, points) -> tuple:
    return tuple(burau(n, letters, t) for t in points)


def check_burau_is_representation(points) -> list[str]:
    """The matrices satisfy the braid relations, so equal braids always get
    equal matrices; sigma_1^2 is not the identity."""
    problems = []
    n = 5
    for t in points:
        I = burau(n, (), t)
        pairs = [((1, 2, 1), (2, 1, 2)), ((3, 4, 3), (4, 3, 4)),
                 ((1, 3), (3, 1)), ((2, -2), ()), ((-4, 4), ()),
                 ((-1, -2, -1), (-2, -1, -2))]
        for a, b in pairs:
            if burau(n, a, t) != burau(n, b, t):
                problems.append(f"Burau breaks {a} = {b}")
        if burau(n, (1, 1), t) == I:
            problems.append("Burau sends sigma_1^2 to the identity")
    return problems


def _descents(images) -> set:
    return {j for j in range(1, len(images)) if images[j - 1] > images[j]}


def _inverse(images):
    out = [0] * len(images)
    for i, v in enumerate(images, start=1):
        out[v - 1] = i
    return out


def parse_simples(n: int, letters) -> list[tuple[int, ...]]:
    """Cut a positive word into maximal simple prefixes: a letter that
    would shorten the running permutation starts a new factor."""
    factors = []
    im = list(range(1, n + 1))
    for s in letters:
        if im[s - 1] > im[s]:
            factors.append(tuple(im))
            im = list(range(1, n + 1))
        im[s - 1], im[s] = im[s], im[s - 1]
    if letters:
        factors.append(tuple(im))
    return factors


def check_normal_form_word(n: int, letters) -> list[str]:
    """A normal form reads Delta^p f1 .. fk: a block of inverse Delta
    letters or leading Delta factors, then simple factors that are neither
    trivial nor Delta, each adjacent pair left-weighted."""
    if n <= 1:
        return [] if not letters else ["letters on a single strand"]
    w0 = tuple(range(n, 0, -1))
    half = n * (n - 1) // 2
    neg = 0
    while neg < len(letters) and letters[neg] < 0:
        neg += 1
    head, rest = letters[:neg], letters[neg:]
    if any(l < 0 for l in rest):
        return ["negative letters after the leading block"]
    if head:
        if neg % half:
            return ["inverse Delta block of the wrong length"]
        if parse_simples(n, [-l for l in reversed(head)]) != [w0] * (neg // half):
            return ["leading negative letters are not a power of Delta^-1"]
    factors = parse_simples(n, rest)
    if head:
        body = factors
    else:
        lead = 0
        while lead < len(factors) and factors[lead] == w0:
            lead += 1
        body = factors[lead:]
    problems = []
    if w0 in body:
        problems.append("a Delta factor after the Delta power")
    for a, b in zip(body, body[1:]):
        if not _descents(_inverse(b)) <= _descents(a):
            problems.append("adjacent factors are not left-weighted")
            break
    return problems
