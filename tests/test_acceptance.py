"""End-to-end acceptance checks, one per release checklist item.

Each test recomputes its verdict from scratch, prints one machine-greppable
``[criterion N] PASS/FAIL`` line, and then asserts, so the printed line and
the pytest outcome always agree.  The wall-clock budgets are part of the
checklist and are asserted alongside the mathematical content.  Frozen
constants were produced by the library once and confirmed by the
independent oracles in this file before being written down.
"""
import itertools
import math
import random
import time
from collections import Counter, defaultdict

from gbraids.algebra import (CrossedAlgebraData, builtin_group_example,
                             check_coherence, solve_coherence,
                             variable_order)
from gbraids.braids import Permutation, all_permutations
from gbraids.groupoid import compare_grothendieck_to_direct
from gbraids.groups import make_group
from gbraids.hurwitz import (DecoratedTuple, color_condition,
                             component_objects, hurwitz_generator,
                             pi0_component)
from gbraids.operad import Bounds, all_operations, check_operad_axioms
from gbraids.relations import check_all_relations, load_relation_table
from gbraids.trees import (InputLeaf, LabelEdge, Tensor, compose_normal,
                           denormalize, graft, leaf_count, normalize,
                           output_color)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1: braid-group laws of the colored action ---------------------------


def test_criterion_1_hurwitz_action_laws(capsys):
    """The generator actions satisfy the braid relation, far commutation,
    and invertibility as transformation equalities on every state."""
    start = time.perf_counter()
    ok = True
    state_total = 0
    law_instances = 0
    for spec in ("C2", "C3", "S3", "D4"):
        group = make_group(spec)
        els = group.elements()
        for r in range(2, 5):
            colors = tuple(els[i % group.order] for i in range(r))
            states = [DecoratedTuple(b, sigma, colors)
                      for sigma in all_permutations(r)
                      for b in itertools.product(els, repeat=r)]
            index = {x: i for i, x in enumerate(states)}
            maps = {}
            for j in range(1, r):
                maps[j] = [index[hurwitz_generator(x, j)] for x in states]
                maps[-j] = [index[hurwitz_generator(x, -j)] for x in states]
            n = len(states)
            identity = list(range(n))
            state_total += n
            for j in range(1, r):
                fwd, back = maps[j], maps[-j]
                ok = ok and [back[v] for v in fwd] == identity
                ok = ok and [fwd[v] for v in back] == identity
                law_instances += 2 * n
            for j in range(1, r - 1):
                a, b = maps[j], maps[j + 1]
                ok = ok and ([a[b[a[i]]] for i in identity]
                             == [b[a[b[i]]] for i in identity])
                law_instances += n
            for j in range(1, r):
                for k in range(j + 2, r):
                    a, c = maps[j], maps[k]
                    ok = ok and ([a[c[i]] for i in identity]
                                 == [c[a[i]] for i in identity])
                    law_instances += n
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(capsys, 1, ok,
            f"action laws on C2,C3,S3,D4 at r=2..4: {state_total} states, "
            f"{law_instances} law instances, {elapsed:.1f}s (budget 10s)")


# -- 2: generator moves stay inside each boundary component --------------


def test_criterion_2_color_condition_closure(capsys):
    """Applying any generator to any point of a boundary component lands in
    the same component, for 200 randomized (group, signature) cases."""
    start = time.perf_counter()
    rng = random.Random(20260823)
    pool = ("C2", "C3", "C4", "C5", "C6", "C7", "C8", "S3", "D4",
            "C2xC2", "C2xC4", "C2xC2xC2")
    ok = True
    cases = 0
    moves = 0
    for _ in range(200):
        group = make_group(rng.choice(pool))
        els = group.elements()
        r = rng.randint(1, 3)
        colors = tuple(rng.choice(els) for _ in range(r))
        sigma = rng.choice(tuple(all_permutations(r)))
        b = tuple(rng.choice(els) for _ in range(r))
        output = color_condition(sigma, b, colors)
        members = component_objects(colors, output)
        table = frozenset(members)
        ok = ok and DecoratedTuple(b, sigma, colors) in table
        for x in members:
            for j in range(1, r):
                ok = ok and hurwitz_generator(x, j) in table
                ok = ok and hurwitz_generator(x, -j) in table
                moves += 2
        cases += 1
    elapsed = time.perf_counter() - start
    ok = ok and cases == 200 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"closure under generator moves: {cases} randomized cases, "
            f"{moves} moves checked, {elapsed:.1f}s (budget 5s)")


# -- 3: the normalize image equals the component object set --------------


def _shapes(n):
    if n == 1:
        return (0,)
    out = []
    for k in range(1, n):
        for left in _shapes(k):
            for right in _shapes(n - k):
                out.append((left, right))
    return tuple(out)


def _build(shape, limbs, pos=0):
    if shape == 0:
        return limbs[pos], pos + 1
    left, pos = _build(shape[0], limbs, pos)
    right, pos = _build(shape[1], limbs, pos)
    return Tensor(left, right), pos


def _tree_family(group, r, slot_step=1, color_step=1, decor_step=1):
    """Slot trees over every full binary shape: each leaf carries a slot and
    a color and at most one label edge.  The steps thin the slot, coloring,
    and labeling axes deterministically."""
    els = group.elements()
    slot_choices = tuple(itertools.permutations(range(1, r + 1)))[::slot_step]
    color_choices = tuple(itertools.product(els, repeat=r))[::color_step]
    decor_choices = tuple(itertools.product((None,) + els[1:],
                                            repeat=r))[::decor_step]
    limb_table = {}
    for slot in range(1, r + 1):
        for color in els:
            leaf = InputLeaf(slot, color)
            limb_table[slot, color, None] = leaf
            for label in els[1:]:
                limb_table[slot, color, label] = LabelEdge(label, leaf)
    for shape in _shapes(r):
        for slots in slot_choices:
            for colors in color_choices:
                for decor in decor_choices:
                    limbs = [limb_table[slots[i], colors[slots[i] - 1],
                                        decor[i]]
                             for i in range(r)]
                    yield _build(shape, limbs)[0], colors


def _exhaustive_image_check(group, r):
    """Bucket the normalize image of the full tree family by signature and
    compare against component_objects; returns (ok, trees seen)."""
    buckets = defaultdict(set)
    trees = 0
    for tree, colors in _tree_family(group, r):
        nf = normalize(tree)
        output = color_condition(nf.sigma, nf.b, nf.colors)
        if trees % 97 == 0 and output_color(tree) != output:
            return False, trees
        buckets[(colors, output)].add(nf)
        trees += 1
    per_coloring = Counter()
    for key, got in sorted(buckets.items(),
                           key=lambda item: (tuple(g.index for g in item[0][0]),
                                             item[0][1].index)):
        per_coloring[key[0]] += len(got)
    full = math.factorial(r) * group.order ** r
    if len(per_coloring) != group.order ** r:
        return False, trees
    if any(total != full for total in per_coloring.values()):
        return False, trees
    # direct set comparison on a deterministic stride of signatures
    keys = sorted(buckets, key=lambda key: (tuple(g.index for g in key[0]),
                                            key[1].index))
    step = 7 if group.order > 2 else 1
    for key in keys[::step]:
        if buckets[key] != set(component_objects(*key)):
            return False, trees
    return True, trees


def _roundtrip_check(group, signatures, stride=1):
    """Every stored component object comes back from its own tree: checks
    denormalize/normalize agreement and the tree-level output."""
    count = 0
    for colors, output in signatures:
        for nf in component_objects(colors, output)[::stride]:
            tree = denormalize(nf)
            if leaf_count(tree) != len(colors):
                return False, count
            if output_color(tree) != output:
                return False, count
            if normalize(tree) != nf:
                return False, count
            count += 1
    return True, count


def test_criterion_3_normal_form_image(capsys):
    """Normalize maps the enumerated tree families onto exactly the
    component object sets, signature by signature."""
    start = time.perf_counter()
    ok = True
    trees = 0
    roundtrips = 0

    c2 = make_group("C2")
    for r in range(1, 5):
        good, seen = _exhaustive_image_check(c2, r)
        ok = ok and good
        trees += seen
    # depth 5: every signature, via round trips plus a thinned family
    signatures = []
    for colors in itertools.product(c2.elements(), repeat=5):
        b = (c2.identity,) * 5
        signatures.append((colors, color_condition(Permutation.identity(5),
                                                   b, colors)))
    good, seen = _roundtrip_check(c2, signatures, stride=3)
    ok = ok and good
    roundtrips += seen
    for tree, _ in _tree_family(c2, 5, slot_step=5, decor_step=8):
        nf = normalize(tree)
        ok = ok and color_condition(nf.sigma, nf.b, nf.colors) == output_color(tree)
        trees += 1

    s3 = make_group("S3")
    for r in range(1, 4):
        good, seen = _exhaustive_image_check(s3, r)
        ok = ok and good
        trees += seen
    # depth 4 and 5: chosen signatures in full / thinned form
    els = s3.elements()
    quad_colors = [(els[2], els[2], els[2], els[2]),
                   (els[2], els[5], els[1], els[3])]
    quads = [(colors, h) for colors in quad_colors for h in els]
    good, seen = _roundtrip_check(s3, quads, stride=2)
    ok = ok and good
    roundtrips += seen
    for tree, _ in _tree_family(s3, 4, slot_step=1, color_step=108,
                                decor_step=54):
        nf = normalize(tree)
        ok = ok and color_condition(nf.sigma, nf.b, nf.colors) == output_color(tree)
        trees += 1
    # depth 5 over S3: every state round-trips through its own tree; a
    # stride over the full state space covers all components uniformly
    quint = (els[2], els[5], els[1], els[3], els[4])
    for sigma in tuple(all_permutations(5))[::5]:
        for b in tuple(itertools.product(els, repeat=5))[::16]:
            nf = DecoratedTuple(b, sigma, quint)
            tree = denormalize(nf)
            ok = ok and leaf_count(tree) == 5
            ok = (ok and output_color(tree)
                  == color_condition(sigma, b, quint))
            ok = ok and normalize(tree) == nf
            roundtrips += 1
    for tree, _ in _tree_family(s3, 5, slot_step=5, color_step=972,
                                decor_step=972):
        nf = normalize(tree)
        ok = ok and color_condition(nf.sigma, nf.b, nf.colors) == output_color(tree)
        trees += 1

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(capsys, 3, ok,
            f"normalize image = component objects: {trees} trees, "
            f"{roundtrips} round trips, {elapsed:.1f}s (budget 30s)")


# -- 4: component sizes partition the full state space -------------------


def test_criterion_4_counting_identity(capsys):
    """For every coloring the component sizes over all outputs sum to
    r! * |G|^r, i.e. each state lands in exactly one component."""
    start = time.perf_counter()
    ok = True
    colorings = 0
    compared = 0
    rng = random.Random(4)
    for spec in ("C2", "C3", "C4", "C5", "C6", "S3", "C2xC2"):
        group = make_group(spec)
        els = group.elements()
        sample_keys = []
        for r in range(1, 4):
            perms = tuple(all_permutations(r))
            full = math.factorial(r) * group.order ** r
            for colors in itertools.product(els, repeat=r):
                counts = Counter()
                for sigma in perms:
                    for b in itertools.product(els, repeat=r):
                        counts[color_condition(sigma, b, colors)] += 1
                ok = ok and sum(counts.values()) == full
                colorings += 1
                sample_keys.append((colors, rng.choice(sorted(counts))))
        # tie the per-output counts back to the component enumerator
        for colors, output in rng.sample(sample_keys,
                                         min(12, len(sample_keys))):
            expected = sum(1 for sigma in all_permutations(len(colors))
                           for b in itertools.product(els, repeat=len(colors))
                           if color_condition(sigma, b, colors) == output)
            ok = ok and len(component_objects(colors, output)) == expected
            compared += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(capsys, 4, ok,
            f"sum of component sizes is r!|G|^r: {colorings} colorings, "
            f"{compared} sampled components re-counted, {elapsed:.1f}s "
            f"(budget 5s)")


# -- 5: the relation table holds; the mutant does not --------------------


def test_criterion_5_relation_suite(capsys):
    """All table relations hold at every assignment over C2, C3, S3, and
    the deliberately flipped braiding breaks at least one instance."""
    start = time.perf_counter()
    ok = True
    table = load_relation_table()
    checked = 0
    for spec in ("C2", "C3", "S3"):
        group = make_group(spec)
        report = check_all_relations(group)
        ok = ok and report["total_failures"] == 0
        ok = ok and len(report["relations"]) == len(table)
        for entry, result in zip(table, report["relations"]):
            expected = group.order ** len(entry["symbols"])
            ok = ok and result["assignments_checked"] == expected
            checked += result["assignments_checked"]
    mutant = check_all_relations(make_group("C2"), mutate="braiding")
    ok = ok and mutant["total_failures"] >= 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 5, ok,
            f"all {len(table)} relations over C2,C3,S3: {checked} "
            f"assignments, 0 failures; mutant fails "
            f"{mutant['total_failures']} instances, {elapsed:.1f}s "
            f"(budget 60s)")


# -- 6: operad axioms and the fast composition path ----------------------

_C2_COMPLETE_INSTANCES = {
    "sequential-associativity": 41616,
    "parallel-associativity": 10368,
    "units": 36,
    "equivariance": 4688,
}

_S3_STREAM_CAP = 150_000


def test_criterion_6_operad_axioms(capsys):
    """Associativity, units, and equivariance hold on the full instance
    space over C2 (arity 2) and on a capped deterministic prefix over S3
    (arity 3); the splice composition equals graft-then-normalize."""
    start = time.perf_counter()
    ok = True

    small = check_operad_axioms(make_group("C2"), Bounds(2, 6, 10 ** 9))
    ok = ok and small["complete"] and small["total_failures"] == 0
    counts = {a["axiom"]: a["instances"] for a in small["axioms"]}
    ok = ok and counts == _C2_COMPLETE_INSTANCES

    s3 = make_group("S3")
    capped = check_operad_axioms(s3, Bounds(3, 6, _S3_STREAM_CAP))
    ok = ok and not capped["complete"] and capped["total_failures"] == 0
    ok = ok and all(a["instances"] == _S3_STREAM_CAP
                    for a in capped["axioms"])

    fast_checks = 0
    xs = tuple(all_operations(s3, 2))[::40]
    ys = tuple(all_operations(s3, 2))[::43]
    zs = tuple(all_operations(s3, 3))[::9000]
    ones = tuple(all_operations(s3, 1))[::3]
    for x in xs:
        for j in (1, 2):
            for y in ys:
                if color_condition(y.sigma, y.b, y.colors) != x.colors[j - 1]:
                    continue
                direct = compose_normal(x, j, y)
                grafted = normalize(graft(denormalize(x), j, denormalize(y)))
                ok = ok and direct == grafted
                fast_checks += 1
    for x in zs:
        for j in (1, 2, 3):
            for y in ones:
                if color_condition(y.sigma, y.b, y.colors) != x.colors[j - 1]:
                    continue
                direct = compose_normal(x, j, y)
                grafted = normalize(graft(denormalize(x), j, denormalize(y)))
                ok = ok and direct == grafted
                fast_checks += 1
    ok = ok and fast_checks > 500

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 6, ok,
            f"operad axioms: C2 complete ({sum(counts.values())} instances), "
            f"S3 prefix ({4 * _S3_STREAM_CAP} instances), {fast_checks} "
            f"splice-vs-graft checks, {elapsed:.1f}s (budget 60s)")


# -- 7: the two groupoid assemblies agree --------------------------------

_GROTHENDIECK_S3 = {
    1: {"objects": 6, "generators": 36, "compositions": 216},
    2: {"objects": 72, "generators": 504, "compositions": 3528},
    3: {"objects": 1296, "generators": 10368, "compositions": 82944},
}


def test_criterion_7_grothendieck_comparison(capsys):
    """The fiberwise assembly and the direct description give the same
    objects, generators, and composition law over S3 at r <= 3."""
    start = time.perf_counter()
    ok = True
    for r in range(1, 4):
        report = compare_grothendieck_to_direct(make_group("S3"), r)
        ok = ok and report["failures"] == []
        for key, value in _GROTHENDIECK_S3[r].items():
            ok = ok and report[key] == value
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    totals = _GROTHENDIECK_S3[3]
    _report(capsys, 7, ok,
            f"groupoid assemblies agree over S3 r<=3: at r=3 "
            f"{totals['objects']} objects, {totals['generators']} "
            f"generators, {totals['compositions']} composition pairs, "
            f"{elapsed:.1f}s (budget 10s)")


# -- 8: frozen orbit counts ----------------------------------------------

# (coloring indices, output index) -> (component size, orbit count);
# produced by the breadth-first enumerator and confirmed by the
# union-find oracle below before freezing.
_S3_CENSUS = {
    ((2, 2), 0): (24, 6),
    ((2, 5), 4): (24, 2),
    ((3, 4), 0): (36, 6),
    ((2, 2, 2), 2): (432, 4),
    ((2, 5, 1), 5): (432, 4),
    ((3, 3, 3), 0): (324, 2),
}

# abelian components at r=3 have fewer orbits than the |G|^(r-1) pattern
# suggests; these are the enumerator-confirmed counts.
_ABELIAN_R3 = {"C2": ((1, 1, 1), 1, 2), "C3": ((1, 1, 1), 0, 1)}


def _unionfind_orbit_count(points):
    """Independent orbit count: union-find over positive generator moves."""
    index = {x: i for i, x in enumerate(points)}
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in points:
        for j in range(1, x.size):
            a, b = find(index[x]), find(index[hurwitz_generator(x, j)])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(points))})


def test_criterion_8_orbit_count_golden_values(capsys):
    """Orbit counts match the frozen golden values: one orbit for the
    trivial group, the |G|^(r-1) pattern for abelian groups at r=2, and
    the enumerator-confirmed values at r=3 and over S3."""
    start = time.perf_counter()
    ok = True

    trivial = make_group("C1")
    e = trivial.identity
    for r in range(1, 7):
        ok = ok and len(pi0_component((e,) * r, e)) == 1

    for spec in ("C2", "C3"):
        group = make_group(spec)
        els = group.elements()
        e = group.identity
        for colors in itertools.product(els, repeat=2):
            outputs = {color_condition(sigma, b, colors)
                       for sigma in all_permutations(2)
                       for b in itertools.product(els, repeat=2)}
            ok = ok and len(outputs) == 1  # abelian: one output per coloring
            orbits = pi0_component(colors, next(iter(outputs)))
            points = [x for orbit in orbits for x in orbit]
            # the all-identity coloring degenerates to plain swapping, so
            # the |G|^(r-1) pattern needs a nontrivial color somewhere
            expected = group.order ** 2 if colors == (e, e) else group.order
            ok = ok and len(orbits) == expected
            ok = ok and _unionfind_orbit_count(points) == expected

    for spec, (coloring, output, frozen) in _ABELIAN_R3.items():
        group = make_group(spec)
        colors = tuple(group.element(i) for i in coloring)
        orbits = pi0_component(colors, group.element(output))
        ok = ok and len(orbits) == frozen
        points = [x for orbit in orbits for x in orbit]
        ok = ok and _unionfind_orbit_count(points) == frozen
        ok = ok and frozen != group.order ** 2  # the r=2 pattern stops here

    s3 = make_group("S3")
    for (coloring, output), (size, orbit_count) in _S3_CENSUS.items():
        colors = tuple(s3.element(i) for i in coloring)
        h = s3.element(output)
        points = component_objects(colors, h)
        ok = ok and len(points) == size
        orbits = pi0_component(colors, h)
        ok = ok and len(orbits) == orbit_count
        ok = ok and sum(len(o) for o in orbits) == size
        ok = ok and _unionfind_orbit_count(points) == orbit_count

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(capsys, 8, ok,
            f"orbit golden values: trivial r<=6, abelian r=2 pattern, "
            f"frozen r=3 and S3 census by two enumerators, {elapsed:.1f}s "
            f"(budget 30s)")


# -- 9: the coherence checker and solver ---------------------------------

_C2_MOD2_SOLUTIONS = 256


def test_criterion_9_coherence_checker(capsys):
    """The built-in example is coherent, and the frozen count of mod-2
    solutions over C2 is reproduced and re-verified value by value."""
    start = time.perf_counter()
    ok = True

    builtin = builtin_group_example()
    ok = ok and builtin.group.order <= 8
    report = check_coherence(builtin)
    ok = ok and report["coherent"]

    c2 = make_group("C2")
    solutions = solve_coherence(c2, modulus=2)
    ok = ok and len(solutions) == _C2_MOD2_SOLUTIONS
    vectors = [s.to_vector() for s in solutions]
    ok = ok and vectors == sorted(vectors)  # deterministic lex order
    ok = ok and all(check_coherence(s)["coherent"] for s in solutions)
    ok = ok and CrossedAlgebraData.trivial(c2, 2).to_vector() in vectors
    ok = ok and builtin.to_vector() in vectors
    ok = ok and len(vectors[0]) == len(variable_order(c2))

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(capsys, 9, ok,
            f"coherence: built-in example coherent; {len(solutions)} mod-2 "
            f"structures over C2 re-verified one by one, {elapsed:.1f}s "
            f"(budget 120s)")
