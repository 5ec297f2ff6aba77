"""Seeded inputs for the three workloads, built without the package under test.

Group arithmetic here is a few lines of plain Python (element orders and
power classes of small products of cyclic groups), so a change to the
program can never change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

SWEEP_MAX_ORDER = 128
SWEEP_DECISIONS = 3000
DENSE_SHARE = 1 / 50
NOT_POWER_CLOSED_SHARE = 1 / 4
CENSUS_GROUPS = ((4, 3, 3), (8, 9), (32, 3))
SCHEDULE_ROUNDS = 64


def factor_lists(max_order: int) -> list[tuple[int, ...]]:
    """Every non-decreasing list of cyclic factors (each >= 2) with product <= max_order."""
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], product: int, smallest: int) -> None:
        n = smallest
        while product * n <= max_order:
            found.append(prefix + (n,))
            extend(prefix + (n,), product * n, n)
            n += 1

    extend((), 1, 2)
    return sorted(found)


def group_text(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{n}" for n in factors)


def sylow2_cyclic(factors: tuple[int, ...]) -> bool:
    return sum(1 for n in factors if n % 2 == 0) <= 1


def element_order(factors: tuple[int, ...], g: tuple[int, ...]) -> int:
    return math.lcm(*(n // math.gcd(n, c) for c, n in zip(g, factors)))


def power_classes(factors: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Non-identity power classes (generators of one cyclic subgroup), each sorted."""
    seen: set[tuple[int, ...]] = set()
    classes = []
    for g in itertools.product(*(range(n) for n in factors)):
        if g in seen or not any(g):
            continue
        k = element_order(factors, g)
        cls = {
            tuple((t * c) % n for c, n in zip(g, factors))
            for t in range(1, k + 1)
            if math.gcd(t, k) == 1
        }
        seen |= cls
        classes.append(sorted(cls))
    return classes


def _negate(factors: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((-c) % n for c, n in zip(g, factors))


def sweep_inputs(seed: int, count: int = SWEEP_DECISIONS) -> list[dict]:
    """Decisions for the research sweep.

    Groups are drawn uniformly from all factor lists of order <= 128; three
    quarters of the sets are unions of power classes (each kept with
    probability 1/2), the rest add one inverse pair from a class of more than
    two elements, which makes them inverse-closed but not power-closed.
    """
    rng = random.Random(f"sweep-{seed}")
    lists = factor_lists(SWEEP_MAX_ORDER)
    classes_of: dict[tuple[int, ...], list] = {}
    decisions = []
    for _ in range(count):
        factors = rng.choice(lists)
        if factors not in classes_of:
            classes_of[factors] = power_classes(factors)
        classes = classes_of[factors]
        splittable = [i for i, cls in enumerate(classes) if len(cls) > 2]
        split = None
        if splittable and rng.random() < NOT_POWER_CLOSED_SHARE:
            split = rng.choice(splittable)
        members: set[tuple[int, ...]] = set()
        for i, cls in enumerate(classes):
            if i != split and rng.random() < 0.5:
                members.update(cls)
        if split is not None:
            g = rng.choice(classes[split])
            members |= {g, _negate(factors, g)}
        decisions.append(
            {
                "group": group_text(factors),
                "set": [list(g) for g in sorted(members)],
                "in_scope": sylow2_cyclic(factors),
                "power_closed": split is None,
                "dense": rng.random() < DENSE_SHARE,
            }
        )
    return decisions


def _shifted(factors, shift, elements):
    return {tuple((s + c) % n for s, c, n in zip(shift, g, factors)) for g in elements}


def transfer_union(factors: tuple[int, ...], generators) -> list[tuple[int, ...]]:
    """S + (a+S) + (+-b+S) + {a}: a transfer set of the group, with S the classes of `generators`.

    The group must have one even factor, first, of order divisible by 4;
    a is its involution and b, -b its order-four pair.
    """
    even = factors[0]
    zeros = (0,) * (len(factors) - 1)
    a, b = (even // 2, *zeros), (even // 4, *zeros)
    base = set()
    for cls in power_classes(factors):
        if any(tuple(g) in cls for g in generators):
            base.update(cls)
    union = base | _shifted(factors, a, base) | {a}
    union |= _shifted(factors, b, base) | _shifted(factors, _negate(factors, b), base)
    return sorted(union)


def cli_operations() -> list[dict]:
    """The six valid commands of the cli workload.

    A `file` entry is written to disk (in seeded order) and passed as @path
    in place of the `{file}` argument.  `floats` marks outputs that carry
    computed amplitudes, which are checked within a tolerance.
    """
    big = transfer_union((64, 9, 7), [(0, 3, 0), (0, 0, 1)])
    small = transfer_union((4, 3, 3), [(0, 1, 0), (0, 0, 1)])
    pair = "{1024,3072}"
    return [
        {"name": "spectrum", "argv": ["spectrum", "-g", "Z64xZ9xZ7", "-c", "{file}"], "file": big},
        {
            "name": "walk",
            "argv": ["walk", "-g", "Z4096", "-c", pair, "-t", "pi/2", "--target", "2048"],
            "floats": True,
        },
        {
            "name": "check",
            "argv": ["check", "-g", "Z4096", "-c", pair, "--cross-validate"],
            "floats": True,
        },
        {
            "name": "check_small",
            "argv": ["check", "-g", "Z4xZ3xZ3", "-c", "{file}", "--cross-validate"],
            "file": small,
            "floats": True,
        },
        {"name": "export", "argv": ["export", "-g", "Z2048", "-c", "{512,1536}", "--format", "json"]},
        {"name": "classes", "argv": ["classes", "-g", "Z65536"]},
    ]


def reject_operations() -> list[dict]:
    """Malformed inputs; each must exit 2 with one stderr line and no stdout.

    The last four are defects known at the parent commit (two silent
    coercions, a traceback and a hang); they stay in the share so a fix
    shows as a lower error ratio.
    """
    from_file = ["check", "-g", "Z4", "-c", "{file}"]
    return [
        {"name": "reject_bad_group", "argv": ["check", "-g", "Zx4", "-c", "{1}"]},
        {"name": "reject_not_inverse_closed", "argv": ["check", "-g", "Z8", "-c", "{1,2,7}"]},
        {"name": "reject_float_coordinate", "argv": from_file, "file": [[1.7], [3]]},
        {"name": "reject_bool_coordinate", "argv": from_file, "file": [True, 3]},
        {"name": "reject_nested_coordinate", "argv": from_file, "file": [[[1]]]},
        {
            "name": "reject_huge_group",
            "argv": ["check", "-g", "Z100000000000", "-c", "{1,99999999999}"],
            "limited": True,
        },
    ]


def census_operations() -> list[dict]:
    return [
        {"name": f"enumerate_{group_text(g)}", "argv": ["enumerate", "-g", group_text(g)]}
        for g in CENSUS_GROUPS
    ]


def schedule(seed: int, workload: str, names: list[str]) -> list[list[str]]:
    """Seeded operation order for each round; runs use a prefix of it."""
    rng = random.Random(f"{workload}-{seed}")
    rounds = []
    for _ in range(SCHEDULE_ROUNDS):
        order = list(names)
        rng.shuffle(order)
        rounds.append(order)
    return rounds


def shuffled_file(seed: int, name: str, payload: list) -> list:
    rng = random.Random(f"file-{name}-{seed}")
    entries = list(payload)
    rng.shuffle(entries)
    return entries


def digest(value) -> str:
    """sha256 of the canonical JSON form: equal digests mean identical inputs."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
