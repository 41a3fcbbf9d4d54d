"""Searcher strategy trees: built-in families, the JSON wire format, verification.

``core`` defines the tree types (``StrategyTree``, ``StrategyNode``,
``MixEntry``); this module builds, parses and names trees, and ``solver``
evaluates them.

Verification symmetrizes implicitly: the tree is evaluated as if the boxes
had been uniformly shuffled before play, by orbit-counting draws over count
patterns rather than by enumerating the n! relabelings.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import solver  # called through the module, so a wrapper set on it is reached
from .core import GameSpec, MixEntry, StrategyNode, StrategyTree, Variant
from .rational import format_rational, parse_rational


def node(*entries) -> StrategyNode:
    return StrategyNode(tuple(entries))


def entry(prob, query, branches=None) -> MixEntry:
    branches = branches or {}
    return MixEntry(
        prob=Fraction(prob),
        query=tuple(sorted(query)),
        branches=tuple(sorted(branches.items())),
    )


def ask(query, branches=None) -> StrategyNode:
    """Single-query node (mix weight 1)."""
    return node(entry(1, query, branches))


def verify(spec: GameSpec, strategy: StrategyTree) -> Fraction:
    """Exact worst-case winning probability of ``strategy`` under ``spec``.

    The minimum over all hider behaviors (placements, and reveal choices
    under the adversary variant) after uniform-shuffle symmetrization.
    Cooperative specs need a reveal rule; see ``joint_verify_cooperative``.
    """
    return solver.best_response_value(spec, strategy).value


def joint_verify_cooperative(spec: GameSpec, strategy: StrategyTree, reveal_rule) -> Fraction:
    """Worst-case win probability when the revealer plays ``reveal_rule``."""
    if spec.variant != Variant.COOPERATIVE:
        raise ValueError("joint verification is for the cooperative variant")
    return solver.joint_cooperative_value(spec, strategy, reveal_rule)


def least_treasures_rule(counts_in_query: dict, history) -> int:
    """Surrender from the queried box holding the fewest treasures (>0);
    ties go to the lowest label."""
    best = None
    for label in sorted(counts_in_query):
        c = counts_in_query[label]
        if c > 0 and (best is None or c < counts_in_query[best]):
            best = label
    if best is None:
        raise ValueError("no queried box holds a treasure")
    return best


# ---------------------------------------------------------------------------
# Built-in strategy families.
# ---------------------------------------------------------------------------


def fig432() -> StrategyTree:
    """Optimal plan for n=4, d=3, k=2; worst-case value 2/5.

    Open two boxes; after the first reveal, with probability 4/5 pair the
    paying box with a new box, otherwise open the two untouched boxes.
    """
    root = ask(
        (0, 1),
        {
            0: node(
                entry(Fraction(4, 5), (0, 2), {0: ask((0, 3)), 2: ask((2, 3))}),
                entry(Fraction(1, 5), (2, 3), {2: ask((0, 2))}),
            )
        },
    )
    return StrategyTree(4, 3, 2, root)


def fig542() -> StrategyTree:
    """Plan for n=5, d=4, k=2 reaching the combinatorial bound 8/35."""
    lower_third = node(
        entry(Fraction(1, 3), (2, 4), {2: ask((0, 2)), 4: ask((0, 4))}),
        entry(Fraction(1, 3), (0, 4), {0: ask((0, 2)), 4: ask((2, 4))}),
        entry(Fraction(1, 3), (0, 2), {0: ask((0, 4)), 2: ask((2, 4))}),
    )
    root = ask(
        (0, 1),
        {
            0: node(
                entry(
                    Fraction(4, 7),
                    (0, 2),
                    {
                        0: ask((0, 3), {0: ask((0, 4)), 3: ask((3, 4))}),
                        2: ask((2, 3), {2: ask((2, 4)), 3: ask((3, 4))}),
                    },
                ),
                entry(Fraction(3, 7), (2, 3), {2: lower_third}),
            )
        },
    )
    return StrategyTree(5, 4, 2, root)


def family_d2(k: int) -> StrategyTree:
    """Two treasures in n = 2k-1 boxes: open k boxes, then pair the paying
    box with the k-1 untouched ones.  Worst-case value k^2 / C(2k, 2)."""
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k - 1
    second = ask((0,) + tuple(range(k, 2 * k - 1)))
    root = ask(tuple(range(k)), {0: second})
    return StrategyTree(n, 2, k, root)


def family_d3(k: int) -> StrategyTree:
    """Three treasures in n = 3k-2 boxes; worst-case value k^3 / C(3k, 3).

    After the opening reveal the second query is mixed: with weight
    n*k^2 / C(n+2, 3) keep the paying box and add k-1 new boxes, otherwise
    move to k entirely new boxes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return StrategyTree(1, 3, 1, ask((0,), {0: ask((0,), {0: ask((0,))})}))
    n = 3 * k - 2
    w = Fraction(n * k * k, comb(n + 2, 3))
    tail = tuple(range(2 * k - 1, 3 * k - 2))  # the last k-1 boxes
    upper = entry(
        w,
        (0,) + tuple(range(k, 2 * k - 1)),
        {
            0: ask((0,) + tail),
            k: ask((k,) + tail),
        },
    )
    lower = entry(
        1 - w,
        tuple(range(k, 2 * k)),
        {
            k: ask((0, k) + tuple(range(2 * k, 3 * k - 2))),
        },
    )
    root = ask(tuple(range(k)), {0: node(upper, lower)})
    return StrategyTree(n, 3, k, root)


def family_332(variant: Variant | str) -> StrategyTree:
    """The three explicit plans for n=3, d=3, k=2, one per revealer variant.

    Worst-case values: adversary 3/5, random 12/19, and 2/3 for the
    cooperative plan when paired with ``least_treasures_rule``.
    """
    variant = Variant(variant)
    if variant == Variant.COOPERATIVE:
        root = ask((0, 1), {0: ask((0, 1), {0: ask((0, 2)), 1: ask((1, 2))})})
        return StrategyTree(3, 3, 2, root)
    if variant == Variant.RANDOM:
        root = ask(
            (0, 1),
            {
                0: node(
                    entry(
                        Fraction(18, 19),
                        (0, 2),
                        {
                            0: ask((0, 1)),
                            2: node(
                                entry(Fraction(1, 3), (0, 2)),
                                entry(Fraction(2, 3), (1, 2)),
                            ),
                        },
                    ),
                    entry(
                        Fraction(1, 19),
                        (1, 2),
                        {1: ask((0, 1)), 2: ask((0, 2))},
                    ),
                )
            },
        )
        return StrategyTree(3, 3, 2, root)
    root = ask(
        (0, 1),
        {
            0: node(
                entry(
                    Fraction(3, 10),
                    (0, 1),
                    {0: ask((0, 2)), 1: ask((1, 2))},
                ),
                entry(
                    Fraction(6, 10),
                    (0, 2),
                    {
                        0: node(entry(Fraction(1, 2), (0, 1)), entry(Fraction(1, 2), (0, 2))),
                        2: node(entry(Fraction(1, 2), (0, 2)), entry(Fraction(1, 2), (1, 2))),
                    },
                ),
                entry(
                    Fraction(1, 10),
                    (1, 2),
                    {1: ask((0, 1)), 2: ask((0, 2))},
                ),
            )
        },
    )
    return StrategyTree(3, 3, 2, root)


def family_infinite_d(n: int, d: int, k: int) -> StrategyTree:
    """Follow-the-last-reveal: re-query the box that just paid plus k-1
    boxes drawn uniformly from the other n-1, expanded to an explicit mix.

    Its worst-case value is at least the closed-form floor from
    ``lower_bound_infinite_d`` for every d.
    """
    if k < 2:
        raise ValueError("the follow-the-last-reveal plan needs k >= 2")
    if not k <= n:
        raise ValueError("k cannot exceed n")
    if d < 1:
        raise ValueError("d must be positive")
    from itertools import combinations

    total_choices = comb(n - 1, k - 1)
    memo: dict = {}

    def make(touched: int, prev: int, depth: int) -> StrategyNode | None:
        if depth == d:
            return None
        key = (touched, prev, depth)
        if key in memo:
            return memo[key]
        untouched = n - touched
        others = [b for b in range(touched) if b != prev]
        entries = []
        for j in range(0, k):
            f = k - 1 - j
            if f > untouched or j > len(others):
                continue
            weight_fresh = comb(untouched, f)
            for known_extra in combinations(others, j):
                prob = Fraction(weight_fresh, total_choices)
                known = tuple(sorted((prev,) + known_extra))
                query = known + tuple(range(touched, touched + f))
                new_touched = touched + f
                branches = {b: make(new_touched, b, depth + 1) for b in known}
                if f:
                    branches[touched] = make(new_touched, touched, depth + 1)
                entries.append(entry(prob, query, branches))
        result = node(*entries)
        memo[key] = result
        return result

    first_branches = {0: make(k, 0, 1)} if d > 1 else {}
    del make  # it refers to itself, so only the cycle collector would free it and ``memo``
    root = ask(tuple(range(k)), first_branches)
    return StrategyTree(n, d, k, root)


def single_query(n: int, d: int, k: int) -> StrategyTree:
    """Ask {0..k-1} once and stop; with d = 1 this is worth exactly k/n."""
    return StrategyTree(n, d, k, ask(tuple(range(k))))


BUILTIN_FAMILIES = {
    "fig432": lambda **kw: fig432(),
    "fig542": lambda **kw: fig542(),
    "d2": lambda k, **kw: family_d2(k),
    "d3": lambda k, **kw: family_d3(k),
    "332-adversary": lambda **kw: family_332(Variant.ADVERSARY),
    "332-random": lambda **kw: family_332(Variant.RANDOM),
    "332-cooperative": lambda **kw: family_332(Variant.COOPERATIVE),
    "infinite-d": lambda n, d, k, **kw: family_infinite_d(n, d, k),
}


def builtin_family(name: str, **params) -> StrategyTree:
    if name not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown strategy family {name!r}; known: {sorted(BUILTIN_FAMILIES)}")
    try:
        return BUILTIN_FAMILIES[name](**params)
    except TypeError as exc:
        raise ValueError(f"family {name!r} is missing a parameter: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def to_json_dict(tree: StrategyTree) -> dict:
    return {"n": tree.n, "d": tree.d, "k": tree.k, "root": _node_json(tree.root)}


def _node_json(n: StrategyNode | None):
    if n is None:
        return "end"
    return {
        "mix": [
            {
                "p": format_rational(e.prob),
                "query": list(e.query),
                "branches": {str(box): _node_json(child) for box, child in e.branches},
            }
            for e in n.mix
        ]
    }


def from_json_dict(data: dict) -> StrategyTree:
    """Parse the wire format; a malformed field raises ``ValueError``
    naming its path."""
    if not isinstance(data, dict):
        raise ValueError("strategy JSON must be an object with fields n, d, k and root")
    missing = [name for name in ("n", "d", "k", "root") if name not in data]
    if missing:
        raise ValueError(f"strategy JSON is missing field {missing[0]!r}")
    for name in ("n", "d", "k"):
        if type(data[name]) is not int:  # a JSON integer: no bool, float or string
            raise ValueError(f"strategy JSON field {name!r} is not an integer: {data[name]!r}")
    root = _node_from_json(data["root"], path=("root",))
    return StrategyTree(data["n"], data["d"], data["k"], root=root)


def _node_from_json(data, path):
    if data == "end" or data is None:
        return None
    if not isinstance(data, dict) or not isinstance(data.get("mix"), list):
        raise ValueError(f"strategy node at {'/'.join(map(str, path))} must be 'end' or have a mix list")
    entries = []
    for i, e in enumerate(data["mix"]):
        here = path + (f"mix[{i}]",)
        try:
            if not isinstance(e, dict):
                raise ValueError("not an object")
            prob = parse_rational(str(e["p"]))
            if not isinstance(e["query"], list):
                raise ValueError("query is not a list")
            if any(type(b) is not int for b in e["query"]):
                raise ValueError(f"query {e['query']} has a label that is not an integer")
            query = tuple(e["query"])
            if not isinstance(e.get("branches", {}), dict):
                raise ValueError("branches is not an object")
            branches = []
            for box, child in e.get("branches", {}).items():
                if str(int(box)) != box:  # "00", " 0", "+0" and "0_0" would all name box 0
                    raise ValueError(f"branch key {box!r} is not a label in canonical decimal")
                branches.append((int(box), here + (box,), child))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad mix entry at {'/'.join(map(str, here))}: {exc}") from exc
        entries.append(entry(prob, query, {box: _node_from_json(child, at) for box, at, child in branches}))
    return node(*entries)
