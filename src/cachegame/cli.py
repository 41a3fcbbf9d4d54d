"""Command-line front end.

Commands: solve, verify, sweep-accuracy, accumulation, plambda,
fractional-check, recheck.  Each command takes only the flags it reads,
after the command name.  Machine output is JSON with rationals as "p/q"
strings; --format table renders for humans, and --approx adds a clearly
marked non-authoritative decimal column.  sweep-accuracy prints one JSON
line of progress per instance on stderr.  solve and sweep-accuracy also take
--budget, --no-symmetry, --relaxed-queries and --cache DIR, a directory
holding one JSON file per solved instance: the payload a hit prints and the
tool version that wrote it.  recheck --cache DIR solves every entry of this
version there again and names the others as stale.  Exit codes: 0 success,
2 invalid input, 3 node budget exceeded, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import accumulation as accu
from . import fractional as frac
from . import lp as lpmod
from . import solver, strategies
from .core import GameSpec, Variant, upper_bound_combinatorial
from .rational import format_rational, parse_rational

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "table"), default="json")
    output.add_argument("--approx", action="store_true",
                        help="add a non-authoritative decimal column to tables")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=solver.DEFAULT_NODE_BUDGET,
                        help="node budget for game-tree construction")
    game = argparse.ArgumentParser(add_help=False, parents=[budget])
    game.add_argument("--no-symmetry", action="store_true", help="disable symmetry reduction")
    game.add_argument("--relaxed-queries", action="store_true",
                      help="allow queries smaller than k")
    game.add_argument("--cache", metavar="DIR",
                      help="result cache directory, one JSON file per entry")

    p = argparse.ArgumentParser(prog="cachegame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text, *parents):
        command = sub.add_parser(name, help=help_text, parents=parents)
        command.set_defaults(handler=handler)
        return command

    s = add_command("solve", cmd_solve, "exact game value and optimal plans", output, game)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--variant", choices=("adversary", "random"), default="adversary")

    v = add_command("verify", cmd_verify, "worst-case value of a strategy tree", output)
    source = v.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="built-in family name")
    source.add_argument("--file", help="strategy JSON file")
    v.add_argument("--n", type=int)
    v.add_argument("--d", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--variant", choices=("adversary", "random", "cooperative"),
                   default="adversary")

    w = add_command("sweep-accuracy", cmd_sweep_accuracy,
                    "compare solved values to the combinatorial bound", output, game)
    w.add_argument("--max-n", type=int, required=True)
    w.add_argument("--max-d", type=int, required=True)
    w.add_argument("--max-k", type=int, required=True)

    a = add_command("accumulation", cmd_accumulation, "one-turn accumulation game analysis", output)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--d", type=str, required=True, help='gold total, e.g. "5/3"')
    a.add_argument("--mode", choices=("evaluate", "ruckle", "exact"), required=True)
    a.add_argument("--dist", help='comma-separated amounts for --mode evaluate, e.g. "1/5,1/5,..."')

    y = add_command("plambda", cmd_plambda, "repeat-probability of the single-box plan", output)
    y.add_argument("--n", type=int, required=True)
    y.add_argument("--d", type=int, required=True)
    y.add_argument("--lam", type=str, required=True, help='record, e.g. "2,1"')

    f = add_command("fractional-check", cmd_fractional_check, "per-step identities of the mixed plan", output)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--d", type=int, required=True)
    f.add_argument("--k", type=str, required=True, help='rational query size, e.g. "3/2"')
    f.add_argument("--lam", type=str, required=True)

    r = add_command("recheck", cmd_recheck, "solve every cached entry again; fail on any mismatch", budget)
    r.add_argument("--cache", metavar="DIR", required=True, help="result cache directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except solver.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:  # a strategy file, a plan or a game deeper than the interpreter's stack
        print("error: the input is nested too deeply to process", file=sys.stderr)
        return EXIT_INVALID
    except (lpmod.CertificateError, solver.SolverError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _emit(args, payload: dict, table_rows=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows = table_rows or [(k, str(v)) for k, v in payload.items()]
    width = max((len(str(r[0])) for r in rows), default=0)
    for row in rows:
        label, value = row[0], row[1]
        line = f"{str(label):<{width}}  {value}"
        if args.approx and len(row) > 2 and row[2] is not None:
            line += f"   (~{float(row[2]):.6f}, approximate)"
        print(line)


# ---------------------------------------------------------------------------
# Result cache.
# ---------------------------------------------------------------------------


GAME_FIELDS = ("n", "d", "k", "variant", "symmetry", "relaxed")
SOLVE_STATS = ("nodes", "lp_rows", "lp_cols", "pivots")  # solve's table rows; ints in a current entry


def _cache_key(*game) -> str:
    blob = ";".join(f"{name}={value}" for name, value in zip(GAME_FIELDS, game, strict=True))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _serves(entry: dict, game: dict) -> bool:
    """Whether ``entry`` may serve a hit on ``game``: this version wrote it for ``game``."""
    return entry.get("tool_version") == __version__ and all(entry["payload"][f] == game[f] for f in GAME_FIELDS)


def _is_rational(text) -> bool:
    if type(text) is not str:
        return False
    try:
        parse_rational(text)
    except ValueError:
        return False
    return True


def _read_entry(path: str) -> dict | None:
    """The entry stored at ``path``, or None when there is none.  Raises
    ValueError naming the file and the first malformed payload field its
    readers use, or the reason the payload's game cannot be built.  Every
    entry's game fields are checked, since ``recheck``'s stale line prints
    them; the rest of the payload only in an entry of this version, as an
    entry of another, which may hold another layout, is never served."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError:  # not JSON, or not text
        entry = None
    if not isinstance(entry, dict) or not isinstance(entry.get("payload"), dict):
        raise ValueError(f"cache entry {path} is not a JSON object with a 'payload' object")
    p = entry["payload"]
    fields = {
        **{name: type(p.get(name)) is int for name in ("n", "d", "k")},
        "variant": p.get("variant") in ("adversary", "random"),
        **{name: type(p.get(name)) is bool for name in ("symmetry", "relaxed")},
    }
    if entry.get("tool_version") == __version__:
        stats = p.get("stats")
        fields.update({
            "value": _is_rational(p.get("value")),
            "stats": isinstance(stats, dict),
            **{f"stats.{name}": isinstance(stats, dict) and type(stats.get(name)) is int
               for name in SOLVE_STATS},
        })
    bad = next((name for name, ok in fields.items() if not ok), None)
    if bad:
        raise ValueError(f"cache entry {path} has a malformed field 'payload.{bad}'")
    try:
        GameSpec(p["n"], p["d"], p["k"], Variant(p["variant"]))
    except ValueError as exc:
        raise ValueError(f"cache entry {path} holds no valid game: {exc}") from None
    return entry


def _write_entry(path: str, entry: dict) -> None:
    """Replace ``path`` atomically, so a reader sees the old entry or the new one."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".cachegame-{os.urandom(8).hex()}")
    # Created as open() would, so the umask alone sets the entry's mode.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _solve_cached(args, n, d, k, variant) -> dict:
    """Solve through the result cache: hits skip recomputation entirely,
    so interrupted sweeps resume where they stopped.  An entry is the
    payload a hit serves and the tool version that wrote it; an entry that
    ``_serves`` rejects is solved again and replaced."""
    game = dict(zip(GAME_FIELDS, (n, d, k, variant.value, not args.no_symmetry, args.relaxed_queries)))
    path = os.path.join(args.cache, f"{_cache_key(*game.values())}.json") if args.cache else None
    entry = _read_entry(path) if path else None
    if entry is not None and _serves(entry, game):
        return entry["payload"]
    payload = _solve(game, args.budget)
    if path:
        _write_entry(path, {"payload": payload, "tool_version": __version__})
    return payload


def _solve(game: dict, budget: int) -> dict:
    """The payload of a fresh solve of ``game``, keyed by ``GAME_FIELDS``."""
    spec = GameSpec(game["n"], game["d"], game["k"], Variant(game["variant"]))
    return solver.solve(spec, symmetry=game["symmetry"], relaxed=game["relaxed"], budget=budget).to_json_dict()


def _comparable(payload: dict) -> dict:
    """``payload`` as JSON gives it back, without the wall times."""
    payload = json.loads(json.dumps(payload))
    return {**payload, "stats": {k: v for k, v in payload["stats"].items() if not k.endswith("_seconds")}}


def cmd_recheck(args) -> int:
    """Solve every cached entry's game again.  An entry passes when its
    file is named by the key of its payload's game, and the whole payload
    a hit serves, wall times aside, equals the fresh solve's.  An entry of
    another tool version is never served: it is reported stale, unsolved."""
    stored = [(name[:-len(".json")], _read_entry(os.path.join(args.cache, name)))
              for name in sorted(os.listdir(args.cache)) if name.endswith(".json")]
    bad = []
    for key, entry in stored:
        p = entry["payload"]
        where = f"{key}  {p['n']},{p['d']},{p['k']},{p['variant']}"
        if not _serves(entry, p):  # it names its own game, so another version wrote it
            print(f"{where}  stale (tool_version {entry.get('tool_version')})")
            continue
        fresh = _comparable(_solve(p, args.budget))
        served = _comparable(p)
        differs = [name for name in sorted(served.keys() | fresh.keys())
                   if served.get(name) != fresh.get(name)]
        expected = _cache_key(*(p[f] for f in GAME_FIELDS))
        if key != expected:
            differs.insert(0, f"file key, payload gives {expected}")
        status = f"MISMATCH ({', '.join(differs)})" if differs else "ok"
        if differs:
            bad.append(key)
        print(f"{where}  served={p['value']}  fresh={fresh['value']}  {status}")
    if bad:
        print(f"error: {len(bad)} cache entries failed recheck", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    variant = Variant(args.variant)
    payload = _solve_cached(args, args.n, args.d, args.k, variant)
    rows = [("value", payload["value"], parse_rational(payload["value"]))]
    _emit(args, payload, rows + [(name, payload["stats"][name], None) for name in SOLVE_STATS])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.family is not None:
        params = {k: v for k, v in (("n", args.n), ("d", args.d), ("k", args.k)) if v is not None}
        tree = strategies.builtin_family(args.family, **params)
    else:
        with open(args.file) as fh:
            tree = strategies.from_json_dict(json.load(fh))
    for name in ("n", "d", "k"):
        given, own = getattr(args, name), getattr(tree, name)
        if given is not None and given != own:
            raise ValueError(f"--{name} {given} does not match the strategy's {name}={own}")
    variant = Variant(args.variant)
    spec = GameSpec(tree.n, tree.d, tree.k, variant)
    if variant == Variant.COOPERATIVE:
        value = strategies.joint_verify_cooperative(spec, tree, strategies.least_treasures_rule)
        worst = None
    else:
        response = solver.best_response_value(spec, tree)
        value = response.value
        worst = [c for c in response.worst_allocation if c]  # the pattern without its zeros
    payload = {
        "n": tree.n, "d": tree.d, "k": tree.k, "variant": variant.value,
        "value": format_rational(value),
        "worst_allocation": worst,
    }
    _emit(args, payload, [("value", format_rational(value), value),
                          ("worst_allocation", worst, None)])
    return EXIT_OK


def cmd_sweep_accuracy(args) -> int:
    rows = []
    findings = []
    values: dict[tuple[int, int, int], Fraction] = {}
    for n in range(1, args.max_n + 1):
        for d in range(1, args.max_d + 1):
            for k in range(1, min(args.max_k, n) + 1):
                start = time.perf_counter()
                try:
                    payload = _solve_cached(args, n, d, k, Variant.ADVERSARY)
                except solver.BudgetExceededError:
                    rows.append({"n": n, "d": d, "k": k, "skipped": "budget"})
                    _progress(start, rows[-1])
                    continue
                _progress(start, {"n": n, "d": d, "k": k, "value": payload["value"]})
                value = parse_rational(payload["value"])
                bound = upper_bound_combinatorial(n, d, k)
                accurate = value == bound
                values[(n, d, k)] = value
                conjectured = n >= d * (k - 1) + 1
                consistent = accurate or not conjectured
                if not consistent:
                    findings.append(f"threshold-conjecture violated at ({n},{d},{k})")
                rows.append({
                    "n": n, "d": d, "k": k,
                    "value": format_rational(value),
                    "bound": format_rational(bound),
                    "accurate": accurate,
                    "threshold_consistent": consistent,
                })
    for (n, d, k), value in values.items():
        if (n, d + 1, k) in values and values[(n, d + 1, k)] > value:
            findings.append(f"d-monotonicity violated between ({n},{d},{k}) and ({n},{d + 1},{k})")
        # Accuracy monotonicity: easier triplets of an accurate one stay accurate.
        if value == upper_bound_combinatorial(n, d, k):
            for (n2, d2, k2), v2 in values.items():
                if n2 >= n and d2 <= d and k2 <= k and v2 != upper_bound_combinatorial(n2, d2, k2):
                    findings.append(
                        f"accuracy-monotonicity violated: ({n},{d},{k}) accurate but ({n2},{d2},{k2}) is not"
                    )
    payload = {"rows": rows, "findings": sorted(set(findings))}
    table = [
        (f"({r['n']},{r['d']},{r['k']})",
         r.get("skipped") or f"value={r['value']} bound={r['bound']} accurate={r['accurate']}",
         None)
        for r in rows
    ] + [("finding", f, None) for f in sorted(set(findings))]
    _emit(args, payload, table)
    return EXIT_OK


def _progress(start: float, fields: dict) -> None:
    """One JSON line on stderr for an instance begun at ``start``."""
    line = {**fields, "seconds": round(time.perf_counter() - start, 6)}
    print(json.dumps(line), file=sys.stderr, flush=True)


def cmd_accumulation(args) -> int:
    spec = accu.AccumulationSpec(args.n, args.k, parse_rational(args.d))
    if args.mode == "evaluate":
        if not args.dist:
            raise ValueError("--mode evaluate needs --dist")
        amounts = tuple(parse_rational(x) for x in args.dist.split(","))
        payload = accu.evaluate_distribution(spec, accu.GoldDistribution(amounts))
    elif args.mode == "ruckle":
        r, _, g = accu.best_ruckle_distribution(spec)
        payload = {"r": r, **accu.evaluate_distribution(spec, g)}
    else:
        losing, witness = accu.max_losing_subsets_exact(spec)
        payload = {"losing": losing, **accu.evaluate_distribution(spec, witness)}
    _emit(args, payload, [
        (key, ",".join(value) if key == "witness" else value,
         parse_rational(value) if key == "probability" else None)
        for key, value in payload.items()
    ])
    return EXIT_OK


def cmd_plambda(args) -> int:
    lam = tuple(int(x) for x in args.lam.split(",") if x.strip())
    state = frac.YoungState(lam, args.n, args.d)
    value = frac.p_lambda(state)
    payload = {"n": args.n, "d": args.d, "lambda": list(lam),
               "p_lambda": format_rational(value)}
    _emit(args, payload, [("p_lambda", format_rational(value), value)])
    return EXIT_OK


def cmd_fractional_check(args) -> int:
    lam = tuple(int(x) for x in args.lam.split(",") if x.strip())
    spec = frac.FractionalSpec(args.n, args.d, parse_rational(args.k))
    state = frac.YoungState(lam, args.n, args.d)
    dist = frac.fractional_step_distribution(spec, state)
    checks = {}
    for target in ("current", "fresh"):
        lhs, rhs = frac.per_step_discovery_check(spec, state, target)
        checks[target] = {
            "lhs": format_rational(lhs),
            "rhs": format_rational(rhs),
            "equal": lhs == rhs,
        }
    payload = {
        "n": args.n, "d": args.d, "k": format_rational(spec.k),
        "lambda": list(lam),
        "mix_on_floor": format_rational(spec.p),
        "step_distribution": [
            {"repeat_current": rep, "fresh_boxes": fresh, "prob": format_rational(prob)}
            for (rep, fresh), prob in dist
        ],
        "identities": checks,
    }
    _emit(args, payload)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
