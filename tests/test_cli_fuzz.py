"""Seeded fuzzing of the CLI: mutated fixture requests, run in-process.

Each request takes the fixture payloads of one of the five commands and
drops a key or swaps in a junk value at one or two random places.  Whatever
comes in, `cli.run` must answer with exit code 0, 1 or 2 and JSON on stdout,
and a failure must name its error kind; no exception may escape.  A second
test, with its own seed, mutates the serialized JSON text instead
(truncation, a duplicate key, a spliced integer literal too long to parse)
under the same property.  A third, with its own seed, swaps in junk of any
size: integers and rationals of 300-1500 digits, p-powers far past the
precision, 4096 and 10^18, also as --tol, and each request must also answer
within BIG_SECONDS, as precision, --samples, the monomial degree and the
step list of a `fixpoint` report have budgets (field.PRECISION_BUDGET_BITS,
calculus.SAMPLE_BUDGET, calculus.DEGREE_BUDGET, jsonio.REPORT_BUDGET).
A fourth is exhaustive, not seeded: each of NaN, +-Infinity, "false",
"true", 0, 1, null, [], [1], {} and {"a": 1} at every leaf of every fixture
request and at each optional geometry key its command reads.
"""

import copy
import io
import json
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest

from ultrafix import cli

FIXTURES = Path(__file__).parent / "fixtures"
REQUESTS = {
    "invert": ("maps/plus_square.json", "fields/q5n4.json", "geo/invert_golden.json"),
    "certify": ("maps/affine.json", "fields/real.json", "geo/certify_affine.json"),
    "fixpoint": ("maps/five_plus_square.json", "fields/q5n4.json", "geo/fixpoint_golden.json"),
    "implicit": ("maps/saddle.json", "fields/q5n4.json", "geo/implicit_golden.json"),
    "check": ("maps/plus_square.json", "fields/q5n4.json", None),
}
JUNK = (
    None, True, False, 0, 1, 2, -1, 0.5, 1.5, "", "x", "0", "3", "1/0", "-1/3",
    "1e400", "nan", [], [1], [[]], {}, {"a": 1},
)
SEED, COUNT = 20261018, 500


def _paths(node, prefix=()):
    """Every place in a JSON value, the root excluded, as a key path."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(rng, payload):
    payload = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 2)):
        places = list(_paths(payload))
        if not places:
            break
        place = rng.choice(places)
        parent = payload
        for key in place[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.3:
            del parent[place[-1]]
        else:
            parent[place[-1]] = copy.deepcopy(rng.choice(JUNK))
    return payload


def _payloads(command):
    map_file, field_file, geometry_file = REQUESTS[command]
    payloads = {
        "--map": json.loads((FIXTURES / map_file).read_text()),
        "--field": json.loads((FIXTURES / field_file).read_text()),
    }
    if geometry_file is not None:
        payloads["--geometry"] = json.loads((FIXTURES / geometry_file).read_text())
    return payloads


def _argv(command, payloads):
    argv = [command, "--samples", "8"] if command == "check" else [command]
    for flag, payload in payloads.items():
        argv += [flag, json.dumps(payload)]
    return argv


def _request(rng):
    command = rng.choice(sorted(REQUESTS))
    payloads = _payloads(command)
    flag = rng.choice(sorted(payloads))
    payloads[flag] = _mutate(rng, payloads[flag])
    return _argv(command, payloads)


def test_mutated_requests_exit_0_1_or_2_with_json():
    rng = random.Random(SEED)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(COUNT):
        argv = _request(rng)
        out = io.StringIO()
        code = cli.run(argv, stream=out)
        assert code in codes, argv
        payload = json.loads(out.getvalue())
        if code:
            assert payload["error"]["kind"], argv
        codes[code] += 1
    # the mutations reach past parsing into the solvers
    assert min(codes.values()) >= 10, codes


# Text-level mutations: the serialized request itself is cut, spliced or
# given a duplicate key, so the payload can fail where json.loads does.
TEXT_SEED, TEXT_COUNT = 20261118, 300
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null')
PAIR = re.compile(rf'("(?:[^"\\]|\\.)*")\s*:\s*(?:{TOKEN.pattern})')


def _mutate_text(rng, text, kinds):
    """One text mutation.  A spliced literal has one digit more than the
    int-to-str limit allows, so it cannot parse as an integer and no request
    can spin on a huge precision or degree."""
    tokens = list(TOKEN.finditer(text))
    pairs = list(PAIR.finditer(text))
    kind = rng.choice(("splice", "truncate", "duplicate") if pairs else ("splice", "truncate"))
    kinds[kind] += 1
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    if kind == "duplicate":  # the later copy of a key wins in json.loads
        pair = rng.choice(pairs)
        return f"{text[:pair.end()]}, {pair.group(1)}: {rng.choice(tokens).group()}{text[pair.end():]}"
    token = rng.choice(tokens)
    literal = str(rng.randint(1, 9)) * (sys.get_int_max_str_digits() + 1)
    if token.group().startswith('"') and rng.random() < 0.5:  # inside a string
        at = rng.randint(token.start() + 1, token.end() - 1)
        return text[:at] + literal + text[at:]
    return text[: token.start()] + literal + text[token.end():]


def test_mutated_request_text_exits_0_1_or_2_with_json():
    if not sys.get_int_max_str_digits():
        pytest.skip("no int-to-str digit limit: a spliced literal would parse")
    rng = random.Random(TEXT_SEED)
    codes = {0: 0, 1: 0, 2: 0}
    kinds = {"splice": 0, "truncate": 0, "duplicate": 0}
    for _ in range(TEXT_COUNT):
        command = rng.choice(sorted(REQUESTS))
        payloads = _payloads(command)
        argv = _argv(command, payloads)
        at = argv.index(rng.choice(sorted(payloads))) + 1
        argv[at] = _mutate_text(rng, argv[at], kinds)
        out = io.StringIO()
        code = cli.run(argv, stream=out)
        assert code in codes, argv
        payload = json.loads(out.getvalue())
        if code:
            assert payload["error"]["kind"], argv
        codes[code] += 1
    assert min(kinds.values()) >= 50, kinds
    assert codes[2] >= 100 and codes[0] + codes[1] >= 10, codes


# Large junk: values far past any fixture's size, where a missing budget
# would show as a request that spins or runs out of memory.
BIG_SEED, BIG_COUNT = 20261019, 300
BIG_SECONDS = 2.0


def _digits(rng):
    count = rng.randint(300, 1500)
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(count - 1))


def _big_junk(rng):
    """An integer or rational of 300-1500 digits (as a JSON number or a
    string), a p-power far past the precision, 4096 or 10^18."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((1, -1)) * int(_digits(rng))
    if kind == 1:
        return rng.choice(("", "-")) + _digits(rng)
    if kind == 2:
        return f"{rng.choice(('', '-'))}{_digits(rng)}/{_digits(rng)}"
    if kind == 3:
        power = rng.choice((2, 3, 5, 7)) ** rng.randint(100, 1700)
        return rng.choice((power, str(power), f"1/{power}"))
    return rng.choice((4096, 10**18, -(10**18), "4096", str(10**18), f"1/{10**18}"))


def _leaves(node, prefix=()):
    """The key paths of every value in a JSON value that is not a container."""
    for place in _paths(node, prefix):
        child = node
        for key in place:
            child = child[key]
        if not isinstance(child, (dict, list)):
            yield place


def _big_request(rng):
    command = rng.choice(sorted(REQUESTS))
    payloads = _payloads(command)
    flag = rng.choice(sorted(payloads))
    payload = payloads[flag]
    for _ in range(rng.randint(1, 2)):
        place = rng.choice(list(_leaves(payload)))
        parent = payload
        for key in place[:-1]:
            parent = parent[key]
        parent[place[-1]] = _big_junk(rng)
    argv = _argv(command, payloads)
    if command in ("invert", "implicit", "fixpoint") and rng.random() < 0.3:
        tol = _big_junk(rng)
        argv += ["--tol", str(tol).lstrip("-")]
    return argv


def test_large_junk_requests_exit_0_1_or_2_with_json_in_time():
    rng = random.Random(BIG_SEED)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(BIG_COUNT):
        argv = _big_request(rng)
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.run(argv, stream=out)
        elapsed = time.perf_counter() - start
        assert code in codes, argv
        assert elapsed < BIG_SECONDS, (elapsed, argv)
        payload = json.loads(out.getvalue())
        if code:
            assert payload["error"]["kind"], argv
        codes[code] += 1
    assert min(codes.values()) >= 10, codes


# json.loads reads NaN and Infinity as floats no Fraction holds, a flag
# such as "closed" must not read the string "false" as true, and a list or
# an object must not reach a test that needs a hashable value.
LEAF_VALUES = (math.nan, math.inf, -math.inf, "false", "true", 0, 1, None, [], [1], {}, {"a": 1})
# the geometry keys each command reads that its fixture request leaves out
OPTIONAL_KEYS = {
    "invert": ("A", "base", "radius"),
    "certify": ("A",),
    "fixpoint": ("theta",),
    "implicit": ("z0", "exact_image"),
    "check": ("mutation",),
}


def _leaf_requests():
    """(command, payloads) with one value of LEAF_VALUES at one leaf of a
    fixture request, or at one of its command's OPTIONAL_KEYS."""
    for command in sorted(REQUESTS):
        for flag, payload in _payloads(command).items():
            for place in _leaves(payload):
                for value in LEAF_VALUES:
                    payloads = _payloads(command)
                    parent = payloads[flag]
                    for key in place[:-1]:
                        parent = parent[key]
                    parent[place[-1]] = value
                    yield command, payloads
        for key in OPTIONAL_KEYS[command]:
            for value in LEAF_VALUES:
                payloads = _payloads(command)
                payloads.setdefault("--geometry", {})[key] = value
                yield command, payloads


def test_every_leaf_takes_non_finite_numbers_strings_of_flags_and_null():
    codes = {0: 0, 1: 0, 2: 0}
    for command, payloads in _leaf_requests():
        argv = _argv(command, payloads)
        out = io.StringIO()
        code = cli.run(argv, stream=out)
        assert code in codes, argv
        result = json.loads(out.getvalue())
        if code:
            assert result["error"]["kind"], argv
        codes[code] += 1
    assert min(codes.values()) >= 10, codes
