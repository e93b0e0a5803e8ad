"""Seeded fuzzing of the CLI: mutated fixture requests, run in-process.

Each request takes the fixture payloads of one of the five commands and
drops a key or swaps in a junk value at one or two random places.  Whatever
comes in, `cli.run` must answer with exit code 0, 1 or 2 and JSON on stdout,
and a failure must name its error kind; no exception may escape.  Junk values
stay small; precision, --samples, the monomial degree and the step list of a
`fixpoint` report have budgets (field.PRECISION_BUDGET_BITS,
calculus.SAMPLE_BUDGET, calculus.DEGREE_BUDGET, jsonio.REPORT_BUDGET).  A
second test, with its own seed, mutates the serialized JSON text instead
(truncation, a duplicate key, a spliced integer literal too long to parse)
under the same property.
"""

import copy
import io
import json
import random
import re
import sys
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
