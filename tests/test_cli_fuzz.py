"""Seeded fuzzing of the CLI: mutated fixture requests, run in-process.

Each request takes the fixture payloads of one of the five commands and
drops a key or swaps in a junk value at one or two random places.  Whatever
comes in, `cli.run` must answer with exit code 0, 1 or 2 and JSON on stdout,
and a failure must name its error kind; no exception may escape.  Junk values
stay small: there are no budgets on precision or degree yet, so a huge value
could make a well-formed request run for minutes.
"""

import copy
import io
import json
import random
from pathlib import Path

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


def _request(rng):
    command = rng.choice(sorted(REQUESTS))
    map_file, field_file, geometry_file = REQUESTS[command]
    payloads = {
        "--map": json.loads((FIXTURES / map_file).read_text()),
        "--field": json.loads((FIXTURES / field_file).read_text()),
    }
    if geometry_file is not None:
        payloads["--geometry"] = json.loads((FIXTURES / geometry_file).read_text())
    flag = rng.choice(sorted(payloads))
    payloads[flag] = _mutate(rng, payloads[flag])
    argv = [command, "--samples", "8"]
    for flag, payload in payloads.items():
        argv += [flag, json.dumps(payload)]
    return argv


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
