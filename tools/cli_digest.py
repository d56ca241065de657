"""Fingerprint the `banachproj` CLI on a fixed corpus of configs.

The corpus is built from one fixed seed: `project` batches on all eight
set types at p in {1.5, 3} and n in {2, 3}, `derivative` on every set
type, `classify` on a ball, the positive cone, a coordinate subspace and
a singleton, every `verify` suite at count 5, `moduli` at budget 500,
`rate` on a segment, a ray and both polytopes, two malformed set configs
(a set of the wrong dimension, an unknown set type) that must exit with
code 2, `moduli` at p = 1.5, n = 3 on two threads, three refused inputs
that must exit with code 2 (`classify` on a segment, and on a singleton
a `derivative` along a zero direction and a `project` of non-finite
points), and last the ball `derivative` at a sphere point along an
outward and an inward direction and at an exterior point (the
`ball:sphere-up`, `ball:sphere-down` and `ball:exterior` clauses),
then a refused `classify` on a V-polytope (exit 2), three options of the
wrong JSON type that must exit with code 2 (a fractional `rate` count, a
string `moduli` fit flag and a string exponent for `project`), then
four set descriptors with wrong-typed entries that must exit with code 2
(a ball with string center and radius, a ball with a boolean radius, and
a coordinate subspace whose mask holds strings, then one that holds
numbers), a segment projection at p = 20 whose line-search slope
overflows to NaN, which must exit with code 4, and last an H-polytope
projection at p = 1.2 that the weak-duality bound from Newton's weights
leaves uncertified, so that the support LP and simplicial decomposition
finish it.  Each config runs through
`banachproj.cli.main` in-process, inside a temporary directory, and the
script prints a header of `#` lines (the NumPy and SciPy versions) and
then one line per config:

    <name> <exit code> <sha256 of stdout>

Two builds give byte-identical reports on the corpus exactly when their
digests match.  The package is imported from the Python path, so one copy
of this script can digest any checkout:

    PYTHONPATH=src python3 tools/cli_digest.py > new.txt
    PYTHONPATH=../parent/src python3 tools/cli_digest.py > old.txt
    diff old.txt new.txt

`tools/cli_digest.txt` is the committed output, and the test suite checks
the package against it whenever the installed versions match its header.
After a change that moves report bytes on purpose, regenerate it with

    PYTHONPATH=src python3 tools/cli_digest.py > tools/cli_digest.txt

and explain every changed line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import scipy

from banachproj import SUITES, cli

SEED = 20230917


def _lst(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _sets(rng: np.random.Generator, p: float, n: int) -> dict:
    """One descriptor of every type in dimension n, as CLI JSON."""
    a, d = rng.normal(size=n), rng.normal(size=n)
    A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
    b = np.concatenate([rng.uniform(0.5, 1.5, 2 * n), [0.6, 0.6]])
    return {
        "ball": {"type": "ball", "center": _lst(rng.normal(size=n)),
                 "radius": float(rng.uniform(0.5, 2.0))},
        "cone": {"type": "positive_cone"},
        "subspace": {"type": "coordinate_subspace", "free": [i % 2 == 0 for i in range(n)]},
        "segment": {"type": "segment", "u": _lst(a), "w": _lst(a + d)},
        "ray": {"type": "ray", "v": _lst(a), "dir": _lst(d)},
        "singleton": {"type": "singleton", "y": _lst(rng.normal(size=n))},
        "polytope_h": {"type": "polytope_h",
                       "rows": [{"normal": _lst(r), "offset": float(o)} for r, o in zip(A, b)]},
        "polytope_v": {"type": "polytope_v", "vertices": _lst(rng.normal(size=(n + 3, n)))},
    }


def corpus() -> list[tuple[str, str, dict]]:
    """(name, command, config) triples, all drawn from SEED."""
    rng = np.random.default_rng(SEED)
    out = []
    for p in (1.5, 3.0):
        for n in (2, 3):
            space = {"p": p, "n": n}
            for kind, C in _sets(rng, p, n).items():
                pts = _lst(2.0 * rng.normal(size=(4, n)))
                out.append((f"project_{kind}_p{p:g}_n{n}", "project",
                            {"space": space, "set": C, "inputs": pts}))
    space = {"p": 3.0, "n": 3}
    sets3 = _sets(rng, 3.0, 3)
    for kind, C in sets3.items():
        inputs = {"x": _lst(2.0 * rng.normal(size=3)), "v": _lst(rng.normal(size=3))}
        out.append((f"derivative_{kind}", "derivative", {"space": space, "set": C, "inputs": inputs}))
    ball = sets3["ball"]
    g = rng.normal(size=3)
    sphere = np.asarray(ball["center"]) + ball["radius"] * g / np.sum(np.abs(g) ** 3) ** (1 / 3)
    members = {
        "ball": sphere,
        "cone": np.abs(rng.normal(size=3)) * [1.0, 0.0, 1.0],
        "subspace": rng.normal(size=3) * [1.0, 0.0, 1.0],
        "singleton": sets3["singleton"]["y"],
    }
    for kind, y in members.items():
        out.append((f"classify_{kind}", "classify",
                    {"space": space, "set": sets3[kind], "inputs": {"x": _lst(y)}}))
    for suite in sorted(SUITES):
        out.append((f"verify_{suite}", "verify", {"suite": suite, "count": 5, "seed": 1}))
    out.append(("moduli", "moduli", {
        "space": {"p": 3.0, "n": 2}, "seed": 1,
        "moduli": {"curve": "both", "epsilons": _lst(np.geomspace(0.1, 1.5, 5)),
                   "ts": _lst(np.geomspace(0.05, 1.0, 5)), "budget": 500, "fit": True,
                   "threads": 1},
    }))
    out.append(("rate_segment", "rate", {
        "space": space, "set": sets3["segment"], "seed": 1,
        "inputs": {"x": _lst(2.0 * rng.normal(size=3))}, "rate": {"count": 3},
    }))
    # drawn after the configs above, so their inputs stay as they were
    for kind in ("ray", "polytope_h", "polytope_v"):
        out.append((f"rate_{kind}", "rate", {
            "space": space, "set": sets3[kind], "seed": 1,
            "inputs": {"x": _lst(2.0 * rng.normal(size=3))}, "rate": {"count": 3},
        }))
    out.append(("project_wrong_dimension", "project", {
        "space": {"p": 3.0, "n": 2}, "set": sets3["ball"], "inputs": {"x": [1.0, 2.0]},
    }))
    out.append(("project_unknown_type", "project", {
        "space": space, "set": {"type": "klein_bottle"}, "inputs": {"x": [1.0, 2.0, 3.0]},
    }))
    out.append(("moduli_p15_n3", "moduli", {
        "space": {"p": 1.5, "n": 3}, "seed": 1,
        "moduli": {"curve": "both", "epsilons": _lst(np.geomspace(0.1, 1.5, 5)),
                   "ts": _lst(np.geomspace(0.05, 1.0, 5)), "budget": 500, "fit": True,
                   "threads": 2},
    }))
    segment = sets3["segment"]
    midpoint = 0.5 * (np.asarray(segment["u"]) + np.asarray(segment["w"]))
    out.append(("classify_segment", "classify", {
        "space": space, "set": segment, "inputs": {"x": _lst(midpoint)},
    }))
    out.append(("derivative_singleton_zero_direction", "derivative", {
        "space": space, "set": sets3["singleton"],
        "inputs": {"x": [1.0, 2.0, 3.0], "v": [0.0, 0.0, 0.0]},
    }))
    out.append(("project_singleton_nonfinite", "project", {
        "space": space, "set": sets3["singleton"],
        "inputs": [[float("nan"), 0.0, 1.0], [1.0, float("inf"), 0.0]],
    }))
    # radial directions with a small tilt keep the sign of the sphere margin
    radial = sphere - np.asarray(ball["center"])
    ball_cases = {
        "sphere_up": (sphere, radial + 0.1 * rng.normal(size=3)),
        "sphere_down": (sphere, -radial + 0.1 * rng.normal(size=3)),
        "exterior": (sphere + 0.5 * radial, rng.normal(size=3)),
    }
    for case, (x, v) in ball_cases.items():
        out.append((f"derivative_ball_{case}", "derivative", {
            "space": space, "set": ball, "inputs": {"x": _lst(x), "v": _lst(v)},
        }))
    vpoly = sets3["polytope_v"]
    out.append(("classify_polytope_v", "classify", {
        "space": space, "set": vpoly, "inputs": {"x": _lst(np.mean(vpoly["vertices"], axis=0))},
    }))
    out.append(("rate_fractional_count", "rate", {
        "space": space, "set": segment, "inputs": {"x": [1.0, 2.0, 3.0]}, "rate": {"count": 2.9},
    }))
    out.append(("moduli_string_fit", "moduli", {
        "space": {"p": 3.0, "n": 2},
        "moduli": {"curve": "delta", "epsilons": [0.25, 0.5, 0.75, 1.0], "budget": 500,
                   "fit": "no", "threads": 1},
    }))
    out.append(("project_string_exponent", "project", {
        "space": {"p": "3", "n": 3}, "set": sets3["ball"], "inputs": {"x": [1.0, 2.0, 3.0]},
    }))
    bad_sets = {
        "ball_strings": {"type": "ball", "center": ["0", "0", "0"], "radius": "1"},
        "ball_boolean_radius": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": True},
        "subspace_string_mask": {"type": "coordinate_subspace", "free": ["no", "", "yes"]},
        "subspace_number_mask": {"type": "coordinate_subspace", "free": [1, 0, 1]},
    }
    for case, C in bad_sets.items():
        out.append((f"project_{case}", "project", {
            "space": space, "set": C, "inputs": {"x": [1.0, 2.0, 3.0]},
        }))
    out.append(("project_segment_p20_overflow", "project", {
        "space": {"p": 20.0, "n": 2}, "set": {"type": "segment", "u": [0.0, 0.0], "w": [1e20, 1e20]},
        "inputs": {"x": [1e20, 0.0]},
    }))
    cuts = [[-0.9203315025983154, -0.39113926589531606], [-0.9937772624612621, -0.11138560326631033],
            [0.9977421129143278, -0.06716156726322522], [0.6402188888886222, 0.7681925372653772]]
    offsets = [0.6175111562261242, 0.6528314576480834, 1.109892410847337, 1.2792483677207405,
               0.341149179269687, 0.31736965352299434, 0.17885005240123464, 0.3404227824848916]
    rows = np.vstack([np.eye(2), -np.eye(2), cuts])
    out.append(("project_polytope_h_fallback", "project", {
        "space": {"p": 1.2, "n": 2},
        "set": {"type": "polytope_h",
                "rows": [{"normal": _lst(r), "offset": o} for r, o in zip(rows, offsets)]},
        "inputs": {"x": [-17.60406556872011, -15.83438172746199]},
    }))
    return out


def header() -> list[str]:
    """The versions the digest depends on, as `#` lines."""
    return [f"# numpy {np.__version__}", f"# scipy {scipy.__version__}"]


def digest_lines():
    """One `<name> <exit code> <sha256 of stdout>` line per corpus config."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, command, cfg in corpus():
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, "--config", "config.json"])
                digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
                yield f"{name} {code} {digest}"
        finally:
            os.chdir(cwd)


def main() -> None:
    for line in header():
        print(line)
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
