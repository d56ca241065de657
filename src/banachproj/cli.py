"""Command-line front end.

Every run reads one JSON config file; `--seed` and `--out` override the
`seed` and `output_path` keys.  Each config value is read and cast once,
by `_given` (or `_require` for a required key), so a value of the wrong
JSON type is a config error.  Reports are written by `reporting` with
fixed float formatting (17 significant digits) and stable key order, so
identical configs produce byte-identical files.  An `--out` ending in `.csv`
selects the tabular form for commands that have one (moduli, rate);
everything else is JSON.  Without `--out` the report goes to stdout.

Exit codes: 0 success, 1 a verify suite reported failures, 2 malformed
config (a value of the wrong JSON type too: a count must be a JSON integer,
a flag a JSON boolean, and a real value or vector holds JSON numbers, not
strings or booleans, in a set descriptor as well, where a subspace mask
holds JSON booleans), arguments or input values,
3 infeasible set descriptor, 4 an iterative computation failed to converge
or a numeric failure (ArithmeticError, e.g. a ray parameter overflow).

Config keys by command are listed in `_KEYS` below; any other key is a
config error, so a misspelt option cannot silently keep its default.
"""
from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

import numpy as np

from . import moduli as moduli_mod
from . import reporting, solver
from .derivative import directional_derivative
from .numdiff import ConvergenceError, cauchy_rate_probe, numdiff_derivative
from .sets import (
    InfeasibleSetError,
    classify_point,
    descriptor_from_json,
    descriptor_to_json,
)
from .space import LpSpace
from .verify import SUITES, run_suite

__all__ = ["main"]


class _ConfigError(Exception):
    pass


#: config keys by command (all vectors are plain JSON lists): a section's keys
#: follow its name in braces, ? marks an optional key, and every command also
#: takes seed? and output_path?
_KEYS = {
    "project": "space{p,n} set inputs{x} tolerances{cert_tol?,max_iter?}?",
    "derivative": "space{p,n} set inputs{x,v}",
    "classify": "space{p,n} set inputs{x}",
    "verify": "suite count? space{p,n}?",
    "moduli": "space{p,n} moduli{curve?,epsilons?,ts?,budget?,fit?,threads?}",
    "rate": "space{p,n} set inputs{x} rate{directions|count,k_min?,k_max?}",
}


def _check_keys(cfg: dict, command: str) -> None:
    known = dict(re.findall(r"(\w+)\??(?:\{(.*?)\})?", f"seed output_path {_KEYS[command]}"))
    for section, keys in [("", " ".join(known)), *known.items()]:
        opts = cfg.get(section) if section else cfg
        for key in opts if keys and isinstance(opts, dict) else ():
            if key not in re.findall(r"\w+", keys):
                raise _ConfigError(f"unknown config key {key!r}" + (f" in {section!r}" if section else ""))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _ConfigError("config root must be a JSON object")
    return cfg


def _given(opts: dict, **casts) -> dict:
    # the options the config sets, each cast; the others keep their defaults.
    # Every config value is read here, so a wrong-typed one is a config error.
    given = {}
    for key, cast in casts.items():
        if key in opts:
            try:
                given[key] = cast(opts[key])
            except (TypeError, ValueError) as exc:
                raise _ConfigError(f"option {key!r}: {exc}") from exc
    return given


def _require(cfg: dict, key: str, cast=lambda value: value):
    if key not in cfg:
        raise _ConfigError(f"config key {key!r} is required for this command")
    return _given(cfg, **{key: cast})[key]


def _of_type(name: str, *kinds: type):
    """The cast that accepts these JSON types and refuses the others.  The
    test is exact, so a boolean is not an integer."""
    def cast(value):
        if type(value) not in kinds:
            raise TypeError(f"expected {name}, got {type(value).__name__}")
        return value
    return cast


_string, _object, _flag = (_of_type("a string", str), _of_type("an object", dict),
                           _of_type("a boolean", bool))
_integer, _number = _of_type("an integer", int), _of_type("a number", int, float)


def _real(value) -> float:
    return float(_number(value))


def _floats(value) -> np.ndarray:
    # a JSON number or nested lists of numbers
    for item in np.asarray(value, dtype=object).flat:
        _number(item)
    return np.asarray(value, dtype=float)


def _section(cfg: dict, key: str) -> dict:
    return _given(cfg, **{key: _object}).get(key, {})


def _rows(vecs: np.ndarray, n: int, label: str) -> np.ndarray:
    if vecs.ndim != 2 or not len(vecs) or vecs.shape[1] != n:
        raise _ConfigError(f"{label} must be a nonempty list of vectors of length {n}")
    return vecs


def _get_space(cfg: dict) -> tuple[LpSpace, int]:
    spc = _require(cfg, "space", _object)
    space, n = _require(spc, "p", lambda p: LpSpace(_real(p))), _require(spc, "n", _integer)
    if n < 1:
        raise _ConfigError("space dimension must be positive")
    return space, n


def _get_set(cfg: dict, n: int):
    data = _require(cfg, "set")
    try:
        C = descriptor_from_json(data)
    except InfeasibleSetError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise _ConfigError(f"bad set descriptor: {exc}") from exc
    if C.dim is not None and C.dim != n:
        raise _ConfigError(f"set lives in dimension {C.dim}, space says {n}")
    return C


def _get_vec(cfg: dict, key: str, n: int) -> np.ndarray:
    vec = _require(_require(cfg, "inputs", _object), key, _floats)
    if vec.shape != (n,):
        raise _ConfigError(f"inputs[{key!r}] must have length {n}")
    return vec


def _get_points(cfg: dict, n: int):
    """Query points for point-wise commands.

    Accepts either {"x": [..]} for a single point or a bare list of
    points [[..], [..]] for a batch.
    """
    if isinstance(_require(cfg, "inputs"), dict):
        return [_get_vec(cfg, "x", n)]
    return _rows(_require(cfg, "inputs", _floats), n, '"inputs"')


def _emit(report, out_path, csv_rows=None) -> None:
    if out_path is None:
        sys.stdout.write(reporting.dumps_stable(report))
    elif out_path.endswith(".csv") and csv_rows is not None:
        reporting.write_csv(out_path, csv_rows)
    else:
        reporting.write_json(out_path, report)


def _space_json(space: LpSpace, n: int) -> dict:
    return {"p": space.p, "n": n}


def _set_report(command: str, space: LpSpace, n: int, C, **fields) -> dict:
    # the head of every report on a set: command, space and set, in that order
    return {"command": command, "space": _space_json(space, n), "set": descriptor_to_json(C),
            **fields}


def _cmd_project(cfg: dict, seed: int, out) -> int:
    space, n = _get_space(cfg)
    C = _get_set(cfg, n)
    points = _get_points(cfg, n)
    kw = _given(_section(cfg, "tolerances"), max_iter=_integer, cert_tol=_real)
    results = [solver.project_with_certificate(space, C, x, **kw) for x in points]
    if len(points) == 1:
        report = _set_report("project", space, n, C, x=points[0], **results[0].to_json())
    else:
        report = _set_report("project", space, n, C, results=[
            {"x": x, **r.to_json()} for x, r in zip(points, results)])
    _emit(report, out)
    return 0 if all(r.converged for r in results) else 4


def _cmd_derivative(cfg: dict, seed: int, out) -> int:
    space, n = _get_space(cfg)
    C = _get_set(cfg, n)
    x = _get_vec(cfg, "x", n)
    v = _get_vec(cfg, "v", n)
    result = directional_derivative(space, C, x, v)
    # sets without a closed form were already differenced, and comparing
    # those quotients with themselves would show nothing: no agreement
    est = result.numeric
    agreement = None
    if est is None:
        est = numdiff_derivative(space, lambda z: solver.project(space, C, z), x, v)
        if est.converged:
            agreement = space.norm(result.value - est.estimate) / max(1.0, space.norm(result.value))
    report = _set_report("derivative", space, n, C, x=x, v=v, analytic=result.to_json(),
                         numeric=est.summary(), agreement=agreement)
    _emit(report, out)
    return 0


def _cmd_classify(cfg: dict, seed: int, out) -> int:
    space, n = _get_space(cfg)
    C = _get_set(cfg, n)
    x = _get_vec(cfg, "x", n)
    try:
        pc = classify_point(space, C, x)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    report = _set_report("classify", space, n, C, x=x, tag=pc.tag, witness=pc.witness)
    _emit(report, out)
    return 0


def _cmd_verify(cfg: dict, seed: int, out) -> int:
    name = _require(cfg, "suite", _string)
    if name not in SUITES:
        raise _ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    options = {"seed": seed, **_given(cfg, count=_integer)}
    if "space" in cfg:
        space, n = _get_space(cfg)
        options["p"] = space.p
        options["n"] = n
    accepted = inspect.signature(SUITES[name]).parameters
    if "p" not in accepted and options.get("p", 2.0) != 2.0:
        raise _ConfigError(f"suite {name!r} runs at p = 2 only, space says p = {options['p']:g}")
    options = {k: v for k, v in options.items() if k in accepted}
    report = run_suite(name, **options)
    sys.stdout.write(report.summary() + "\n")
    if out is not None:
        _emit(report.to_json(), out)
    return 0 if report.passed else 1


_CURVES = {"delta": ("epsilons", moduli_mod.estimate_convexity_modulus),
           "rho": ("ts", moduli_mod.estimate_smoothness_modulus)}


def _cmd_moduli(cfg: dict, seed: int, out) -> int:
    space, n = _get_space(cfg)
    opts = _section(cfg, "moduli")
    curve = _given(opts, curve=_string).get("curve", "both")
    if curve not in ("delta", "rho", "both"):
        raise _ConfigError('moduli curve must be "delta", "rho" or "both"')
    # type-checked and not read: perfbench/workloads.py sets them
    _given(opts, budget=_integer, threads=_integer)
    est = None
    try:
        for name in ("delta", "rho") if curve == "both" else (curve,):
            key, estimate = _CURVES[name]
            grid = _given(opts, **{key: _floats}).get(key)
            if grid is None:
                raise _ConfigError(f"{name} estimation needs a {key!r} grid")
            part = estimate(space.p, n, grid)
            est = part if est is None else est.merged_with(part)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    report = {"command": "moduli", "space": _space_json(space, n), **est.to_json()}
    if _given(opts, fit=_flag).get("fit", False):
        try:
            report["fit"] = moduli_mod.fit_power_type(est).to_json()
        except ValueError as exc:
            raise _ConfigError(str(exc)) from exc
    if out is not None:
        # a file target gets both renderings: curves as CSV, summary as JSON
        base = out.removesuffix(".csv").removesuffix(".json")
        _emit(report, base + ".csv", est.csv_rows())
        out = base + ".json"
    _emit(report, out)
    return 0


def _cmd_rate(cfg: dict, seed: int, out) -> int:
    space, n = _get_space(cfg)
    C = _get_set(cfg, n)
    x = _get_vec(cfg, "x", n)
    section = _section(cfg, "rate")
    opts = _given(section, directions=_floats, count=_integer)
    if "directions" in opts:
        dirs = [space.unit(d) for d in _rows(opts["directions"], n, "rate directions")]
    else:
        rng = np.random.default_rng(seed)
        dirs = [space.unit(rng.standard_normal(n)) for _ in range(opts.get("count", 8))]
    rep = cauchy_rate_probe(space, lambda z: solver.project(space, C, z), x, dirs,
                            **_given(section, k_min=_integer, k_max=_integer))
    report = _set_report("rate", space, n, C, x=x, **rep.summary(), pairs=rep.pairs)
    _emit(report, out, csv_rows=rep.csv_rows())
    return 0


_COMMANDS = {
    "project": _cmd_project,
    "derivative": _cmd_derivative,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "moduli": _cmd_moduli,
    "rate": _cmd_rate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="banachproj",
        description="Metric projections, their derivatives and moduli in finite lp spaces.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output_path")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, args.command)
        given = _given(cfg, seed=_integer, output_path=_string)
        seed = args.seed if args.seed is not None else given.get("seed", 0)
        out = args.out if args.out is not None else given.get("output_path")
        # an overflow that matters ends in a refusal below, not in a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](cfg, seed, out)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSetError as exc:
        print(f"infeasible set: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
