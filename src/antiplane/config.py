"""Strict line-based experiment configuration.

The format is deliberately tiny: a line ``name:`` opens a section and
``key = value`` assigns within it.  Blank lines and ``#`` comments are
ignored.  Unknown sections, unknown keys, duplicate entries and type
mismatches are all hard errors carrying the offending line number, so
typos never silently fall back to defaults.

Coefficient values accept three expression forms besides plain numbers:

* ``poly(c0, c1, ...)``: polynomial in x (the first coordinate in 2D),
  up to degree 3;
* ``affine(a, b)``: friction bound a + b |r|;
* ``constant(c)``: friction bound with no slip dependence (a bare
  number means the same).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np

from . import control, fem, qvi, tykhonov

SIDES = ("left", "right", "bottom", "top")


class ConfigError(Exception):
    """A configuration problem, pointing at the file line that caused it."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class Poly:
    """Polynomial in the first spatial coordinate, low degree."""

    coeffs: tuple[float, ...]

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        x = pts if pts.ndim == 1 else pts[..., 0]
        return np.polynomial.polynomial.polyval(x, self.coeffs)


# ---------------------------------------------------------------------------
# raw parsing

_SECTION_RE = re.compile(r"^([A-Za-z][\w-]*):\s*$")
_ASSIGN_RE = re.compile(r"^([A-Za-z][\w-]*)\s*=\s*(\S.*?)\s*$")


def read_raw(path):
    """Parse the file into {section: {key: (text, line)}} plus section lines."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc

    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    current = None
    for no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        m = _SECTION_RE.match(text)
        if m:
            name = m.group(1)
            if name in sections:
                raise ConfigError(f"duplicate section {name!r}", path, no)
            sections[name] = {}
            section_lines[name] = no
            current = name
            continue
        m = _ASSIGN_RE.match(text)
        if m:
            if current is None:
                raise ConfigError("assignment before any section header", path, no)
            key, value = m.group(1), m.group(2)
            if key in sections[current]:
                raise ConfigError(
                    f"duplicate key {key!r} in section {current!r}", path, no
                )
            sections[current][key] = (value, no)
            continue
        raise ConfigError(f"cannot parse line: {raw.strip()!r}", path, no)
    return sections, section_lines


# ---------------------------------------------------------------------------
# value parsers

def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_str(text):
    return text


def _parse_verdict(text):
    if text not in (tykhonov.CONVERGENT, tykhonov.NON_CONVERGENT):
        raise ValueError(
            f"expected {tykhonov.CONVERGENT} or {tykhonov.NON_CONVERGENT}, got {text!r}"
        )
    return text


def _parse_floats(text):
    return tuple(_parse_float(part) for part in text.split(","))


def _parse_ints(text):
    return tuple(_parse_int(part) for part in text.split(","))


_CALL_RE = re.compile(r"^([a-z]+)\(([^()]*)\)$")


def _call_args(text):
    m = _CALL_RE.match(text)
    if not m:
        return None
    name, body = m.group(1), m.group(2)
    args = tuple(_parse_float(part) for part in body.split(",")) if body.strip() else ()
    return name, args


def _parse_coefficient(text):
    """A number or poly(c0, ...), for loads, moduli and targets."""
    call = _call_args(text)
    if call is None:
        return _parse_float(text)
    name, args = call
    if name != "poly":
        raise ValueError(f"expected a number or poly(...), got {text!r}")
    if not 1 <= len(args) <= 4:
        raise ValueError("poly takes 1 to 4 coefficients (degree at most 3)")
    return Poly(args)


def _parse_friction(text):
    """A friction bound: bare number, constant(c) or affine(a, b)."""
    call = _call_args(text)
    if call is None:
        return fem.FrictionBound.constant(_parse_float(text))
    name, args = call
    if name == "constant" and len(args) == 1:
        return fem.FrictionBound.constant(args[0])
    if name == "affine" and len(args) == 2:
        return fem.FrictionBound.affine(args[0], args[1])
    raise ValueError(f"expected constant(c) or affine(a, b), got {text!r}")


def _parse_partition(text):
    out = {}
    for part in text.split(","):
        if ":" not in part:
            raise ValueError(f"expected side:tag pairs, got {part.strip()!r}")
        side, tag = (p.strip() for p in part.split(":", 1))
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        if tag not in fem.TAGS:
            raise ValueError(f"unknown boundary tag {tag!r}")
        if side in out:
            raise ValueError(f"side {side!r} assigned twice")
        out[side] = tag
    return out


def _parse_cases(text):
    """Semicolon-separated (mu, f0, g) triples."""
    cases = []
    for chunk in text.split(";"):
        triple = _parse_floats(chunk)
        if len(triple) != 3:
            raise ValueError(f"expected mu,f0,g triples, got {chunk.strip()!r}")
        cases.append(triple)
    return cases


# ---------------------------------------------------------------------------
# schemas

@dataclass(frozen=True)
class Key:
    parse: object
    required: bool = False
    default: object = None


# the keys that the schedule of run_convergence and that of run_oc_sequence share
_SCHEDULE_KEYS = {
    "kind": Key(_parse_str, required=True),
    "length": Key(_parse_int, required=True),
    "amplitude": Key(_parse_float, default=1.0),
    "decay": Key(_parse_str, default="inverse_n"),
    "ratio": Key(_parse_float, default=0.5),
    "f0_shape": Key(_parse_coefficient, default=1.0),
    "friction_da": Key(_parse_float, default=1.0),
    "friction_db": Key(_parse_float, default=0.0),
    "expect": Key(_parse_verdict, default=tykhonov.CONVERGENT),
}

SECTION_SCHEMAS = {
    "mesh": {
        "dimension": Key(_parse_int, required=True),
        "extents": Key(_parse_floats, required=True),
        "resolution": Key(_parse_ints, required=True),
        "partition": Key(_parse_partition, required=True),
    },
    "problem": {
        "mu": Key(_parse_coefficient, required=True),
        "f0": Key(_parse_coefficient, required=True),
        "f2": Key(_parse_coefficient),
        "g": Key(_parse_friction, required=True),
        "mu_star": Key(_parse_float),
    },
    "solver": {
        "outer_tol": Key(_parse_float, default=1e-10),
        "inner_tol": Key(_parse_float, default=1e-12),
        "max_outer": Key(_parse_int, default=200),
        "max_inner": Key(_parse_int, default=50000),
        "allow_non_contractive": Key(_parse_bool, default=False),
    },
    "constants": {
        "lipschitz": Key(_parse_float, default=0.0),
        "mu_star": Key(_parse_float),
        "tol": Key(_parse_float, default=1e-10),
        "max_iterations": Key(_parse_int, default=10000),
        "require_contraction": Key(_parse_bool, default=False),
    },
    "schedule": {
        **_SCHEDULE_KEYS,
        "f2_shape": Key(_parse_coefficient, default=1.0),
        "f0_target": Key(_parse_coefficient),
        "mu_law": Key(_parse_str, default="relative"),
        "noise_floor": Key(_parse_float),
    },
    "control": {
        "patches": Key(_parse_int, required=True),
        "a0": Key(_parse_float, required=True),
        "a2": Key(_parse_float, required=True),
        "target": Key(_parse_coefficient, default=0.0),
        "lower": Key(_parse_float),
        "upper": Key(_parse_float),
        "n_starts": Key(_parse_int, default=5),
        "start_scale": Key(_parse_float, default=1.0),
        "xatol": Key(_parse_float, default=1e-9),
        "fatol": Key(_parse_float, default=1e-12),
        "max_evals": Key(_parse_int),
    },
    "oc": {
        **_SCHEDULE_KEYS,
        "target_shape": Key(_parse_coefficient, default=0.0),
        "seq_starts": Key(_parse_int, default=3),
        "ctrl_tol": Key(_parse_float, default=1e-3),
        "noise_floor": Key(_parse_float, default=1e-9),
    },
    "validate": {
        "cases": Key(_parse_cases, default=((1.0, 1.0, 1.0), (1.0, 3.0, 1.0),
                                            (2.0, -3.0, 0.5), (1.0, 2.0, 1.0))),
        "elements": Key(_parse_int, default=256),
        "tol": Key(_parse_float, default=1e-3),
    },
    "run": {
        "seed": Key(_parse_int),
        "out": Key(_parse_str),
        "certify": Key(_parse_bool, default=False),
    },
}

SUBCOMMAND_SECTIONS = {
    "constants": {"mesh": True, "constants": False, "run": False},
    "solve": {"mesh": True, "problem": True, "solver": False, "run": False},
    "validate-1d": {"validate": False, "run": False},
    "tykhonov": {
        "mesh": True,
        "problem": True,
        "schedule": True,
        "solver": False,
        "run": False,
    },
    "control": {
        "mesh": True,
        "problem": True,
        "control": True,
        "solver": False,
        "run": False,
    },
    "oc-sequence": {
        "mesh": True,
        "problem": True,
        "control": True,
        "oc": True,
        "solver": False,
        "run": False,
    },
}


def parse_config(path, subcommand):
    """Typed configuration for one subcommand.

    Returns {section: {key: value}} with defaults filled in; sections
    irrelevant to the subcommand may be present (so one file can drive
    several subcommands) but must still parse cleanly.
    """
    if subcommand not in SUBCOMMAND_SECTIONS:
        raise ConfigError(f"unknown subcommand {subcommand!r}", path)
    sections, section_lines = read_raw(path)

    for name in sections:
        if name not in SECTION_SCHEMAS:
            raise ConfigError(f"unknown section {name!r}", path, section_lines[name])

    typed: dict[str, dict[str, object]] = {}
    for name, entries in sections.items():
        schema = SECTION_SCHEMAS[name]
        out: dict[str, object] = {}
        for key, (text, line) in entries.items():
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} in section {name!r}", path, line
                )
            try:
                out[key] = schema[key].parse(text)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", path, line) from None
        for key, spec in schema.items():
            if key in out:
                continue
            if spec.required:
                raise ConfigError(
                    f"section {name!r} misses required key {key!r}",
                    path,
                    section_lines[name],
                )
            out[key] = spec.default
        typed[name] = out

    wanted = SUBCOMMAND_SECTIONS[subcommand]
    for name, required in wanted.items():
        if required and name not in sections:
            raise ConfigError(
                f"subcommand {subcommand!r} needs a {name!r} section", path
            )
        if name not in typed:
            typed[name] = {
                key: spec.default
                for key, spec in SECTION_SCHEMAS[name].items()
                if not spec.required
            }
    return typed


# ---------------------------------------------------------------------------
# builders

def build_mesh(cfg) -> fem.Mesh:
    try:
        spec = fem.MeshSpec(**cfg["mesh"])
    except ValueError as exc:
        raise ConfigError(f"mesh: {exc}") from None
    return fem.build_mesh(spec)


def build_problem(cfg, mesh: fem.Mesh) -> qvi.ProblemData:
    return qvi.ProblemData(mesh=mesh, **cfg["problem"])


def build_solver_config(cfg) -> qvi.SolverConfig:
    try:
        return qvi.SolverConfig(**cfg["solver"])
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def _build_schedule(cfg, section, kinds) -> tykhonov.Schedule:
    """The ``section`` schedule; a kind outside ``kinds`` is a config error."""
    values = cfg[section]
    names = {f.name for f in fields(tykhonov.Schedule)}
    try:
        if values["kind"] not in kinds:
            raise ValueError(f"unknown schedule kind {values['kind']!r}")
        return tykhonov.Schedule(**{k: v for k, v in values.items() if k in names})
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def build_schedule(cfg) -> tykhonov.Schedule:
    return _build_schedule(cfg, "schedule", tykhonov.SCHEDULE_KINDS)


def build_patches(cfg, mesh: fem.Mesh) -> control.ControlPatches:
    ctl = cfg["control"]
    try:
        return control.ControlPatches(
            mesh, ctl["patches"], lower=ctl["lower"], upper=ctl["upper"]
        )
    except ValueError as exc:
        raise ConfigError(f"control: {exc}") from None


def build_weights(cfg) -> control.CostWeights:
    ctl = cfg["control"]
    try:
        return control.CostWeights(a0=ctl["a0"], a2=ctl["a2"], target=ctl["target"])
    except ValueError as exc:
        raise ConfigError(f"control: {exc}") from None


def build_oc_schedule(cfg) -> tykhonov.Schedule:
    return _build_schedule(cfg, "oc", tykhonov.OC_SCHEDULE_KINDS)
