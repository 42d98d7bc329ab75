"""Structured-text run configuration and its one schema.

The format is a small indentation-based block language: ``key: value`` pairs,
nested blocks introduced by a bare ``key:`` line, lists written inline as
``[a, b, c]``.  Lines starting with ``#`` are comments.  It parses into plain
nested dicts and serializes back deterministically, so every report can embed
the exact configuration that produced it.

``SCHEMA`` is the one owner of every config key: its type, its default and
its check.  ``load_config`` resolves a file against it: every default filled
in, every value converted and checked, and an unknown key, a repeated key or
a wrong type is a ConfigError naming the key.  Required keys are checked per
command by ``require``, for the blocks that command reads.
"""

from __future__ import annotations

from .errors import ConfigError

#: the default of a key that every command reading its block needs
REQUIRED = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: type -> (what a value must be, test of the parsed value, conversion)
TYPES = {
    "float": ("a number", _is_number, float),
    "int": ("an integer", lambda v: _is_number(v) and float(v).is_integer(), int),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "floats": ("a list of numbers",
               lambda v: isinstance(v, list) and all(map(_is_number, v)),
               lambda v: [float(x) for x in v]),
}

#: check -> predicate on the converted value
CHECKS = {
    # a margin or tolerance <= 0 would pass as a failed verdict, and a
    # horizon <= 0 leaves the history empty
    "positive": lambda v: v > 0,
    # the transform slope compares the fields at horizon - 1 and horizon
    "at least 1": lambda v: v >= 1.0,
    # ProblemSpec and SchemeConfig check these too, for library callers;
    # here the message names the key
    "in (1, 2]": lambda v: 1.0 < v <= 2.0,
    "1 or 2": lambda v: v in (1, 2),
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
}

#: dotted key -> (type, default, check).  A key whose default is None stays
#: out of the resolved config when it is unset.
SCHEMA = {
    "problem.m": ("float", REQUIRED, "in (1, 2]"),
    "problem.dim": ("int", 1, "1 or 2"),
    "problem.source.family": ("str", REQUIRED, None),
    "problem.source.table_path": ("str", None, None),
    "problem.source.alpha": ("float", 2.0, None),
    "problem.source.osc_amp": ("float", 0.0, None),
    "problem.source.shift": ("float", 0.0, None),
    "problem.initial.family": ("str", "zero", None),
    "problem.initial.table_path": ("str", None, None),
    "problem.initial.amplitude": ("float", 1.0, None),
    "problem.initial.width": ("float", 1.0, None),
    "scheme.cfl_safety": ("float", 0.9, "in (0, 1]"),
    "scheme.blow_up_cap": ("float", 1e3, None),
    "validate.radii": ("floats", None, None),
    "ergodic.ladder": ("floats", REQUIRED, None),
    "ergodic.cutoffs": ("floats", [], None),
    "ergodic.spacing": ("float", REQUIRED, None),
    "longtime.horizon": ("float", REQUIRED, "positive"),
    "longtime.box_half_width": ("float", REQUIRED, None),
    "longtime.spacing": ("float", REQUIRED, None),
    "longtime.window_half_width": ("float", 2.0, None),
    "longtime.epsilon": ("float", 0.1, "positive"),
    "longtime.tolerance": ("float", 0.05, "positive"),
    "oracle.box_half_width": ("float", 8.0, None),
    "oracle.spacing": ("float", 0.025, None),
    "oracle.horizon": ("float", 5.0, "at least 1"),
    "oracle.window_half_width": ("float", 2.0, None),
    "oracle.eigen_tolerance": ("float", 0.05, "positive"),
    "oracle.field_tolerance": ("float", 0.05, "positive"),
    "oracle.slope_tolerance": ("float", 0.02, "positive"),
    "seed": ("int", None, None),
}

#: keys of solvers since replaced: accepted and dropped from the resolved
#: config, so configs written for those solvers still load
RETIRED = frozenset({"ergodic.slope_tol", "ergodic.max_time", "ergodic.min_time",
                     "ergodic.window_half_width", "scheme.residual_stencil",
                     "scheme.grad_cap"})

#: every block, dotted: the proper prefixes of the table's keys
BLOCKS = frozenset(
    key.rsplit(".", k)[0] for key in SCHEMA for k in range(1, key.count(".") + 1)
)


def _parse_scalar(text: str):
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        inner = t[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(p) for p in inner.split(",")]
    low = t.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config(text: str) -> dict:
    root: dict = {}
    # stack of (indent, dict, dotted prefix of its keys)
    stack = [(-1, root, "")]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        key_part = stripped.strip()
        if ":" not in key_part:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {key_part!r}")
        key, _, value = key_part.partition(":")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        while stack and indent <= stack[-1][0]:
            stack.pop()
        if not stack:
            raise ConfigError(f"line {lineno}: indentation does not match any block")
        _, parent, prefix = stack[-1]
        if key in parent:
            raise ConfigError(f"line {lineno}: config key {prefix + key!r} repeated")
        if value.strip() == "":
            block: dict = {}
            parent[key] = block
            stack.append((indent, block, f"{prefix}{key}."))
        else:
            parent[key] = _parse_scalar(value)
    return root


def _emit_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(_emit_scalar(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_config(cfg: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in cfg.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            if val:
                lines.append(emit_config(val, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_emit_scalar(val)}")
    return "\n".join(lines)


def _leaves(tree: dict, prefix: str = ""):
    """(dotted key, value) of every value and every empty block of a parse."""
    for name, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def _unknown(key: str) -> str:
    import difflib  # only a config with a stray key pays for it

    near = difflib.get_close_matches(key, list(SCHEMA), n=1)
    hint = f"; did you mean {near[0]!r}?" if near else ""
    return f"unknown config key {key!r}{hint}"


def resolve(parsed: dict) -> dict:
    """The parsed config resolved against SCHEMA, every block present.

    Keys come out in table order, defaults filled in and values converted;
    retired keys are dropped.  Required keys may be missing: ``require``
    checks them for the blocks a command reads.
    """
    given = dict(_leaves(parsed))
    for key, value in given.items():
        empty_block = key in BLOCKS and value == {}
        if key not in SCHEMA and key not in RETIRED and not empty_block:
            raise ConfigError(_unknown(key))
    cfg: dict = {}
    for key, (kind, default, check) in SCHEMA.items():
        *path, name = key.split(".")
        block = cfg
        for part in path:
            block = block.setdefault(part, {})
        value = given.get(key, default)
        if value is None or value is REQUIRED:
            continue
        what, test, convert = TYPES[kind]
        if not test(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        value = convert(value)
        if check is not None and not CHECKS[check](value):
            raise ConfigError(f"{key} must be {check}, got {value!r}")
        block[name] = value
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve(parse_config(text))


def require(cfg: dict, blocks) -> None:
    """Raise for the first required key of ``blocks`` a resolved config lacks.

    An empty list counts as missing: a ladder of no rungs brackets nothing.
    """
    given = dict(_leaves(cfg))
    for key, (_, default, _) in SCHEMA.items():
        if default is REQUIRED and key.split(".")[0] in blocks:
            if given.get(key) in (None, []):
                raise ConfigError(f"missing required config field {key!r}")


def first_difference(a: dict, b: dict, blocks):
    """(key, value in a, value in b) for the first key of ``blocks`` on which
    two resolved configs differ, or None."""
    a, b = dict(_leaves(a)), dict(_leaves(b))
    for key in SCHEMA:
        if key.split(".")[0] in blocks and a.get(key) != b.get(key):
            return key, a.get(key), b.get(key)
    return None


def resolved_lines(cfg: dict):
    """Config as a list of lines for embedding into report headers."""
    return emit_config(cfg).splitlines()
