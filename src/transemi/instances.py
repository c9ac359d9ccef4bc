"""Instance files: one YAML document per system, hand-editable.

Two kinds. "transformations" carries a carrier size and seed maps as pair
lists; building one fills an int64 row per map (-1 where undefined)
straight from the checked pairs and saturates the rows. "abstract" carries
row-major index tables and sparse relation pair lists. Parsing failures
raise InstanceFormatError with a key-path tag; write followed by parse is
the identity on instances. Files are read as UTF-8.

`render_instance` writes a small subset of YAML, and `_read` reads exactly
that subset straight into the dict `instance_from_dict` checks: a block
mapping of the known top-level keys, each at most once; canonical ints and
plain names that YAML resolves to strings; flow lists of ints, wrapped past
80 columns as `yaml.safe_dump` wraps them; `- ` items, one level of them
nested (`- - ` then `  - `); whole-line comments of printable ASCII from
column 0, as the files under `tests/data` carry; `\n` line ends. Every
other text goes to `yaml.safe_load`: other comments, quotes, tabs, CRLF,
YAML 1.1 scalars such as `yes` or `0x10`, repeated keys, a text without
a key. So a text's value or error message is that of PyYAML's pure-Python
loader, whether or not PyYAML was built with libyaml. PyYAML is imported
only for that fallback and for writing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .abstract_system import AbstractSystem
from .errors import InstanceFormatError
from .trans_semigroup import TransSystem, generate


@dataclass(frozen=True)
class TransInstance:
    base_size: int
    maps: tuple[tuple[tuple[int, int], ...], ...]
    name: Optional[str] = None
    seed: Optional[int] = None

    kind = "transformations"

    def build(self, cap: int = 256) -> TransSystem:
        """The saturated system of the seed maps. An instance built in
        code has not been through the parser's checks, so a pair with an
        element outside 0..base_size-1, or a point mapped to two images,
        raises `ValueError` here."""
        n = self.base_size
        rows = [[-1] * n for _ in self.maps]
        for row, pairs in zip(rows, self.maps):
            for a, b in pairs:
                for g in (a, b):
                    if not 0 <= g < n:
                        raise ValueError(f"element {g} out of range for carrier of size {n}")
                if row[a] not in (-1, b):
                    raise ValueError(f"element {a} mapped to both {row[a]} and {b}")
                row[a] = b
        return generate(rows, cap)


@dataclass(frozen=True)
class AbstractInstance:
    size: int
    mul: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    xi: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...]
    name: Optional[str] = None
    seed: Optional[int] = None

    kind = "abstract"

    def build(self) -> AbstractSystem:
        m = self.size
        xi = [[False] * m for _ in range(m)]
        delta = [[False] * m for _ in range(m)]
        for x, y in self.xi:
            xi[x][y] = True
        for x, y in self.delta:
            delta[x][y] = True
        return AbstractSystem(
            [list(r) for r in self.mul], [list(r) for r in self.meet], xi, delta
        )


Instance = TransInstance | AbstractInstance


def _want(data: dict, key: str, where: str):
    if key not in data:
        raise InstanceFormatError(f"{where}: missing key {key!r}")
    return data[key]


def _int_at(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _pair_list(value, where: str, bound: int) -> tuple[tuple[int, int], ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}: expected a list of pairs")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise InstanceFormatError(f"{where}[{i}]: expected a pair [a, b]")
        a = _int_at(item[0], f"{where}[{i}][0]")
        b = _int_at(item[1], f"{where}[{i}][1]")
        if not (0 <= a < bound and 0 <= b < bound):
            raise InstanceFormatError(f"{where}[{i}]: index out of range 0..{bound - 1}")
        out.append((a, b))
    return tuple(out)


def _table(value, where: str, m: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or len(value) != m:
        raise InstanceFormatError(f"{where}: expected {m} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != m:
            raise InstanceFormatError(f"{where}[{i}]: expected {m} entries")
        vals = []
        for j, v in enumerate(row):
            v = _int_at(v, f"{where}[{i}][{j}]")
            if not 0 <= v < m:
                raise InstanceFormatError(f"{where}[{i}][{j}]: entry out of range")
            vals.append(v)
        rows.append(tuple(vals))
    return tuple(rows)


def instance_from_dict(data, where: str = "instance") -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{where}: expected a mapping at top level")
    kind = _want(data, "kind", where)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError(f"{where}.name: expected a string")
    seed = data.get("seed")
    if seed is not None:
        seed = _int_at(seed, f"{where}.seed")

    if kind == "transformations":
        n = _int_at(_want(data, "base_size", where), f"{where}.base_size")
        if n < 1:
            raise InstanceFormatError(f"{where}.base_size: must be positive")
        raw_maps = _want(data, "maps", where)
        if not isinstance(raw_maps, list) or not raw_maps:
            raise InstanceFormatError(f"{where}.maps: expected a nonempty list")
        maps = []
        for i, pairs in enumerate(raw_maps):
            plist = _pair_list(pairs, f"{where}.maps[{i}]", n)
            seen: dict[int, int] = {}
            for a, b in plist:
                if a in seen and seen[a] != b:
                    raise InstanceFormatError(
                        f"{where}.maps[{i}]: element {a} mapped to both {seen[a]} and {b}"
                    )
                seen[a] = b
            maps.append(plist)
        return TransInstance(n, tuple(maps), name, seed)

    if kind == "abstract":
        m = _int_at(_want(data, "size", where), f"{where}.size")
        if m < 1:
            raise InstanceFormatError(f"{where}.size: must be positive")
        return AbstractInstance(
            m,
            _table(_want(data, "mul", where), f"{where}.mul", m),
            _table(_want(data, "meet", where), f"{where}.meet", m),
            _pair_list(data.get("xi"), f"{where}.xi", m),
            _pair_list(data.get("delta"), f"{where}.delta", m),
            name,
            seed,
        )

    raise InstanceFormatError(f"{where}.kind: unknown kind {kind!r}")


def instance_to_dict(inst: Instance) -> dict:
    out: dict = {"kind": inst.kind}
    if inst.name is not None:
        out["name"] = inst.name
    if inst.seed is not None:
        out["seed"] = inst.seed
    if isinstance(inst, TransInstance):
        out["base_size"] = inst.base_size
        out["maps"] = [[list(p) for p in pairs] for pairs in inst.maps]
    else:
        out["size"] = inst.size
        out["mul"] = [list(r) for r in inst.mul]
        out["meet"] = [list(r) for r in inst.meet]
        out["xi"] = [list(p) for p in inst.xi]
        out["delta"] = [list(p) for p in inst.delta]
    return out


def parse_instance_text(text: str, where: str = "instance") -> Instance:
    data = _read(text)
    if data is None:
        data = _load_yaml(text, where)
    return instance_from_dict(data, where)


_INT = r"0|-?[1-9][0-9]*"
_INTS = rf"(?:{_INT})(?:, (?:{_INT}))*"
# plain words that YAML 1.1 resolves to a bool or to null, not to a string
_NOT_STR = ("yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE"
            "|on|On|ON|off|Off|OFF|null|Null|NULL")
# an int, a flow list of ints, the first line of one that `yaml.safe_dump`
# wraps past 80 columns (it ends in a comma), or a name
_VALUE = (rf"{_INT}|\[(?:(?:{_INTS})?\]|{_INTS},)"
          rf"|(?!(?:{_NOT_STR})$)[A-Za-z_][A-Za-z0-9_.-]*")
# a line of the subset: `key: value`, `key:` opening a block sequence,
# `- value`, `- - value` opening a nested sequence, `  - value` going on
# with it, a comment, or a wrapped flow list going on
_LINE = re.compile(
    rf"(kind|name|seed|base_size|maps|size|mul|meet|xi|delta):(?: ({_VALUE}))?"
    rf"|(- - |  - |- )({_VALUE})|#[ -~]*|(  |    )({_INTS}[\],])")


def _scalar(token: str):
    if token[0] == "[":
        return [int(v) for v in token[1:-1].split(", ")] if token != "[]" else []
    return int(token) if token[0] in "-0123456789" else token


def _read(text: str) -> dict | None:
    """The value of `text`, equal to `yaml.safe_load`'s, when the text is in
    the subset `render_instance` writes and holds a key; None for any other
    text (a text of comments only is YAML's null, which PyYAML reports)."""
    if not text.endswith("\n"):
        return None
    out: dict = {}
    seq = inner = None  # the open key's block sequence and its open nested one
    flow = None  # a wrapped flow list, and the indent its next line must have
    for line in text[:-1].split("\n"):
        match = _LINE.fullmatch(line)
        if match is None:
            return None
        key, value, lead, item, indent, ints = match.groups()
        if flow is not None or indent is not None:
            if flow is None or indent != flow[1]:
                return None
            flow[0].extend(_scalar("[" + ints))
            if ints[-1] == "]":
                flow = None
            continue
        if line[0] == "#":
            continue
        token = value or item
        got = [] if token is None else _scalar(token)
        if key is not None:
            if key in out or seq == []:  # a repeated key, or a key without value
                return None
            out[key] = got
            seq = got if token is None else None
            inner = None
        elif lead == "  - ":
            if inner is None:
                return None
            inner.append(got)
        elif seq is None:
            return None
        elif lead == "- ":
            seq.append(got)
            inner = None
        else:
            inner = [got]
            seq.append(inner)
        if token is not None and token[-1] == ",":
            flow = (got, "  " if lead in (None, "- ") else "    ")
    return None if not out or seq == [] or flow is not None else out


def _load_yaml(text: str, where: str):
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InstanceFormatError(f"{where}: not valid YAML: {exc}") from exc


def parse_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    return parse_instance_text(text, str(path))


def render_instance(inst: Instance) -> str:
    import yaml

    return yaml.safe_dump(instance_to_dict(inst), sort_keys=False, default_flow_style=None)


def write_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(render_instance(inst))


def trans_instance_from_system(sys: TransSystem, name: Optional[str] = None,
                               seed: Optional[int] = None,
                               seeds_only: np.ndarray | Sequence[Sequence[int]] | None = None,
                               ) -> TransInstance:
    """The system as an instance whose maps are `seeds_only`, rows as
    `generate` takes them, or else all of the system's rows; the pairs are
    Python ints, which `yaml.safe_dump` requires."""
    rows = np.asarray(sys.rows if seeds_only is None else seeds_only)
    maps = tuple(tuple((a, b) for a, b in enumerate(row) if b >= 0) for row in rows.tolist())
    return TransInstance(sys.base_size, maps, name, seed)


def abstract_instance_from_system(sys: AbstractSystem, name: Optional[str] = None,
                                  seed: Optional[int] = None) -> AbstractInstance:
    m = sys.size
    xi = tuple((x, y) for x in range(m) for y in range(m) if sys.xi[x, y])
    delta = tuple((x, y) for x in range(m) for y in range(m) if sys.delta[x, y])
    return AbstractInstance(
        m,
        tuple(tuple(int(v) for v in row) for row in sys.mul),
        tuple(tuple(int(v) for v in row) for row in sys.meet),
        xi,
        delta,
        name,
        seed,
    )
