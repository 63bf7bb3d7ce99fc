"""File I/O shared by the dataset, config and CLI readers and writers.

Configs are read with `read_yaml` and written with `write_yaml`. Both
use libyaml's CSafeLoader/CSafeDumper when PyYAML was built with libyaml,
and the pure-Python SafeLoader/SafeDumper otherwise. The two pairs share
the safe constructor, resolver and representer, so they parse the same
values and emit the same text. Either loader rejects a mapping that
repeats a key, which plain YAML loading resolves silently to the last
value.

Scenes are written as JSON by `write_json` and read by `read_scene`,
which parses JSON with the standard-library `json` module and hands any
other text to `read_yaml`. JSON is a subset of YAML 1.2, so a written
scene is also a YAML file, and every YAML scene still loads. The default
scene loads about 10x faster as JSON than as YAML through libyaml, which
builds one Python node per number. Configs never take the JSON path:
`json` reads `1e5`, `NaN` and `Infinity` as floats where PyYAML (YAML
1.1) reads strings, and the config type checks would see that.

Text files are written atomically: to a temp file in the target's
directory, then `os.replace`d over the target, so an interrupted write
never leaves a truncated file and an earlier file at the path stays
intact until the new one is complete.
"""

from __future__ import annotations

import functools
import json
import os

import yaml

from .errors import ParseError

if yaml.__with_libyaml__:
    LOADER, DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    LOADER, DUMPER = yaml.SafeLoader, yaml.SafeDumper

_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeys:
    """Loader mixin: a mapping whose keys repeat is a ConstructorError,
    raised at the repeated key. `<<` merge keys are not checked: keys a
    merge brings in may be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == _MERGE_TAG:
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                repeated = key in seen
            except TypeError:
                continue  # an unhashable key; the base class reports it
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


@functools.cache
def _strict(loader):
    """`loader` with the duplicate-key check."""
    return type(loader.__name__, (_UniqueKeys, loader), {})


def read_yaml(path):
    """The YAML document in `path` (None when it is empty).

    Invalid YAML, a repeated mapping key, non-UTF-8 bytes and a value
    that its constructor refuses (an integer of more than
    sys.get_int_max_str_digits() digits, a date that does not exist)
    raise ParseError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_strict(LOADER))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ParseError(f"invalid YAML in {path}{where}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"invalid value in {path}: {exc}") from exc


def _unique_pairs(pairs):
    """json `object_pairs_hook`: a dict, or ValueError on a repeated key."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("duplicate key")
    return doc


def read_scene(path):
    """The JSON document in `path`, or its YAML document when it is not JSON.

    Any text that `json` refuses (not JSON, a repeated key, a BOM,
    non-UTF-8 bytes, nesting too deep) goes to `read_yaml`, which raises
    the ParseError, with its line number, that a YAML read would. Where
    both parsers accept a text they return the same document, except that
    `json` reads `1e5`, `1.0e5`, `NaN` and `Infinity` as floats where
    PyYAML reads strings. `json` also accepts surrogate-pair escapes,
    which PyYAML refuses.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_pairs)
    except (ValueError, RecursionError):
        return read_yaml(path)


def write_json(path, doc) -> None:
    """Write the mapping `doc` as JSON with sorted keys: one line per
    top-level key, and one line per item of a top-level list."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value:
            items = ",\n".join(map(encode, value))
            lines.append(f"{encode(key)}: [\n{items}\n]")
        else:
            lines.append(f"{encode(key)}: {encode(value)}")
    write_text(path, "{\n" + ",\n".join(lines) + "\n}\n")


def write_yaml(path, doc, **options) -> None:
    """Write `doc` as one YAML document; `options` go to `yaml.dump`."""
    write_text(path, yaml.dump(doc, Dumper=DUMPER, **options))


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, byte for byte, atomically."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
