"""Every name the package exports is in use (no dead API).

A name is in use when code reaches it: code in the package outside the
definitions of exported names, or code in the benchmark (``perfbench/``), or
the definition of an exported name in use. Identifiers count; strings and
comments do not, so the benchmark's tracer, which looks names up by string
and skips missing ones, keeps nothing alive. Tests do not count either.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def names_in(source: str) -> set[str]:
    """The identifiers in ``source``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {token.string for token in tokens if token.type == tokenize.NAME}


def unused_exports(package: Path, benchmark: Path) -> list[str]:
    """The names ``package/__init__.py`` imports that no code reaches."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    definitions, roots = {}, set()  # exported name -> identifiers in its definition
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            names = names_in(ast.get_source_segment(source, node))
            if getattr(node, "name", None) in exported:
                definitions[node.name] = names - {node.name}
            else:
                roots |= names
    for path in benchmark.glob("*.py"):
        roots |= names_in(path.read_text(encoding="utf-8"))
    used, reached = set(), exported & roots
    while reached:
        name = reached.pop()
        used.add(name)
        reached |= (definitions.get(name, set()) & exported) - used
    return sorted(exported - used)


def test_every_export_is_in_use():
    assert unused_exports(ROOT / "src" / "beltrack", ROOT / "perfbench") == []


def test_flags_exports_only_unused_code_reaches(tmp_path):
    package, benchmark = tmp_path / "package", tmp_path / "benchmark"
    package.mkdir()
    benchmark.mkdir()
    (package / "__init__.py").write_text(
        "from .geometry import Box, area, iou, IouError, to_box\n"
    )
    (package / "geometry.py").write_text(
        "class Box:\n    pass\n\n\n"
        "class IouError(ValueError):\n    pass\n\n\n"
        "def area(box):  # iou\n    return Box\n\n\n"
        "def iou(a, b):\n    raise IouError('not used')\n\n\n"
        "def to_box(state):\n    return 'iou'\n\n\n"
        "def _step(box):\n    return area(box)\n"
    )
    (benchmark / "run.py").write_text("SPANS = {'to_box': ('package.geometry', 'to_box')}\n")
    assert unused_exports(package, benchmark) == ["IouError", "iou", "to_box"]
