"""Machine-readable verification reports with deterministic serialization.

Reports are emitted as JSON with sorted keys and a fixed float rendering
(17 significant digits), so identical inputs and seeds produce
byte-identical output. Complex values render as [re, im] pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .algebra import NumericalDegeneracy


def _format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _format_int(n: int) -> str:
    """Every digit of n, also past the interpreter's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        hi, lo = divmod(abs(n), 10 ** 4000)
        return ("-" if n < 0 else "") + _format_int(hi) + str(lo).zfill(4000)


def _escape(s: str) -> str:
    # isprintable() is false below 0x20, so such strings need no escapes
    if '"' not in s and "\\" not in s and s.isprintable():
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: dict keys sorted, floats at 17 significant
    digits, complex numbers as [re, im]."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return _format_int(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return (f"[{_format_float(obj.real)}, {_format_float(obj.imag)}]")
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        keys = sorted(obj.keys(), key=str)
        if not keys:
            return "{}"
        items = [f"{inner}{_escape(str(k))}: "
                 f"{canonical_json(obj[k], indent + 1)}" for k in keys]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    # numpy scalars and anything with .item()
    if hasattr(obj, "item"):
        return canonical_json(obj.item(), indent)
    return _escape(repr(obj))


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


@dataclass
class CheckEntry:
    name: str
    passed: bool
    residual: Optional[float] = None
    witness: Optional[str] = None


@dataclass
class CheckList:
    """Named checks, each with a pass flag, an optional residual and an
    optional witness; passes when every check passes. ``entries`` is
    keyword-only so that subclasses may add positional fields."""
    entries: list = field(default_factory=list, kw_only=True)

    def add(self, name: str, passed, residual: Optional[float] = None,
            witness: Optional[str] = None):
        self.entries.append(CheckEntry(name, bool(passed),
                                       None if residual is None
                                       else float(residual), witness))

    def add_entries(self, entries, prefix: str = ""):
        """Add each CheckEntry of ``entries`` as it is, its name prefixed."""
        for e in entries:
            self.add(prefix + e.name, e.passed, e.residual, e.witness)

    def add_wedderburn_equal(self, solve_a, solve_b) -> tuple:
        """The check "wedderburn_equal": the block sizes of two Wedderburn
        solves (calls with no arguments, in this order) agree. A solve that
        fails its certificate (NumericalDegeneracy) fails the check with
        its message as witness. Returns both blocks, or (None, None)."""
        try:
            a, b = solve_a().blocks, solve_b().blocks
        except NumericalDegeneracy as exc:
            self.add("wedderburn_equal", False, None, str(exc))
            return None, None
        self.add("wedderburn_equal", a == b, 0.0 if a == b else None,
                 None if a == b else f"{a} != {b}")
        return a, b

    def entry(self, name) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def cite(self, *names) -> list:
        """(name, residual, witness) of the named entries, as hypotheses
        of a certificate that rests on them."""
        return [(e.name, e.residual, e.witness) for e in map(self.entry,
                                                              names)]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


@dataclass
class Report(CheckList):
    """Verification report for one CLI command.

    The overall flag is the conjunction of the per-check flags; extras
    carry structural results (block sizes, dimensions) that are data, not
    checks.
    """
    command: str
    seed: int
    tolerance: float
    inputs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        body = {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [{"name": e.name, "pass": e.passed,
                        "residual": e.residual, "witness": e.witness}
                       for e in self.entries],
            "pass": self.passed,
        }
        body.update(self.extras)
        return body

    def to_json(self) -> str:
        return canonical_json(self.as_dict()) + "\n"

    def summary_lines(self):
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            extra = ""
            if e.residual is not None:
                extra = f" residual={e.residual:.3e}"
            if e.witness:
                extra += f" witness={e.witness}"
            yield f"[{status}] {e.name}{extra}"
        yield f"overall: {'PASS' if self.passed else 'FAIL'}"
