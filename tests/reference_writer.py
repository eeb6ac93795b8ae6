"""The per-value text writer: every cell of every row formatted on its own.

This is the writer the CLI used before its tables became float arrays, kept
here as the reference for ``heisflow.cli._emit``: CSV rows are cells
joined by commas, each float through %.17g, and JSON goes through a small
recursive writer with %.17g floats, null for non-finite floats and one
line per row.  Rows are lists of Python floats.
"""

import io
import math


def fmt(x: float) -> str:
    return "%.17g" % x


def json_atom(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_dump(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.write(f'{pad}  "{k}": ')
            json_dump(v, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.write("[]")
            return
        if all(isinstance(v, (int, float, str, bool, type(None))) for v in value):
            out.write("[" + ", ".join(json_atom(v) for v in value) + "]")
            return
        out.write("[\n")
        for i, v in enumerate(value):
            out.write(pad + "  ")
            json_dump(v, out, indent + 1)
            out.write(",\n" if i < len(value) - 1 else "\n")
        out.write(pad + "]")
    else:
        out.write(json_atom(value))


def render(report: dict, columns, fmt_name: str) -> str:
    """The text the CLI writes for ``report`` in format ``fmt_name``."""
    if fmt_name == "csv":
        lines = [",".join(columns)]
        for row in report["rows"]:
            lines.append(",".join(fmt(x) if isinstance(x, float) else str(x) for x in row))
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    json_dump(report, buf)
    return buf.getvalue() + "\n"
