"""Text output of the commands: a table, CSV or JSON, to stdout or a file.

cli and cli_models both import it, so that neither imports the other.
"""

import sys


def emit(text, out_path):
    text = text if text.endswith("\n") else text + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def to_json(payload):
    import json  # only JSON output needs it, so a table or CSV call never loads it
    return json.dumps(payload, indent=2, sort_keys=True)


def _table(headers, rows):
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render(headers, rows, fmt, payload=None):
    if fmt == "json":
        return to_json(payload)
    if fmt == "csv":
        return "\n".join(",".join(str(c) for c in row) for row in [headers] + rows)
    return _table(headers, rows)


def num(x, nd=6):
    """x to nd significant digits."""
    return f"{x:.{nd}g}"
