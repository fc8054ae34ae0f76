"""Result serialization: CSV, a JSON envelope, and a minimal SVG plot.

Floats are formatted with repr-stable %.12g so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .experiment import SweepResult

SCHEMA = "nla-weaksim/1"


def format_value(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


def csv_text(result: SweepResult) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def _value_text(value: object, level: int) -> str:
    """JSON text of a row or meta value at the given depth: a float rounded
    to the 12 significant digits the CSV prints (see _float_text); a complex
    number as its [real, imag] pair; anything else as json writes it."""
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, complex):
        value = [value.real, value.imag]
    return _json_block(value, level)


_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """The text json writes for float(f"{value:.12g}"), with NaN as null.

    json writes a finite float as its repr, the shortest decimal that reads
    back as it.  For the double nearest a decimal of at most 12 digits that
    decimal is the repr's: any other of at most 12 digits lies at least
    1e-13 away, relative, and a normal double's spacing is 2.2e-16.  So
    the %.12g digits are taken as they are, with ".0" after an integral
    fixed form, and only the layouts that differ are parsed and written
    again: exponents 12 to 15, which repr writes in fixed form, and
    subnormal magnitudes, whose spacing is wider than 12 digits resolve.
    """
    text = "%.12g" % value
    if "e" in text:
        exponent = int(text[text.index("e") + 1:])
        if 12 <= exponent < 16 or exponent < -307:
            return float.__repr__(float(text))
        return text
    if "." in text:
        return text
    if text[-1].isdigit():
        return text + ".0"
    return _NON_FINITE[text]


def json_text(result: SweepResult, config: Optional[dict] = None) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" of the envelope
    doc = {schema, kind, config, meta, columns, rows}, whose row and meta
    values are written as _value_text says.

    The six keys are written here in their sorted order, the column block
    once per column tuple, and the row and meta values one by one; the
    config and every nested value go through _json_block.  json writes a
    str with encode_basestring_ascii.
    """
    meta = [f"{encode_basestring_ascii(k)}: {_value_text(v, 2)}"
            for k, v in sorted(result.meta.items())]
    rows = [_block([_value_text(v, 3) for v in row], "[]", 2)
            for row in result.rows]
    return (f'{{\n  "columns": {_columns_block(tuple(result.columns))},'
            f'\n  "config": {_json_block(config or {}, 1)},'
            f'\n  "kind": {encode_basestring_ascii(result.kind)},'
            f'\n  "meta": {_block(meta, "{}", 1)},'
            f'\n  "rows": {_block(rows, "[]", 1)},'
            f'\n  "schema": {encode_basestring_ascii(SCHEMA)}\n}}\n')


# bounded: a process writes the columns of a few result kinds
@lru_cache(maxsize=16)
def _columns_block(columns: tuple) -> str:
    return _json_block(list(columns), 1)


def _block(items: list[str], brackets: str, level: int) -> str:
    """A container at the given depth from the JSON texts of its items,
    laid out as indent=2 lays it out."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return (f"{brackets[0]}{pad}{(',' + pad).join(items)}"
            f"\n{'  ' * level}{brackets[1]}")


@lru_cache(maxsize=None)
def _flat_encoder(level: int) -> json.JSONEncoder:
    """C encoder of a container at the given depth whose items are all
    scalars: its items come out separated as indent=2 puts them."""
    return json.JSONEncoder(sort_keys=True,
                            separators=(",\n" + "  " * (level + 1), ": "))


def _json_block(obj: object, level: int) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for str dict keys, written
    at the given depth.

    With an indent, json.dumps runs its pure-Python encoder; each container
    whose items are all scalars goes to the C encoder here instead.
    """
    if isinstance(obj, dict):
        brackets, items = "{}", obj.values()
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", obj
    else:
        return _flat_encoder(level).encode(obj)
    if not obj:
        return brackets
    if not any(isinstance(v, (dict, list, tuple)) for v in items):
        return _block([_flat_encoder(level).encode(obj)[1:-1]], brackets, level)
    if isinstance(obj, dict):
        return _block([f"{encode_basestring_ascii(k)}: {_json_block(v, level + 1)}"
                       for k, v in sorted(obj.items())], brackets, level)
    return _block([_json_block(v, level + 1) for v in obj], brackets, level)


_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Axes:
    """Linear or log10 mapping from data to pixel coordinates."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 logx: bool, logy: bool):
        def prep(vals, log):
            vals = [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
            if log:
                vals = [math.log10(v) for v in vals if v > 0]
            if not vals:
                vals = [0.0, 1.0]
            lo, hi = min(vals), max(vals)
            if hi == lo:
                lo, hi = lo - 0.5, hi + 0.5
            return lo, hi

        self.logx, self.logy = logx, logy
        self.x0, self.x1 = prep(xs, logx)
        self.y0, self.y1 = prep(ys, logy)

    def px(self, x: float) -> float:
        if self.logx:
            x = math.log10(x) if x > 0 else self.x0
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        if self.logy:
            y = math.log10(y) if y > 0 else self.y0
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def tick_label(self, t: float, log: bool) -> str:
        v = 10.0**t if log else t
        return f"{v:.3g}"


def svg_text(
    result: SweepResult,
    *,
    x_column: str,
    y_columns: Sequence[str],
    sampled_column: Optional[str] = None,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
) -> str:
    """Self-contained SVG line plot of selected columns.

    The first y column is drawn solid, later ones dashed; the sampled column
    (if any) is drawn as circles.  Non-finite points are skipped.
    """
    ci = {name: i for i, name in enumerate(result.columns)}
    xs = [row[ci[x_column]] for row in result.rows]
    all_y: list[float] = []
    series = []
    for name in y_columns:
        ys = [row[ci[name]] for row in result.rows]
        series.append((name, ys))
        all_y += [y for y in ys if isinstance(y, (int, float))]
    samp = None
    if sampled_column is not None and sampled_column in ci:
        samp = [row[ci[sampled_column]] for row in result.rows]
        all_y += [y for y in samp
                  if isinstance(y, (int, float)) and not math.isnan(y)]
    ax = _Axes(xs, all_y, logx, logy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for t in _ticks(ax.x0, ax.x1):
        x = _ML + (t - ax.x0) / (ax.x1 - ax.x0) * (_W - _ML - _MR)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{ax.tick_label(t, logx)}</text>'
        )
    for t in _ticks(ax.y0, ax.y1):
        y = _H - _MB - (t - ax.y0) / (ax.y1 - ax.y0) * (_H - _MT - _MB)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end">{ax.tick_label(t, logy)}</text>'
        )
    if title:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_MT - 5}" font-size="13" '
            f'text-anchor="middle">{title}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" font-size="12" '
        f'text-anchor="middle">{x_column}</text>'
    )

    colors = ["#1f5fbf", "#bf3f3f", "#3f8f3f", "#8f3f8f"]
    for k, (name, ys) in enumerate(series):
        pts = [
            f"{ax.px(x):.1f},{ax.py(y):.1f}"
            for x, y in zip(xs, ys)
            if isinstance(y, (int, float)) and not math.isnan(float(y))
            and not (logy and y <= 0) and not (logx and x <= 0)
        ]
        if not pts:
            continue
        dash = "" if k == 0 else ' stroke-dasharray="6,4"'
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{colors[k % len(colors)]}" stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 10}" y="{_MT + 16 + 14 * k}" font-size="11" '
            f'text-anchor="end" fill="{colors[k % len(colors)]}">{name}</text>'
        )
    if samp is not None:
        for x, y in zip(xs, samp):
            if isinstance(y, (int, float)) and not math.isnan(float(y)):
                if (logy and y <= 0) or (logx and x <= 0):
                    continue
                parts.append(
                    f'<circle cx="{ax.px(x):.1f}" cy="{ax.py(y):.1f}" r="3" '
                    'fill="none" stroke="#202020"/>'
                )
        parts.append(
            f'<text x="{_W - _MR - 10}" y="{_MT + 16 + 14 * len(series)}" '
            f'font-size="11" text-anchor="end" fill="#202020">'
            f'{sampled_column}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
