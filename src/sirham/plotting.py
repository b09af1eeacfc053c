"""Minimal deterministic SVG rendering of trajectories.

Byte-identical output for identical input is a hard requirement here, so
the renderer avoids anything environment-dependent: no timestamps, no
random element ids, and every coordinate goes through one ``%.6g``
formatter.  That makes rendered files diffable and lets tests assert on
them directly.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingDiagnostic

__all__ = ["render_curves"]

_COLORS = {"S": "#4477aa", "I": "#cc3311", "R": "#228833"}
_DRIFT_COLOR = "#aa3377"
_WIDTH, _HEIGHT = 720, 480
_TITLE = "compartment fractions"
#: tick labels per axis
_N_TICKS = 5


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _scale(values: np.ndarray, lo: float, hi: float, a: float, b: float) -> np.ndarray:
    if hi == lo:
        return np.full_like(np.asarray(values, dtype=float), 0.5 * (a + b))
    return a + (np.asarray(values, dtype=float) - lo) * (b - a) / (hi - lo)


def _polyline(x: np.ndarray, y: np.ndarray, color: str) -> str:
    if len(x) == 1:
        return f'<circle cx="{_fmt(x[0])}" cy="{_fmt(y[0])}" r="3" fill="{color}"/>'
    points = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(x, y))
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        'stroke-width="1.5"/>'
    )


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + k * (hi - lo) / (_N_TICKS - 1) for k in range(_N_TICKS)]


def render_curves(
    t: np.ndarray,
    s: np.ndarray,
    i: np.ndarray,
    r: np.ndarray,
    drift: np.ndarray | None = None,
) -> str:
    """Render compartment curves, and the magnitude of ``drift`` when it is
    given, to SVG; ``plot`` passes a run CSV's ``H_rel_drift`` column."""
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise MissingDiagnostic("nothing to plot: no samples")

    with_energy = drift is not None and len(drift)
    margin_l, margin_r, margin_t, margin_b = 56.0, 16.0, 28.0, 40.0
    gap = 36.0
    usable = _HEIGHT - margin_t - margin_b
    main_h = (usable - gap) * 0.68 if with_energy else usable

    t_lo, t_hi = float(t[0]), float(t[-1])
    x = _scale(t, t_lo, t_hi, margin_l, _WIDTH - margin_r)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="11" fill="#333">',
    ]

    # main panel: fractions against ordinary time
    top, bottom = margin_t, margin_t + main_h
    for tick in _ticks(0.0, 1.0):
        yy = _scale(np.array([tick]), 0.0, 1.0, bottom, top)[0]
        parts.append(
            f'<line x1="{_fmt(margin_l)}" y1="{_fmt(yy)}" '
            f'x2="{_fmt(_WIDTH - margin_r)}" y2="{_fmt(yy)}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l - 6)}" y="{_fmt(yy + 3)}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    for tick in _ticks(t_lo, t_hi):
        xx = _scale(np.array([tick]), t_lo, t_hi, margin_l, _WIDTH - margin_r)[0]
        parts.append(
            f'<text x="{_fmt(xx)}" y="{_fmt(bottom + 14)}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for name, column in (("S", s), ("I", i), ("R", r)):
        y = _scale(np.asarray(column, dtype=float), 0.0, 1.0, bottom, top)
        parts.append(_polyline(x, y, _COLORS[name]))
    for k, name in enumerate(("S", "I", "R")):
        lx = margin_l + 10 + 44 * k
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(top + 4)}" width="10" height="10" '
            f'fill="{_COLORS[name]}"/>'
        )
        parts.append(f'<text x="{_fmt(lx + 14)}" y="{_fmt(top + 13)}">{name}</text>')
    parts.append(f'<text x="{_fmt(margin_l)}" y="{_fmt(margin_t - 8)}">{_TITLE}</text>')

    if with_energy:
        drift = np.abs(np.asarray(drift, dtype=float))
        d_hi = float(np.max(drift))
        d_hi = d_hi if d_hi > 0.0 else 1e-16
        e_top = bottom + gap
        e_bottom = _HEIGHT - margin_b
        y = _scale(drift, 0.0, d_hi, e_bottom, e_top)
        parts.append(
            f'<line x1="{_fmt(margin_l)}" y1="{_fmt(e_bottom)}" '
            f'x2="{_fmt(_WIDTH - margin_r)}" y2="{_fmt(e_bottom)}" '
            'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(_polyline(x, y, _DRIFT_COLOR))
        parts.append(
            f'<text x="{_fmt(margin_l)}" y="{_fmt(e_top - 8)}">'
            f"relative energy drift (max {_fmt(d_hi)})</text>"
        )

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

