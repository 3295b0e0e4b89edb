"""Static SVG plots for traces and Monte-Carlo batches.

Hand-rolled SVG keeps the output a deterministic byte stream (no library
version drift, no embedded ids or timestamps) so plots can be golden-tested.
No external resources are referenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sim import MonteCarloReport, SimTrace, metrics

WIDTH, HEIGHT = 800, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44

BLUE = "#1f4e9c"
RED = "#c0392b"
GREEN = "#2e8b57"
BLACK = "#202020"
GRAY = "#9a9a9a"


def _f(value: float) -> str:
    return format(float(value), ".2f")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            step = mult * power
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


@dataclass
class Frame:
    """Maps data coordinates onto the pixel viewport."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    equal_aspect: bool = False

    def __post_init__(self) -> None:
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0
        if self.equal_aspect:
            span_x = self.x_hi - self.x_lo
            span_y = self.y_hi - self.y_lo
            width = WIDTH - MARGIN_L - MARGIN_R
            height = HEIGHT - MARGIN_T - MARGIN_B
            if span_x / width > span_y / height:
                extra = span_x * height / width - span_y
                self.y_lo -= extra / 2
                self.y_hi += extra / 2
            else:
                extra = span_y * width / height - span_x
                self.x_lo -= extra / 2
                self.x_hi += extra / 2

    def px(self, x: float) -> float:
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * w

    def py(self, y: float) -> float:
        h = HEIGHT - MARGIN_T - MARGIN_B
        return MARGIN_T + (self.y_hi - y) / (self.y_hi - self.y_lo) * h


def _polyline(frame: Frame, points, color: str, width: float = 1.5, dashed: bool = False, opacity: float = 1.0) -> str:
    coords = " ".join(f"{_f(frame.px(x))},{_f(frame.py(y))}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    op = f' stroke-opacity="{_f(opacity)}"' if opacity < 1.0 else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="{_f(width)}"{dash}{op} points="{coords}"/>'


def _circle(frame: Frame, cx: float, cy: float, r_data: float, color: str, fill: bool, dashed: bool = False) -> str:
    rx = abs(frame.px(cx + r_data) - frame.px(cx))
    fill_attr = f'fill="{color}" fill-opacity="0.25" stroke="{color}"' if fill else f'fill="none" stroke="{color}"'
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<circle cx="{_f(frame.px(cx))}" cy="{_f(frame.py(cy))}" r="{_f(rx)}" {fill_attr}{dash}/>'


def _marker(frame: Frame, x: float, y: float, color: str) -> str:
    return f'<circle cx="{_f(frame.px(x))}" cy="{_f(frame.py(y))}" r="4" fill="{color}"/>'


def _text(x: float, y: float, content: str, size: int = 12, anchor: str = "start", color: str = BLACK) -> str:
    # XML-escaped as xml.sax.saxutils.escape does, without importing xml.sax.
    content = content.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}" fill="{color}">{content}</text>'
    )


def _axes(frame: Frame, x_label: str, y_label: str) -> list[str]:
    parts = []
    left, right = MARGIN_L, WIDTH - MARGIN_R
    top, bottom = MARGIN_T, HEIGHT - MARGIN_B
    parts.append(f'<rect x="{left}" y="{top}" width="{right-left}" height="{bottom-top}" fill="none" stroke="{BLACK}"/>')
    for t in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.px(t)
        if left - 1e-6 <= px <= right + 1e-6:
            parts.append(f'<line x1="{_f(px)}" y1="{bottom}" x2="{_f(px)}" y2="{bottom+5}" stroke="{BLACK}"/>')
            parts.append(_text(px, bottom + 18, f"{t:g}", anchor="middle"))
    for t in _nice_ticks(frame.y_lo, frame.y_hi):
        py = frame.py(t)
        if top - 1e-6 <= py <= bottom + 1e-6:
            parts.append(f'<line x1="{left-5}" y1="{_f(py)}" x2="{left}" y2="{_f(py)}" stroke="{BLACK}"/>')
            parts.append(_text(left - 8, py + 4, f"{t:g}", anchor="end"))
    parts.append(_text((left + right) / 2, HEIGHT - 8, x_label, anchor="middle"))
    parts.append(f'<g transform="translate(14,{(top+bottom)/2}) rotate(-90)">{_text(0, 0, y_label, anchor="middle")}</g>')
    return parts


def _document(title: str, body: list[str], height: int = HEIGHT) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">'
    )
    return "\n".join([head, f'<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>', _text(MARGIN_L, 18, title, 14)] + body + ["</svg>"]) + "\n"


def _tracks(trace: SimTrace):
    """The (x, y) points of the ownship's and the intruder's tracks, final poses included."""
    own = [(s.own.x, s.own.y) for s in trace.steps] + [(trace.own_final.x, trace.own_final.y)]
    intruder = [(s.intruder.x, s.intruder.y) for s in trace.steps] + [(trace.intruder_final.x, trace.intruder_final.y)]
    return own, intruder


def _separation_axes(traces: list[SimTrace], rho: float) -> tuple[Frame, list[str]]:
    """Separation axes up to the largest of rho and every separation, over the
    longest trace's step indices, with the floor rho dashed."""
    hi = max([rho] + [s.separation for t in traces for s in t.steps])
    frame = Frame(0.0, float(max(len(t.steps) for t in traces) - 1), 0.0, hi * 1.05)
    body = _axes(frame, "time [s]", "separation [m]")
    body.append(_polyline(frame, [(frame.x_lo, rho), (frame.x_hi, rho)], RED, 1.5, dashed=True))
    return frame, body


def _bounded_panel(points, lo: float, hi: float, pad: float, y_label: str, guides, color: str) -> list[str]:
    """One control panel of (t, value) points: the axes padded around [lo, hi], gray dashed guides and the values."""
    frame = Frame(0.0, float(points[-1][0]), lo - pad, hi + pad)
    parts = _axes(frame, "time [s]", y_label)
    for guide in guides:
        parts.append(_polyline(frame, [(frame.x_lo, guide), (frame.x_hi, guide)], GRAY, 1.0, dashed=True))
    parts.append(_polyline(frame, points, color, 2.0))
    return parts


def _bounds_of(points_lists) -> tuple[float, float, float, float]:
    xs = [p[0] for pts in points_lists for p in pts]
    ys = [p[1] for pts in points_lists for p in pts]
    pad_x = 0.05 * max(max(xs) - min(xs), 1.0)
    pad_y = 0.05 * max(max(ys) - min(ys), 1.0)
    return min(xs) - pad_x, max(xs) + pad_x, min(ys) - pad_y, max(ys) + pad_y


def plot_trajectories(trace: SimTrace) -> str:
    """Ownship (blue) and intruder (red) tracks, the target disc (green), and
    the separation floor circle at the closest-approach step."""
    own, intr = _tracks(trace)
    spec, target = trace.spec, trace.spec.mpc.target
    m = metrics(trace)
    worst = trace.steps[[s.t for s in trace.steps].index(m["min_separation_time"])]

    x_lo, x_hi, y_lo, y_hi = _bounds_of([own, intr, [(target.x, target.y)]])
    frame = Frame(x_lo, x_hi, y_lo, y_hi, equal_aspect=True)
    body = _axes(frame, "x [m]", "y [m]")
    body.append(_circle(frame, target.x, target.y, spec.target_radius, GREEN, fill=True))
    body.append(_circle(frame, worst.intruder.x, worst.intruder.y, spec.mpc.min_separation, RED, fill=False, dashed=True))
    body.append(_polyline(frame, intr, RED, 2.0))
    body.append(_polyline(frame, own, BLUE, 2.0))
    body.append(_marker(frame, own[0][0], own[0][1], BLUE))
    body.append(_marker(frame, intr[0][0], intr[0][1], RED))
    body.append(_text(WIDTH - 180, 36, "ownship", color=BLUE))
    body.append(_text(WIDTH - 180, 52, "intruder", color=RED))
    body.append(_text(WIDTH - 180, 68, f"min sep {m['min_separation']:.1f} m @ t={m['min_separation_time']}", color=BLACK))
    return _document("trajectories", body)


def plot_separation(trace: SimTrace) -> str:
    """Separation over time with the floor as a dashed line."""
    rho = trace.spec.mpc.min_separation
    frame, body = _separation_axes([trace], rho)
    body.append(_polyline(frame, [(s.t, s.separation) for s in trace.steps], BLUE, 2.0))
    body.append(_text(WIDTH - 220, 36, f"floor rho = {rho:g} m", color=RED))
    return _document("ownship-intruder separation", body)


def plot_controls(trace: SimTrace) -> str:
    """Applied speed and angular rate with their box bounds."""
    ob = trace.spec.mpc.own_bounds
    parts = _bounded_panel([(s.t, s.applied.speed) for s in trace.steps], ob.v_min, ob.v_max,
                           0.1 * (ob.v_max - ob.v_min + 1.0), "speed [m/s]", (ob.v_min, ob.v_max), BLUE)
    parts.append(f'<g transform="translate(0,{HEIGHT})">')
    parts.append(_text(MARGIN_L, 18, "applied angular velocity", 14))
    parts += _bounded_panel([(s.t, s.applied.angular_rate) for s in trace.steps], ob.u_min, ob.u_max,
                            0.15 * (ob.u_max - ob.u_min), "angular rate [rad/s]", (ob.u_min, 0.0, ob.u_max), RED)
    parts.append("</g>")
    return _document("applied linear velocity", parts, 2 * HEIGHT)


def plot_monte_carlo_trajectories(report: MonteCarloReport) -> str:
    """All realizations thin, the nominal run black."""
    traces, nominal = [t for t in report.runs if t.steps], report.nominal
    tracks = [_tracks(t) for t in traces]
    nominal_own, nominal_intruder = _tracks(nominal)
    x_lo, x_hi, y_lo, y_hi = _bounds_of([pts for pair in tracks for pts in pair] + [nominal_own, nominal_intruder])
    frame = Frame(x_lo, x_hi, y_lo, y_hi, equal_aspect=True)
    target = report.spec.mpc.target
    body = _axes(frame, "x [m]", "y [m]")
    body.append(_circle(frame, target.x, target.y, report.spec.target_radius, GREEN, fill=True))
    for own, intruder in tracks:
        body.append(_polyline(frame, intruder, RED, 0.8, opacity=0.5))
        body.append(_polyline(frame, own, BLUE, 0.8, opacity=0.5))
    body.append(_polyline(frame, nominal_intruder, BLACK, 2.0))
    body.append(_polyline(frame, nominal_own, BLACK, 2.0))
    body.append(_text(WIDTH - 220, 36, f"{len(traces)} disturbed runs", color=BLUE))
    body.append(_text(WIDTH - 220, 52, "nominal in black", color=BLACK))
    return _document("Monte-Carlo trajectories", body)


def plot_monte_carlo_separation(report: MonteCarloReport) -> str:
    """Separation curves of every run with the floor dashed; nominal black."""
    traces, nominal = [t for t in report.runs if t.steps], report.nominal
    frame, body = _separation_axes(traces + [nominal], report.spec.mpc.min_separation)
    for t in traces:
        body.append(_polyline(frame, [(s.t, s.separation) for s in t.steps], BLUE, 0.8, opacity=0.5))
    body.append(_polyline(frame, [(s.t, s.separation) for s in nominal.steps], BLACK, 2.0))
    return _document("Monte-Carlo separation", body)
