"""Self-emitted SVG figures: disc hierarchies, sweep curves, shell decays.

Everything is plain string assembly over a fixed viewport, so documents
are byte-stable across runs.  Deep levels are subsampled keeping the
lexicographically first paths, with the notice embedded as an SVG
comment.
"""

from __future__ import annotations

import math

from .hierarchy import DiscHierarchy

VIEW = 1000.0
MARGIN = 40.0


def _num(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _svg(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_num(VIEW)} {_num(VIEW)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_hierarchy_svg(h: DiscHierarchy, max_discs: int = 10 ** 5) -> str:
    """Nested circles with the placement-direction rays of each level."""
    r0 = h.radius(0)
    scale = (VIEW - 2 * MARGIN) / (2 * r0)

    def sx(x):
        return VIEW / 2 + x * scale

    def sy(y):
        return VIEW / 2 - y * scale

    body = [f'<circle cx="{_num(VIEW / 2)}" cy="{_num(VIEW / 2)}" '
            f'r="{_num(r0 * scale)}" fill="none" stroke="#333" stroke-width="1"/>']
    drawn = 1
    for level in range(1, h.depth + 1):
        count = h.disc_count(level)
        budget = max_discs - drawn
        if budget <= 0:
            body.append(f"<!-- level {level} omitted: disc budget exhausted -->")
            continue
        if count > budget or count > h.disc_cap:
            take = min(budget, h.disc_cap, 4096)
            centers = h.first_paths(level, take)
            body.append(f"<!-- level {level} subsampled: first {take} of "
                        f"{count} paths -->")
        else:
            centers = h.level_centers(level)
        px, py = sx(centers[:, 0]).tolist(), sy(centers[:, 1]).tolist()
        tail = (f'r="{_num(max(h.radius(level) * scale, 0.05))}" fill="none" '
                f'stroke="#06c" stroke-width="0.5"/>')
        body.extend(f'<circle cx="{_num(x)}" cy="{_num(y)}" {tail}'
                    for x, y in zip(px, py))
        drawn += len(centers)
    for level in range(1, h.depth + 1):
        ex, ey = h.direction(level)
        body.append(f'<line x1="{_num(sx(-r0 * ex))}" y1="{_num(sy(-r0 * ey))}" '
                    f'x2="{_num(sx(r0 * ex))}" y2="{_num(sy(r0 * ey))}" '
                    f'stroke="#c60" stroke-width="0.4" stroke-dasharray="4 4"/>')
    return _svg(body)


def _axes() -> list[str]:
    x0, y0 = MARGIN, VIEW - MARGIN
    return [
        f'<line x1="{_num(x0)}" y1="{_num(y0)}" x2="{_num(VIEW - MARGIN)}" '
        f'y2="{_num(y0)}" stroke="#000" stroke-width="1"/>',
        f'<line x1="{_num(x0)}" y1="{_num(y0)}" x2="{_num(x0)}" '
        f'y2="{_num(MARGIN)}" stroke="#000" stroke-width="1"/>',
    ]


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{_num(x)},{_num(y)}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'


def _scaled(values, lo, hi, out_lo, out_hi):
    if hi <= lo:
        return [0.5 * (out_lo + out_hi) for _ in values]
    return [out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo) for v in values]


def render_sweep_svg(rows) -> str:
    """Cover cost and budget against angle; empty tables draw axes only.

    ``rows`` are sweep rows (objects or dicts) with theta, cost, bound.
    """
    body = _axes()
    pts = []
    for r in rows:
        theta = r["theta"] if isinstance(r, dict) else r.theta
        cost = r["cost"] if isinstance(r, dict) else r.cost
        bound = r["bound"] if isinstance(r, dict) else r.bound
        if cost is not None:
            pts.append((theta, cost, bound))
    if pts:
        pts.sort()
        thetas = [p[0] for p in pts]
        vals = [p[1] for p in pts] + [p[2] for p in pts]
        logs = [math.log10(max(v, 1e-300)) for v in vals]
        lo, hi = min(logs), max(logs)
        xs = _scaled(thetas, 0.0, math.pi, MARGIN, VIEW - MARGIN)
        y_cost = _scaled([math.log10(max(p[1], 1e-300)) for p in pts],
                         lo, hi, VIEW - MARGIN, MARGIN)
        y_bound = _scaled([math.log10(max(p[2], 1e-300)) for p in pts],
                          lo, hi, VIEW - MARGIN, MARGIN)
        body.append(_polyline(xs, y_cost, "#06c"))
        body.append(_polyline(xs, y_bound, "#c30"))
    return _svg(body)


def render_shells_svg(shell_sums) -> str:
    """log-log polyline of per-shell contributions (nonpositive dropped)."""
    body = _axes()
    pts = [(i, s) for i, s in enumerate(shell_sums)
           if s is not None and s > 0 and math.isfinite(s)]
    if pts:
        xs_raw = [math.log10(i + 1) for i, _ in pts]
        ys_raw = [math.log10(s) for _, s in pts]
        xs = _scaled(xs_raw, min(xs_raw), max(xs_raw), MARGIN, VIEW - MARGIN)
        ys = _scaled(ys_raw, min(ys_raw), max(ys_raw), VIEW - MARGIN, MARGIN)
        body.append(_polyline(xs, ys, "#060"))
    return _svg(body)
