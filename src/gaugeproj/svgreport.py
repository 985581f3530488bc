"""Self-emitted SVG figures: disc hierarchies, sweep curves, shell decays.

Everything is plain string assembly over a fixed viewport, so documents
are byte-stable across runs.  The hierarchy figure draws one panel per
level in its parent's local frame, so its size grows with the sum of the
branching counts, not with their product, and no level is left out.
"""

from __future__ import annotations

import math

from .hierarchy import DiscHierarchy, HierarchyReport

VIEW = 1000.0
MARGIN = 40.0


def _num(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _svg(body: list[str], height: float = VIEW) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_num(VIEW)} {_num(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_hierarchy_svg(h: DiscHierarchy, report: HierarchyReport) -> str:
    """One panel per level k = 1..K, drawn in the level-(k-1) parent's frame.

    Each panel (``<g id="level-k">``) holds the parent disc scaled to the
    panel, its N_k children on the diameter at direction d_k, the dashed
    diameter itself and, below the deepest level, the placement arc
    [d_k, d_k + theta_{k+1}] just outside the parent.  The geometry is
    :meth:`DiscHierarchy.parent_frame`, rho = r_k / r_{k-1} and the
    children's offsets in units of r_{k-1}, so the figure is right at any
    depth.  The label gives N_k, rho, the margin of the Eq33 row at level
    k of ``report``, the caller's :func:`validate_hierarchy` of h, and the
    arc.
    """
    eq33 = {r.level: r.margin for r in report.by_check("Eq33")}
    cols = math.ceil(math.sqrt(h.depth))
    rows = math.ceil(h.depth / cols)
    cell = (VIEW - 2 * MARGIN) / cols
    big = 0.36 * cell  # parent radius in the panel
    tx, ty = _num(-0.5 * cell + 4), -0.45 * cell  # label origin
    body = ['<g font-family="monospace" font-size="9">']
    for k in range(1, h.depth + 1):
        row, col = divmod(k - 1, cols)
        rho, local = h.parent_frame(k)
        arc = f", arc {h.theta[k]:.3g} rad" if k < h.depth else ""
        cx, cy = MARGIN + (col + 0.5) * cell, MARGIN + (row + 0.55) * cell
        body += [
            f'<g id="level-{k}" transform="translate({_num(cx)} {_num(cy)})">',
            f'<text x="{tx}" y="{_num(ty)}">level {k}: N={len(local)}, '
            f'r_k/r_(k-1)={rho:.3g}</text>',
            f'<text x="{tx}" y="{_num(ty + 11)}">Eq33 margin {eq33[k]:.3g}{arc}</text>',
            f'<g transform="rotate({_num(-math.degrees(h.d[k - 1]))})" fill="none">',
            f'<circle r="{_num(big)}" stroke="#333" stroke-width="1"/>',
            f'<line x1="{_num(-big)}" x2="{_num(big)}" stroke="#c60" '
            f'stroke-width="0.4" stroke-dasharray="4 4"/>',
        ]
        if k < h.depth:
            out, end = 1.08 * big, h.theta[k]
            body.append(f'<path d="M {_num(out)} 0 A {_num(out)} {_num(out)} 0 0 0 '
                        f'{_num(out * math.cos(end))} {_num(-out * math.sin(end))}" '
                        f'stroke="#c30" stroke-width="2"/>')
        tail = f'r="{_num(rho * big)}"/>'
        body.append('<g stroke="#06c" stroke-width="0.5">')
        body.extend(f'<circle cx="{_num(x)}" {tail}' for x in (local * big).tolist())
        body += ["</g>", "</g>", "</g>"]
    body.append("</g>")
    return _svg(body, 2 * MARGIN + rows * cell)


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


def _markers(xs, ys, color: str) -> list[str]:
    return [f'<g fill="{color}">',
            *(f'<circle cx="{_num(x)}" cy="{_num(y)}" r="3"/>' for x, y in zip(xs, ys)),
            "</g>"]


def render_sweep_svg(rows) -> str:
    """Cover cost and budget against angle, each a polyline with a marker
    at every row; empty tables draw axes only.

    ``rows`` are ``SweepTable.to_dicts()`` rows with theta, cost, bound.
    """
    body = _axes()
    pts = sorted((r["theta"], r["cost"], r["bound"]) for r in rows)
    if pts:
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
        body.extend(_markers(xs, y_cost, "#06c"))
        body.extend(_markers(xs, y_bound, "#c30"))
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
