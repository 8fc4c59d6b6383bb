"""Render the run ledger: static HTML dashboard + Prometheus textfile.

``render_dashboard`` turns a :class:`repro.obs.ledger.Ledger` into **one
self-contained HTML file**: all CSS and JS inline, sparklines and the
coverage heatmap emitted as inline SVG/colored cells, zero external
fetches — the file renders from a CI artifact tab, an air-gapped
machine, or ``file://``.  Sections:

* stat tiles — run counts, latest verdicts;
* per-app simulation-time trend sparklines, one per backend, each
  pinned to that pair's most recent *size* (a trend that silently mixed
  a quick-smoke point into a full-size series would be a lie);
* a coverage heatmap (scopes × runs, single-hue sequential ramp);
* the backend speedup table of the latest bench run;
* fuzz campaign history;
* fault-injection campaigns: verdict tallies per campaign plus the
  fault-coverage table (fault kind × verdict) of the latest one;
* divergence triage: first divergent cycle/net and top suspect per
  triaged failure, plus a kind × top-suspect-net tally table;
* serve sessions: throughput, dedup rate and p99 job latency per
  ``repro serve`` session, with cross-session trend sparklines (rows
  recorded before the latency histograms existed degrade to ``—``).

``export_prometheus`` writes the same latest-run facts in the
Prometheus *textfile collector* format, so an external scraper can
alert on the numbers the dashboard draws.
"""

from __future__ import annotations

import html
import json
import time
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from .ledger import CaseRow, Ledger, RunRow

__all__ = ["render_dashboard", "export_prometheus", "export_json"]

#: sequential blue ramp (light→dark) for the coverage heatmap
_SEQ_RAMP = ("#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5", "#256abf",
             "#184f95", "#0d366b")

#: fixed categorical hue per backend (identity follows the entity —
#: a backend keeps its color no matter which subset is on screen)
_BACKEND_HUES = {
    "event": "#2a78d6",      # blue
    "compiled": "#eb6834",   # orange
    "oblivious": "#eda100",  # yellow
    "traced": "#1baf7a",     # aqua
    "batched": "#c2418f",    # magenta: rows of the retired batched kernel
}
_FALLBACK_HUE = "#4a3aa7"

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --panel: #f4f3f1; --line: #dddcd8;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #8a8984;
  --good: #008300; --bad: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --panel: #232322; --line: #3a3a38;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #8a8984;
    --good: #35b635; --bad: #e66767;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--surface);
       color: var(--ink);
       font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); font-size: 12.5px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 16px; }
.tile { background: var(--panel); border: 1px solid var(--line);
        border-radius: 8px; padding: 10px 14px; min-width: 130px; }
.tile .v { font-size: 22px; font-weight: 600; font-variant-numeric:
           tabular-nums; }
.tile .k { color: var(--ink-2); font-size: 11.5px; text-transform:
           uppercase; letter-spacing: .04em; }
table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
th, td { padding: 4px 10px; text-align: right; border-bottom:
         1px solid var(--line); font-size: 13px; }
th { color: var(--ink-2); font-weight: 500; }
th:first-child, td:first-child { text-align: left; }
.grid { display: grid; gap: 10px 18px;
        grid-template-columns: repeat(auto-fill, minmax(190px, 1fr)); }
.spark { background: var(--panel); border: 1px solid var(--line);
         border-radius: 8px; padding: 8px 10px 6px; }
.spark .name { font-size: 12px; color: var(--ink-2); display: flex;
               justify-content: space-between; gap: 8px; }
.spark .name b { color: var(--ink); font-weight: 600; }
.legend { display: flex; gap: 14px; margin: 6px 0 10px; font-size: 12px;
          color: var(--ink-2); flex-wrap: wrap; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px;
              vertical-align: -1px; }
.hm td { padding: 0; border: 2px solid var(--surface); }
.hm .cell { width: 40px; height: 24px; display: flex; align-items:
            center; justify-content: center; font-size: 11px; }
.hm th { font-size: 11.5px; }
.pass { color: var(--good); font-weight: 600; }
.fail { color: var(--bad); font-weight: 600; }
.mut { color: var(--ink-3); }
button.toggle { background: var(--panel); color: var(--ink);
                border: 1px solid var(--line); border-radius: 6px;
                padding: 4px 12px; font: inherit; font-size: 12.5px;
                cursor: pointer; }
#raw-runs[hidden] { display: none; }
footer { margin-top: 32px; color: var(--ink-3); font-size: 11.5px; }
"""

_JS = """
document.addEventListener('click', function (event) {
  var button = event.target.closest('button[data-toggle]');
  if (!button) return;
  var target = document.getElementById(button.dataset.toggle);
  if (!target) return;
  target.hidden = !target.hidden;
  button.textContent = (target.hidden ? 'show ' : 'hide ') +
                       button.dataset.label;
});
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "—"
    if seconds < 0.0005:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _fmt_when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(timestamp))


# ----------------------------------------------------------------------
# Sparklines (inline SVG, native <title> tooltips — no network, no JS)
# ----------------------------------------------------------------------
def _sparkline(points: Sequence[Tuple[int, float]], hue: str,
               width: int = 168, height: int = 34,
               fmt: Callable[[float], str] = _fmt_seconds) -> str:
    """Polyline over (run_id, value) points, newest rightmost.

    ``fmt`` renders tooltip values; the default reads them as seconds.
    """
    if not points:
        return '<span class="mut">no data</span>'
    values = [value for _, value in points]
    low, high = min(values), max(values)
    spread = (high - low) or (high or 1.0)
    pad = 4
    inner_w, inner_h = width - 2 * pad, height - 2 * pad
    coords = []
    for index, (_, value) in enumerate(points):
        x = pad + (inner_w * index / max(len(points) - 1, 1))
        y = pad + inner_h * (1.0 - (value - low) / spread)
        coords.append((x, y))
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    last_x, last_y = coords[-1]
    dots = []
    for (x, y), (run_id, value) in zip(coords, points):
        dots.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="transparent">'
            f'<title>run #{run_id}: {fmt(value)}</title></circle>')
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="trend, latest {fmt(values[-1])}">'
        f'<polyline points="{path}" fill="none" stroke="{hue}" '
        f'stroke-width="2" stroke-linejoin="round" '
        f'stroke-linecap="round"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="3" '
        f'fill="{hue}"/>' + "".join(dots) + "</svg>")


def _heat_cell(ratio: Optional[float]) -> str:
    if ratio is None:
        return '<td><div class="cell mut">·</div></td>'
    step = min(int(ratio * len(_SEQ_RAMP)), len(_SEQ_RAMP) - 1)
    fill = _SEQ_RAMP[step]
    ink = "#0b0b0b" if step < 3 else "#ffffff"
    label = f"{100 * ratio:.0f}"
    return (f'<td><div class="cell" style="background:{fill};'
            f'color:{ink}" title="{100 * ratio:.1f}% state coverage">'
            f'{label}</div></td>')


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------
def _tiles(ledger: Ledger) -> str:
    counts = ledger.counts()
    total = sum(counts.values())
    tiles = [f'<div class="tile"><div class="v">{total}</div>'
             f'<div class="k">runs recorded</div></div>']
    for kind in ("suite", "bench", "fuzz", "inject", "flow", "verify"):
        if counts.get(kind):
            tiles.append(
                f'<div class="tile"><div class="v">{counts[kind]}</div>'
                f'<div class="k">{_esc(kind)} runs</div></div>')
    latest = ledger.latest_run()
    if latest is not None:
        verdict = ('<span class="pass">PASS</span>' if latest.passed
                   else '<span class="fail">FAIL</span>')
        tiles.append(
            f'<div class="tile"><div class="v">{verdict}</div>'
            f'<div class="k">latest: {_esc(latest.kind)} '
            f'#{latest.run_id}</div></div>')
        coverage = ledger.coverage_rows(latest.run_id)
        aggregate = [row for row in coverage if row.scope == "aggregate"]
        if aggregate and aggregate[0].state_coverage is not None:
            tiles.append(
                f'<div class="tile"><div class="v">'
                f'{100 * aggregate[0].state_coverage:.1f}%</div>'
                f'<div class="k">fsm state coverage</div></div>')
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _legend(backends: Sequence[str]) -> str:
    entries = []
    for backend in backends:
        hue = _BACKEND_HUES.get(backend, _FALLBACK_HUE)
        entries.append(f'<span><span class="sw" '
                       f'style="background:{hue}"></span>'
                       f'{_esc(backend)}</span>')
    return f'<div class="legend">{"".join(entries)}</div>'


def _trend_section(ledger: Ledger, history: int) -> str:
    apps = ledger.apps()
    backends = ledger.backends()
    if not apps:
        return '<p class="mut">no per-app timings recorded yet</p>'
    cards = []
    for app in apps:
        for backend in backends:
            size = ledger.latest_size(app, backend)
            if size is None:
                continue
            # a batch row times N stimulus sets: it has a section of
            # its own, below
            rows = [row for row in
                    ledger.case_history(app, backend, size, limit=history)
                    if row.sim_seconds is not None and not row.cached
                    and row.stimuli == 1]
            if not rows:
                continue
            points = [(row.run_id, row.sim_seconds) for row in rows]
            hue = _BACKEND_HUES.get(backend, _FALLBACK_HUE)
            latest = points[-1][1]
            cards.append(
                f'<div class="spark"><div class="name">'
                f'<span><b>{_esc(app)}</b> · {_esc(backend)}</span>'
                f'<span>{_fmt_seconds(latest)}</span></div>'
                f'{_sparkline(points, hue)}</div>')
    return _legend(backends) + f'<div class="grid">{"".join(cards)}</div>'


def _amortized_section(ledger: Ledger, history: int) -> str:
    """Per-stimulus amortized cost of batch runs
    (:meth:`~repro.obs.ledger.Ledger.batch_rows`): ``lane_seconds``
    sparklines, one card per app × backend at the size it was last
    batched at."""
    series: Dict[Tuple[str, str], List[CaseRow]] = {}
    for row in ledger.batch_rows():
        if row.lane_seconds is not None and not row.cached:
            series.setdefault((row.app, row.backend), []).append(row)
    cards = []
    for (app, backend), rows in sorted(series.items()):
        rows = [row for row in rows if row.size == rows[-1].size]
        rows = rows[-history:]
        points = [(row.run_id, row.lane_seconds) for row in rows]
        latest = rows[-1]
        cards.append(
            f'<div class="spark"><div class="name">'
            f'<span><b>{_esc(app)}</b> · {_esc(backend)} · batch '
            f'{latest.batch_size}</span>'
            f'<span>{_fmt_seconds(latest.lane_seconds)}/stim</span></div>'
            f'{_sparkline(points, _BACKEND_HUES.get(backend, _FALLBACK_HUE))}'
            f'</div>')
    if not cards:
        return ('<p class="mut">no batched runs recorded yet '
                '(<code>repro suite --batch N</code>)</p>')
    return f'<div class="grid">{"".join(cards)}</div>'


def _heatmap_section(ledger: Ledger, history: int) -> str:
    scopes = [scope for scope in ledger.coverage_scopes()
              if scope != "aggregate"]
    if not scopes:
        return '<p class="mut">no coverage recorded yet</p>'
    run_ids: List[int] = []
    matrix: Dict[str, Dict[int, float]] = {scope: {} for scope in scopes}
    for scope in scopes:
        for row in ledger.coverage_history(scope, limit=history):
            if row.state_coverage is None:
                continue
            matrix[scope][row.run_id] = row.state_coverage
            if row.run_id not in run_ids:
                run_ids.append(row.run_id)
    run_ids.sort()
    run_ids = run_ids[-history:]
    header = "".join(f'<th title="run #{run_id}">#{run_id}</th>'
                     for run_id in run_ids)
    body = []
    for scope in scopes:
        cells = "".join(_heat_cell(matrix[scope].get(run_id))
                        for run_id in run_ids)
        body.append(f"<tr><td>{_esc(scope)}</td>{cells}</tr>")
    ramp = "".join(f'<span class="sw" style="background:{hex_}"></span>'
                   for hex_ in _SEQ_RAMP)
    return (f'<table class="hm"><thead><tr><th>scope</th>{header}'
            f'</tr></thead><tbody>{"".join(body)}</tbody></table>'
            f'<div class="legend"><span>FSM state coverage: '
            f'0% {ramp} 100%</span></div>')


def _speedup_section(ledger: Ledger) -> str:
    run = ledger.latest_run("bench") or ledger.latest_run("suite")
    if run is None:
        return '<p class="mut">no bench or suite runs recorded yet</p>'
    per_app: Dict[str, Dict[str, CaseRow]] = {}
    for row in ledger.case_rows(run.run_id):
        if row.sim_seconds is not None:
            per_app.setdefault(row.app, {})[row.backend] = row
    backends = sorted({backend for rows in per_app.values()
                       for backend in rows})
    if not per_app:
        return '<p class="mut">the latest run recorded no timings</p>'
    reference = "event" if "event" in backends else backends[0]
    header = "".join(f"<th>{_esc(name)}</th>" for name in backends)
    speed_cols = [name for name in backends if name != reference]
    header += "".join(f"<th>{_esc(name)} ×</th>" for name in speed_cols)
    rows_html = []
    for app in sorted(per_app):
        rows = per_app[app]
        cells = "".join(
            f"<td>{_fmt_seconds(rows[name].sim_seconds)}</td>"
            if name in rows else '<td class="mut">—</td>'
            for name in backends)
        for name in speed_cols:
            if name in rows and reference in rows \
                    and rows[name].sim_seconds:
                ratio = (rows[reference].sim_seconds
                         / rows[name].sim_seconds)
                cells += f"<td>{ratio:.1f}×</td>"
            else:
                cells += '<td class="mut">—</td>'
        rows_html.append(f"<tr><td>{_esc(app)}</td>{cells}</tr>")
    caption = (f'run #{run.run_id} ({_esc(run.kind)}, '
               f'{_fmt_when(run.started_at)}); × is speedup vs '
               f'{_esc(reference)}')
    return (f'<p class="sub">{caption}</p>'
            f'<table><thead><tr><th>app</th>{header}</tr></thead>'
            f'<tbody>{"".join(rows_html)}</tbody></table>')


def _fuzz_section(ledger: Ledger, history: int) -> str:
    runs = ledger.runs(kind="fuzz", limit=history)
    if not runs:
        return '<p class="mut">no fuzz campaigns recorded yet</p>'
    kinds: List[str] = []
    tallies: Dict[int, Dict[str, int]] = {}
    for run in runs:
        tallies[run.run_id] = {row.kind: row.count
                               for row in ledger.fuzz_rows(run.run_id)}
        for kind in tallies[run.run_id]:
            if kind not in kinds:
                kinds.append(kind)
    kinds.sort(key=lambda kind: (kind != "iterations", kind != "pass",
                                 kind))
    header = "".join(f"<th>{_esc(kind)}</th>" for kind in kinds)
    body = []
    for run in runs:
        verdict = ('<span class="pass">PASS</span>' if run.passed
                   else '<span class="fail">FAIL</span>')
        cells = "".join(
            f"<td>{tallies[run.run_id].get(kind, 0)}</td>"
            for kind in kinds)
        body.append(
            f"<tr><td>#{run.run_id} "
            f'<span class="mut">{_fmt_when(run.started_at)}</span></td>'
            f"<td>{verdict}</td><td>{_fmt_seconds(run.wall_seconds)}</td>"
            f"{cells}</tr>")
    return (f'<table><thead><tr><th>campaign</th><th>verdict</th>'
            f'<th>wall</th>{header}</tr></thead>'
            f'<tbody>{"".join(body)}</tbody></table>')


#: verdict display order and hues for fault-injection campaigns
_VERDICTS = ("masked", "sdc", "hang", "crash")


def _inject_section(ledger: Ledger, history: int) -> str:
    runs = ledger.runs(kind="inject", limit=history)
    if not runs:
        return ('<p class="mut">no fault-injection campaigns recorded '
                'yet (<code>repro campaign</code>)</p>')
    body = []
    for run in runs:
        verdicts = run.extra.get("verdicts", {})
        if not verdicts:  # recorded by an older CLI: tally the rows
            verdicts = {}
            for row in ledger.fault_rows(run.run_id):
                if row.kind != "none":
                    verdicts[row.verdict] = \
                        verdicts.get(row.verdict, 0) + 1
        cells = "".join(f"<td>{verdicts.get(verdict, 0)}</td>"
                        for verdict in _VERDICTS)
        body.append(
            f"<tr><td>#{run.run_id} "
            f'<span class="mut">{_fmt_when(run.started_at)}</span></td>'
            f"<td>{_esc(run.extra.get('app', '—'))}</td>"
            f"<td>{_esc(run.backend or '—')}</td>"
            f"<td>{run.extra.get('faults', 0)}</td>{cells}"
            f"<td>{_fmt_seconds(run.wall_seconds)}</td></tr>")
    header = "".join(f"<th>{_esc(verdict)}</th>" for verdict in _VERDICTS)
    table = (f'<table><thead><tr><th>campaign</th><th>app</th>'
             f'<th>backend</th><th>faults</th>{header}<th>wall</th>'
             f'</tr></thead><tbody>{"".join(body)}</tbody></table>')

    # fault-coverage table (kind × verdict) of the latest campaign
    latest = runs[0]
    coverage: Dict[str, Dict[str, int]] = {}
    for row in ledger.fault_rows(latest.run_id):
        if row.kind == "none":
            continue
        cell = coverage.setdefault(row.kind, {})
        cell[row.verdict] = cell.get(row.verdict, 0) + 1
    if coverage:
        body = []
        for kind in sorted(coverage):
            cells = "".join(f"<td>{coverage[kind].get(verdict, 0)}</td>"
                            for verdict in _VERDICTS)
            total = sum(coverage[kind].values())
            body.append(f"<tr><td>{_esc(kind)}</td>{cells}"
                        f"<td>{total}</td></tr>")
        table += (
            f'<p class="sub">fault coverage of campaign '
            f'#{latest.run_id} '
            f'({_esc(latest.extra.get("app", "?"))}, budget '
            f'{latest.extra.get("cycle_budget", "?")} cycles)</p>'
            f'<table><thead><tr><th>fault kind</th>{header}'
            f'<th>total</th></tr></thead>'
            f'<tbody>{"".join(body)}</tbody></table>')
    else:
        table += ('<p class="mut">latest campaign recorded no '
                  'classified faults — no fault-coverage table</p>')
    return table


def _triage_section(ledger: Ledger, history: int) -> str:
    runs = ledger.runs(kind="triage", limit=history)
    if not runs:
        return ('<p class="mut">no triage records yet '
                '(<code>repro triage</code>, or automatic on fuzz '
                'mismatches and sampled campaign sdc verdicts)</p>')
    body = []
    # kind × suspect-net tally over the recent triage records
    by_kind_net: Dict[str, Dict[str, int]] = {}
    for run in runs:
        extra = run.extra
        kind = str(extra.get("kind", "?"))
        suspect = extra.get("top_suspect") or "—"
        cell = by_kind_net.setdefault(kind, {})
        cell[str(suspect)] = cell.get(str(suspect), 0) + 1
        cycle = extra.get("cycle")
        body.append(
            f"<tr><td>#{run.run_id} "
            f'<span class="mut">{_fmt_when(run.started_at)}</span></td>'
            f"<td>{_esc(kind)}</td>"
            f"<td>{_esc(extra.get('app', '—'))}</td>"
            f"<td>{_esc(extra.get('backend_ref', '—'))} vs "
            f"{_esc(extra.get('backend_sub', '—'))}</td>"
            f"<td>{_esc(extra.get('mode', '—'))}</td>"
            f"<td>{cycle if cycle is not None else '—'}</td>"
            f"<td>{_esc(extra.get('net') or '—')}</td>"
            f"<td>{_esc(suspect)}</td></tr>")
    table = ('<table><thead><tr><th>triage</th><th>kind</th><th>app</th>'
             '<th>pair</th><th>mode</th><th>first cycle</th>'
             '<th>divergent net</th><th>top suspect</th></tr></thead>'
             f'<tbody>{"".join(body)}</tbody></table>')
    nets: List[str] = []
    for cell in by_kind_net.values():
        for net in cell:
            if net not in nets:
                nets.append(net)
    nets.sort()
    if nets:
        header = "".join(f"<th>{_esc(net)}</th>" for net in nets)
        rows = []
        for kind in sorted(by_kind_net):
            cells = "".join(
                f"<td>{by_kind_net[kind].get(net, 0) or ''}</td>"
                for net in nets)
            rows.append(f"<tr><td>{_esc(kind)}</td>{cells}</tr>")
        table += (
            '<p class="sub">triage kind × top-suspect net (recent '
            'records) — recurring suspects point at systematic '
            'weak spots</p>'
            f'<table><thead><tr><th>kind</th>{header}</tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')
    return table


def _serve_section(ledger: Ledger, history: int) -> str:
    runs = ledger.runs(kind="serve", limit=history)
    if not runs:
        return ('<p class="mut">no serve sessions recorded yet '
                '(<code>repro serve --ledger</code>)</p>')
    from .metrics import Histogram

    def quantile(run: RunRow, q: float) -> Optional[float]:
        payload = run.extra.get("histograms")
        if not isinstance(payload, Mapping) \
                or "job_latency_seconds" not in payload:
            return None  # recorded before the latency histograms existed
        try:
            return Histogram.from_dict(
                payload["job_latency_seconds"]).quantile(q)
        except (TypeError, ValueError, KeyError):
            return None

    body = []
    series: Dict[str, List[Tuple[int, float]]] = {
        "throughput": [], "dedup": [], "p99": []}
    for run in runs:
        extra = run.extra
        submitted = int(extra.get("submitted", 0) or 0)
        wall = run.wall_seconds or extra.get("wall_seconds") or 0.0
        deduped = (int(extra.get("memo_hits", 0) or 0)
                   + int(extra.get("artifact_hits", 0) or 0)
                   + int(extra.get("coalesced", 0) or 0))
        throughput = submitted / wall if wall else None
        dedup = deduped / submitted if submitted else None
        p50 = quantile(run, 0.50)
        p99 = quantile(run, 0.99)
        if throughput is not None:
            series["throughput"].append((run.run_id, throughput))
        if dedup is not None:
            series["dedup"].append((run.run_id, dedup))
        if p99 is not None:
            series["p99"].append((run.run_id, p99))
        throughput_cell = (f"{throughput:.1f}/s"
                           if throughput is not None else "—")
        dedup_cell = f"{100 * dedup:.0f}%" if dedup is not None else "—"
        body.append(
            f"<tr><td>#{run.run_id} "
            f'<span class="mut">{_fmt_when(run.started_at)}</span></td>'
            f"<td>{submitted}</td>"
            f"<td>{int(extra.get('executed', 0) or 0)}</td>"
            f"<td>{deduped}</td>"
            f"<td>{int(extra.get('failed', 0) or 0)}</td>"
            f"<td>{throughput_cell}</td><td>{dedup_cell}</td>"
            f"<td>{_fmt_seconds(p50) if p50 is not None else '—'}</td>"
            f"<td>{_fmt_seconds(p99) if p99 is not None else '—'}</td>"
            f"<td>{_fmt_seconds(run.wall_seconds)}</td></tr>")
    table = ('<table><thead><tr><th>session</th><th>jobs</th>'
             '<th>executed</th><th>dedup-served</th><th>failed</th>'
             '<th>throughput</th><th>dedup rate</th><th>p50</th>'
             '<th>p99</th><th>wall</th></tr></thead>'
             f'<tbody>{"".join(body)}</tbody></table>')
    sparks = []
    for key, label, hue, fmt in (
            ("throughput", "throughput", "#3987e5",
             lambda value: f"{value:.1f} jobs/s"),
            ("dedup", "dedup rate", "#256abf",
             lambda value: f"{100 * value:.0f}%"),
            ("p99", "p99 job latency", "#184f95", _fmt_seconds)):
        points = list(reversed(series[key]))  # oldest leftmost
        sparks.append(
            f'<div class="tile"><div class="v">'
            f'{_sparkline(points, hue, fmt=fmt)}</div>'
            f'<div class="k">{_esc(label)}</div></div>')
    return f'<div class="tiles">{"".join(sparks)}</div>{table}'


def _runs_table(ledger: Ledger, history: int) -> str:
    rows = []
    for run in ledger.runs(limit=history):
        verdict = ('<span class="pass">PASS</span>' if run.passed
                   else '<span class="fail">FAIL</span>')
        rows.append(
            f"<tr><td>#{run.run_id}</td><td>{_esc(run.kind)}</td>"
            f"<td>{verdict}</td><td>{_fmt_when(run.started_at)}</td>"
            f"<td>{_fmt_seconds(run.wall_seconds)}</td>"
            f"<td>{_esc(run.backend or '—')}</td>"
            f"<td>{_esc(run.jobs or '—')}</td>"
            f"<td>{_esc(run.git_rev or '—')}</td>"
            f"<td>{_esc(run.hostname or '—')}</td></tr>")
    return (
        f'<button class="toggle" data-toggle="raw-runs" '
        f'data-label="run table">show run table</button>'
        f'<div id="raw-runs" hidden><table><thead><tr><th>run</th>'
        f'<th>kind</th><th>verdict</th><th>when</th><th>wall</th>'
        f'<th>backend</th><th>jobs</th><th>git</th><th>host</th>'
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table></div>')


def render_dashboard(ledger: Ledger, *, history: int = 30,
                     title: str = "repro run ledger") -> str:
    """One self-contained HTML document over the whole ledger."""
    generated = _fmt_when(time.time())
    latest = ledger.latest_run()
    provenance = ""
    if latest is not None and latest.git_rev:
        provenance = f" · latest git {_esc(latest.git_rev)}"
    return f"""<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<div class="sub">{_esc(ledger.path)} · generated {generated}{provenance}
 · self-contained, no external resources</div>
{_tiles(ledger)}
<h2>Simulation-time trends <span class="sub">(per app × backend, at its
latest size; hover points for values)</span></h2>
{_trend_section(ledger, history)}
<h2>Amortized per-stimulus cost <span class="sub">(batched runs:
simulation seconds ÷ batch size)</span></h2>
{_amortized_section(ledger, history)}
<h2>Coverage heatmap <span class="sub">(FSM state coverage per scope,
per run)</span></h2>
{_heatmap_section(ledger, history)}
<h2>Backend speedups</h2>
{_speedup_section(ledger)}
<h2>Fuzz campaigns</h2>
{_fuzz_section(ledger, history)}
<h2>Fault-injection campaigns <span class="sub">(verdicts per campaign;
fault coverage of the latest)</span></h2>
{_inject_section(ledger, history)}
<h2>Divergence triage <span class="sub">(first divergent cycle/net and
top suspect per triaged failure)</span></h2>
{_triage_section(ledger, history)}
<h2>Serve sessions <span class="sub">(throughput, dedup rate and job
latency per <code>repro serve</code> session)</span></h2>
{_serve_section(ledger, history)}
<h2>All runs</h2>
{_runs_table(ledger, history)}
<footer>generated by <code>python -m repro obs dashboard</code> —
the regression sentinel over the same ledger is
<code>python -m repro obs compare</code></footer>
<script>{_JS}</script>
</body>
</html>
"""


# ----------------------------------------------------------------------
# Prometheus textfile exporter
# ----------------------------------------------------------------------
def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
                .replace("\n", r"\n")


def _prom_line(name: str, labels: Mapping[str, Any],
               value: float) -> str:
    rendered = ",".join(f'{key}="{_prom_escape(str(label))}"'
                        for key, label in labels.items())
    body = f"{{{rendered}}}" if rendered else ""
    return f"{name}{body} {value:g}"


def export_prometheus(ledger: Ledger) -> str:
    """The latest-run facts in Prometheus textfile-collector format."""
    lines: List[str] = []

    def metric(name: str, kind: str, help_text: str,
               samples: List[str]) -> None:
        if samples:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(samples)

    counts = ledger.counts()
    metric("repro_ledger_runs_total", "gauge",
           "Runs recorded in the ledger, by kind.",
           [_prom_line("repro_ledger_runs_total", {"kind": kind}, count)
            for kind, count in counts.items()])

    per_kind = [ledger.latest_run(kind) for kind in counts]
    metric("repro_run_passed", "gauge",
           "1 if the latest run of this kind passed.",
           [_prom_line("repro_run_passed", {"kind": run.kind},
                       1 if run.passed else 0)
            for run in per_kind if run is not None])
    metric("repro_run_wall_seconds", "gauge",
           "Wall-clock seconds of the latest run of this kind.",
           [_prom_line("repro_run_wall_seconds", {"kind": run.kind},
                       run.wall_seconds)
            for run in per_kind if run is not None])

    case_samples: List[str] = []
    cycle_samples: List[str] = []
    lane_samples: List[str] = []
    seen: set = set()
    for run in ledger.runs():
        for row in ledger.case_rows(run.run_id):
            key = (row.app, row.backend)
            if key in seen or row.sim_seconds is None or row.cached:
                continue
            seen.add(key)
            labels = {"app": row.app, "backend": row.backend}
            case_samples.append(_prom_line(
                "repro_case_sim_seconds", labels, row.sim_seconds))
            if row.cycles is not None:
                cycle_samples.append(_prom_line(
                    "repro_case_cycles", labels, row.cycles))
            if row.lane_seconds is not None:
                lane_samples.append(_prom_line(
                    "repro_case_lane_seconds", labels, row.lane_seconds))
    metric("repro_case_sim_seconds", "gauge",
           "Latest simulation seconds per app and backend.", case_samples)
    metric("repro_case_cycles", "gauge",
           "Latest simulated cycles per app and backend.", cycle_samples)
    metric("repro_case_lane_seconds", "gauge",
           "Latest amortized per-stimulus seconds of batched runs.",
           lane_samples)

    coverage_samples: List[str] = []
    for scope in ledger.coverage_scopes():
        rows = ledger.coverage_history(scope, limit=1)
        if not rows:
            continue
        row = rows[-1]
        for metric_name in ("state_coverage", "transition_coverage",
                            "operator_coverage"):
            value = getattr(row, metric_name)
            if value is not None:
                coverage_samples.append(_prom_line(
                    "repro_coverage_ratio",
                    {"scope": scope, "metric": metric_name}, value))
    metric("repro_coverage_ratio", "gauge",
           "Latest functional-coverage ratios per scope.",
           coverage_samples)

    cache_samples: List[str] = []
    for run in ledger.runs():
        for row in ledger.cache_rows(run.run_id):
            label = {"cache": row.cache}
            if row.cache not in {sample.split('"')[1]
                                 for sample in cache_samples}:
                cache_samples.append(_prom_line(
                    "repro_cache_hit_rate", label, row.hit_rate))
    metric("repro_cache_hit_rate", "gauge",
           "Latest hit rate per cache (artifact, kernel).", cache_samples)

    fuzz = ledger.latest_run("fuzz")
    if fuzz is not None:
        metric("repro_fuzz_outcomes_total", "gauge",
               "Outcome tallies of the latest fuzz campaign.",
               [_prom_line("repro_fuzz_outcomes_total",
                           {"kind": row.kind}, row.count)
                for row in ledger.fuzz_rows(fuzz.run_id)])

    inject = ledger.latest_run("inject")
    if inject is not None:
        tallies: Dict[str, int] = {verdict: 0 for verdict in _VERDICTS}
        for row in ledger.fault_rows(inject.run_id):
            if row.kind != "none":
                tallies[row.verdict] = tallies.get(row.verdict, 0) + 1
        metric("repro_inject_verdicts_total", "gauge",
               "Verdict tallies of the latest fault-injection campaign.",
               [_prom_line("repro_inject_verdicts_total",
                           {"verdict": verdict}, count)
                for verdict, count in tallies.items()])

    triage_runs = ledger.runs(kind="triage")
    if triage_runs:
        tallies: Dict[Tuple[str, str], int] = {}
        for run in triage_runs:
            key = (str(run.extra.get("kind", "?")),
                   str(run.extra.get("mode", "?")))
            tallies[key] = tallies.get(key, 0) + 1
        metric("repro_triage_total", "gauge",
               "Divergence-triage records in the ledger, by producer "
               "kind and divergence mode.",
               [_prom_line("repro_triage_total",
                           {"kind": kind, "mode": mode}, count)
                for (kind, mode), count in sorted(tallies.items())])

    # serve latency histograms of the latest session, under the same
    # family names the live daemon serves on GET /metrics
    serve = ledger.latest_run("serve")
    if serve is not None:
        payload = serve.extra.get("histograms")
        if isinstance(payload, Mapping) and payload:
            from .metrics import Histogram, render_serve_histograms

            histograms = {}
            for name in sorted(payload):
                try:
                    histograms[name] = Histogram.from_dict(payload[name])
                except (TypeError, ValueError, KeyError):
                    continue
            lines.extend(render_serve_histograms(histograms))

    return "\n".join(lines) + "\n" if lines else ""


def export_json(ledger: Ledger, *, history: int = 30) -> str:
    """Machine-readable dump of recent runs (for ad-hoc tooling)."""
    payload: List[Dict[str, Any]] = []
    for run in ledger.runs(limit=history):
        payload.append({
            "run_id": run.run_id,
            "kind": run.kind,
            "started_at": run.started_at,
            "wall_seconds": run.wall_seconds,
            "passed": run.passed,
            "backend": run.backend,
            "jobs": run.jobs,
            "git_rev": run.git_rev,
            "cases": [vars(row) for row in ledger.case_rows(run.run_id)],
            "coverage": [vars(row)
                         for row in ledger.coverage_rows(run.run_id)],
            "caches": [{**vars(row), "hit_rate": row.hit_rate}
                       for row in ledger.cache_rows(run.run_id)],
            "fuzz": [vars(row) for row in ledger.fuzz_rows(run.run_id)],
            "faults": [vars(row)
                       for row in ledger.fault_rows(run.run_id)],
        })
        if run.kind == "triage":
            # the full machine-readable triage record rides in extra
            payload[-1]["triage"] = run.extra
    return json.dumps({"schema": 1, "runs": payload}, indent=2,
                      default=str) + "\n"
