"""ASCII bar charts for the figure benchmarks.

The paper's figures are bar charts; rendering them as text makes the
regenerated results legible in a terminal and diffable under
``results/``.
"""


def bar_chart(title, rows, unit="x", width=46, baseline=None):
    """Render labelled horizontal bars.

    ``rows`` is ``[(label, value_or_None, note)]``; None values render
    their note (e.g. ``incompatible``).  ``baseline`` draws a reference
    mark (e.g. 1.0 for normalized runtime).
    """
    values = [v for _l, v, _n in rows if v is not None]
    if not values:
        return f"{title}\n  (no data)"
    peak = max(values + ([baseline] if baseline else []))
    label_width = max(len(label) for label, _v, _n in rows)
    lines = [title]
    for label, value, note in rows:
        if value is None:
            lines.append(f"  {label.ljust(label_width)} | {note}")
            continue
        filled = int(round(width * value / peak)) if peak else 0
        bar = "#" * max(filled, 1 if value > 0 else 0)
        mark = ""
        if baseline is not None and peak:
            position = min(int(round(width * baseline / peak)),
                           width - 1)
            if position >= filled:
                bar = bar.ljust(position) + "|"
        lines.append(f"  {label.ljust(label_width)} |{bar.ljust(width)}"
                     f" {value:.2f}{unit} {note}".rstrip())
    return "\n".join(lines)
