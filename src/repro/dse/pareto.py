"""Pareto-dominance pruning over design-point metric rows.

A metric row is a plain dict carrying at least the objective keys.  The
default objectives are the DSE report's three axes: peak die
temperature and average platform power are minimized, workload
throughput is maximized.
"""

#: (key, sense) objective table; sense is ``"min"`` or ``"max"``.
OBJECTIVES = (
    ("peak_temperature_k", "min"),
    ("avg_power_w", "min"),
    ("throughput_ips", "max"),
)


def dominates(a, b, objectives=OBJECTIVES):
    """True when row ``a`` Pareto-dominates row ``b``.

    ``a`` dominates ``b`` when it is at least as good on every
    objective and strictly better on at least one; ties on every
    objective dominate in neither direction.
    """
    strictly_better = False
    for key, sense in objectives:
        av, bv = a[key], b[key]
        if sense == "min":
            if av > bv:
                return False
            if av < bv:
                strictly_better = True
        elif sense == "max":
            if av < bv:
                return False
            if av > bv:
                strictly_better = True
        else:
            raise ValueError(f"objective sense must be 'min' or 'max', "
                             f"got {sense!r} for {key!r}")
    return strictly_better


def _has_nan(row, objectives):
    return any(row[key] != row[key] for key, _ in objectives)


def pareto_front(rows, objectives=OBJECTIVES):
    """Split ``rows`` into ``(front, dominated)``, preserving order.

    A row lands on the front iff no other row dominates it; rows with
    identical objective values all stay on the front (neither dominates
    the other).

    Rows are visited in lexicographic order of their objectives, each
    descending where larger is better.  A dominator is no worse anywhere
    and better somewhere, so it sorts strictly before every row it
    dominates; dominance is transitive, so a dominated row is dominated
    by a non-dominated row visited before it.  Each row is therefore
    tested against the front found so far only.  A NaN objective
    compares neither way and breaks both arguments, so a row holding
    one is tested against every other row, and every other row against
    it.
    """
    rows = list(rows)
    if len(rows) < 2:
        return rows, []
    irregular, regular = [], []
    for i, row in enumerate(rows):
        (irregular if _has_nan(row, objectives) else regular).append(i)
    # Stable sorts, last objective first: a lexicographic order.
    for key, sense in reversed(objectives):
        regular.sort(key=lambda i: rows[i][key], reverse=sense == "max")
    is_dominated = [False] * len(rows)
    regular_front = []  # rows no NaN-free row dominates, in visit order
    for i in regular:
        row = rows[i]
        if any(dominates(other, row, objectives) for other in regular_front):
            is_dominated[i] = True
            continue
        regular_front.append(row)
        is_dominated[i] = any(
            dominates(rows[j], row, objectives) for j in irregular
        )
    for i in irregular:
        is_dominated[i] = any(
            dominates(other, rows[i], objectives)
            for j, other in enumerate(rows) if j != i
        )
    front = [row for row, out in zip(rows, is_dominated) if not out]
    dominated = [row for row, out in zip(rows, is_dominated) if out]
    return front, dominated
