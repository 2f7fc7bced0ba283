"""Instance sizes of a weak pullback, counted from the cospan's own tables.

The benchmark checks the program's pullbacks against these counts, so they
are derived from the definition of the weak pullback and never from the
program's construction. A pullback element is a triple (s, g, t) with
r(g) = r(p(s)) and d(g) = r(q(t)); its range is (r(s), g, r(t)) and the
r-fiber over a unit (u, h, v) is S^u x {h} x T^v. Hence

    compose entries     = sum over (s, g, t) of |S^d(s)| |T^d(t)|
    composable triples  = sum over (s, g, t) of a(d(s)) b(d(t)),

where a(u) = sum over σ in S^u of |S^d(σ)|, and b likewise on T. The triple
count is the work of the exhaustive associativity check: one triple per
compose entry (x, y) and element z of r^-1(d(y)).
"""

from __future__ import annotations

from collections import Counter


def _fiber_sizes(g) -> Counter:
    return Counter(g.r(x) for x in g.elements)


def pullback_counts(cospan) -> dict[str, int]:
    s_g = cospan.left.groupoid
    base = cospan.base.groupoid
    t_g = cospan.right.groupoid
    p = cospan.left_map.mapping
    q = cospan.right_map.mapping

    s_fib = _fiber_sizes(s_g)
    t_fib = _fiber_sizes(t_g)
    s_two = Counter()
    for x in s_g.elements:
        s_two[s_g.r(x)] += s_fib[s_g.d(x)]
    t_two = Counter()
    for x in t_g.elements:
        t_two[t_g.r(x)] += t_fib[t_g.d(x)]

    # right-leg arrows and right-leg units grouped by the base unit r(q(t))
    t_by_base: dict[str, list[str]] = {}
    for t in t_g.elements:
        t_by_base.setdefault(base.r(q[t]), []).append(t)
    t_units = set(t_g.units)

    elements = units = compose_entries = triples = 0
    s_units = set(s_g.units)
    for s in s_g.elements:
        for g in base.elements:
            if base.r(g) != base.r(p[s]):
                continue
            for t in t_by_base.get(base.d(g), ()):
                elements += 1
                if s in s_units and t in t_units:
                    units += 1
                compose_entries += s_fib[s_g.d(s)] * t_fib[t_g.d(t)]
                triples += s_two[s_g.d(s)] * t_two[t_g.d(t)]
    return {
        "elements": elements,
        "units": units,
        "compose_entries": compose_entries,
        "composable_triples": triples,
    }
