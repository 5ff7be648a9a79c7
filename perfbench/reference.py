"""Reference answers the benchmark checks the program's outputs against.

Each rule here is transcribed from the documented statement (module
docstrings, the README and the paper's identities), not from the code
that computes it, so a defect introduced in the program shows up as a
failed job rather than as a changed reference.
"""

from __future__ import annotations


def support(s: int, t: int) -> set[tuple[int, int]]:
    """Lattice points ``(r, i)`` of the support polygon of ``Speh_s(St_t)``.

    The polygon has right vertex ``(s+t-1, 0)``, outer vertices
    ``(t, +-(s-1))`` and its left edge at ``r = 1`` (or the left vertex
    ``(t-s+1, 0)`` when ``t >= s``); at each ``r`` the points step by 2
    in ``i`` inward from the boundary.
    """
    points = set()
    for r in range(max(1, t - s + 1), s + t):
        # half-height of the polygon at r: falls by 1 per step right of
        # the outer vertices at r = t, and by 1 per step left of them
        half = s + t - 1 - r if r >= t else s - 1 - (t - r)
        points.update((r, i) for i in range(-half, half + 1, 2))
    return points


def superposed(s: int, lengths: list[int]) -> dict[tuple[int, int], list[int]]:
    """Point -> 1-based indices of the factors whose support holds it."""
    annotations: dict[tuple[int, int], list[int]] = {}
    for k, t in enumerate(lengths, start=1):
        for point in support(s, t):
            annotations.setdefault(point, []).append(k)
    return annotations


def constituent_lines(
    s: int, factors: list[tuple[int, str]], r: int
) -> list[tuple[str, str, str]]:
    """Expected ``--at-r`` listing: (prefix, R-symbol, origin) per line.

    One line per factor supported at ``(r, 0)``; the traced factor is
    replaced by its ``R`` symbol and comes from the right vertex
    ``(s+t_k-1, 0)`` when that lies strictly right of ``r``.
    """
    lines = []
    for k, (t, base) in enumerate(factors, start=1):
        if (r, 0) not in support(s, t):
            continue
        origin = s + t - 1
        source = f"comes from ({origin},0)" if origin > r else "no higher origin"
        lines.append(
            (f"({r},0) factor {k} (t={t}):", f"R_{base}({s},{t})({r},0)", source)
        )
    return lines


def ledger_degree(stratum: int, g: int, inf_degree: int, xi_twice: int, tate_twice: int) -> int:
    """Conserved degree of a ledger term, as the ledger module states it.

    ``stratum*g + degree(infinitesimal) - 2*g*(|2*xi| + |2*tate|)``; every
    term of a resolution, filtration or expansion at ambient ``d`` has
    degree ``d``.
    """
    return stratum * g + inf_degree - 2 * g * (abs(xi_twice) + abs(tate_twice))


def multisegment_dict_degree(inf: dict, g_of: dict[str, int]) -> int:
    """Degree of a schema-v1 multisegment document."""
    degree = sum(seg["length"] * g_of[seg["base_id"]] for seg in inf["segments"])
    if inf.get("wildcard") is not None:
        degree += inf["wildcard"]["degree"]
    return degree


def multisegment_degree(m) -> int:
    """Degree of a multisegment object, read off its fields."""
    degree = sum(seg.length * seg.base.g for seg in m.segments)
    if m.wildcard is not None:
        degree += m.wildcard.degree
    return degree


def ledger_counts(n: int) -> tuple[int, int, int]:
    """Term counts of resolution, filtration and expanded resolution.

    With ``n = s_g - t`` there are ``n+1`` shrieks plus the closing
    intermediate, ``n+1`` graded pieces, and one expanded term per pair
    ``delta + delta' <= n``.
    """
    return n + 2, n + 1, (n + 1) * (n + 2) // 2


def ascii_cells(text: str) -> dict[tuple[int, int], str]:
    """Non-empty cells of an ASCII diagram, keyed by ``(r, i)``."""
    cells = {}
    for line in text.splitlines():
        if not line.startswith("i="):
            continue
        head, _, row = line.partition(" | ")
        i = int(head[2:])
        for r, cell in enumerate(row.split(" "), start=1):
            if cell != ".":
                cells[(r, i)] = cell
    return cells
