"""Independent truths for checking the program's outputs.

Nothing here imports the code under test.  Matrices are column bitmask
lists (bit i of ``masks[j]`` is row i of column j), read from and written
to the ``.dmat`` text format by this module's own parser and writer.  The
oracles are brute force over covering sets, Sperner's theorem for d = 1,
exact integer arithmetic for the row bounds and a greedy-certified
matching number; every checker returns an error string or None.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


# -- .dmat text -------------------------------------------------------------


def dmat_text(t: int, masks: list[int]) -> str:
    """Canonical .dmat text: header ``"t n"``, then t rows of n chars."""
    n = len(masks)
    rows = [bytearray(b"0" * n) for _ in range(t)]
    for j, mask in enumerate(masks):
        for i in bits(mask):
            rows[i][j] = 0x31
    return f"{t} {n}\n" + "".join(row.decode("ascii") + "\n" for row in rows)


def parse_dmat(text: str) -> tuple[int, list[int]]:
    lines = text.split("\n")
    t, n = (int(x) for x in lines[0].split())
    masks = [0] * n
    for i in range(t):
        row = lines[1 + i]
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} characters, expected {n}")
        j = row.find("1")
        while j != -1:
            masks[j] |= 1 << i
            j = row.find("1", j + 1)
    return t, masks


def read_dmat(path) -> tuple[int, list[int]]:
    with open(path, encoding="ascii") as fh:
        return parse_dmat(fh.read())


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


# -- matrices ---------------------------------------------------------------


def affine_plane(q: int) -> list[int]:
    """Lines of AG(2, q), q prime, as masks over the q*q points.

    Point (x, y) is row x*q + y.  Columns: lines y = m*x + b (slope-major,
    then intercept), then the q vertical lines x = x0.
    """
    lines = []
    for m in range(q):
        for b in range(q):
            lines.append(sum(1 << (x * q + (m * x + b) % q) for x in range(q)))
    for x0 in range(q):
        lines.append(sum(1 << (x0 * q + y) for y in range(q)))
    return lines


def min_cover_size(masks: list[int], j: int, limit: int) -> int | None:
    """Fewest other columns whose union contains column j, if <= limit.

    Brute force over sets of distinct traces on column j.  A trace inside
    another trace is dropped first: swapping it for the larger one keeps
    any cover a cover of the same size.
    """
    cj = masks[j]
    if cj == 0:
        return 1 if limit >= 1 and len(masks) > 1 else None
    traces = {m & cj for k, m in enumerate(masks) if k != j} - {0}
    maximal = [m for m in traces if not any(m != o and m & ~o == 0 for o in traces)]
    if not maximal:
        return None
    widest = max(m.bit_count() for m in maximal)
    start = max(1, -(-cj.bit_count() // widest))
    for size in range(start, min(limit, len(maximal)) + 1):
        for combo in combinations(maximal, size):
            union = 0
            for m in combo:
                union |= m
            if union == cj:
                return size
    return None


def is_disjunct(masks: list[int], d: int) -> bool:
    """d-disjunct; vacuously so when there are not d other columns."""
    return d >= len(masks) or all(
        min_cover_size(masks, j, d) is None for j in range(len(masks))
    )


def max_order(masks: list[int]) -> int:
    """Largest d for which the columns are d-disjunct, capped at n - 1."""
    best = len(masks) - 1
    for j in range(len(masks)):
        if best == 0:
            break
        size = min_cover_size(masks, j, best)
        if size is not None:
            best = min(best, size - 1)
    return best


def isolated_columns(masks: list[int], t: int) -> set[int]:
    degree = [0] * t
    for m in masks:
        for i in bits(m):
            degree[i] += 1
    return {j for j, m in enumerate(masks) if any(degree[i] == 1 for i in bits(m))}


def matching_number(vertices: list[int], edges: set[tuple[int, int]]) -> int:
    """Exact matching number: a greedy matching certified by floor(|V|/2),
    else brute force over edge subsets (small graphs only)."""
    used: set[int] = set()
    greedy = 0
    for a, b in sorted(edges):
        if a not in used and b not in used:
            used |= {a, b}
            greedy += 1
    touched = {v for e in edges for v in e}
    upper = min(len(touched) // 2, len(edges))
    edge_list = sorted(edges)
    for size in range(upper, greedy, -1):
        if comb(len(edge_list), size) > 2_000_000:
            raise ValueError(f"matching oracle out of reach on {len(edges)} edges")
        for combo in combinations(edge_list, size):
            ends = {v for e in combo for v in e}
            if len(ends) == 2 * size:
                return size
    return greedy


def pair_stats(masks: list[int], j: int) -> tuple[int, int, int]:
    """(private pairs, non-private pairs, matching number) of column j."""
    cj = masks[j]
    nonprivate: set[tuple[int, int]] = set()
    for k, m in enumerate(masks):
        shared = m & cj
        if k != j and shared.bit_count() >= 2:
            nonprivate.update(combinations(list(bits(shared)), 2))
    w = cj.bit_count()
    nu = matching_number(list(bits(cj)), nonprivate)
    return comb(w, 2) - len(nonprivate), len(nonprivate), nu


def ceil_kappa_square(d: int) -> int:
    """ceil((15 + sqrt(33)) / 24 * d^2), exactly: the least m with
    24m - 15d^2 >= sqrt(33) d^2."""
    m = (15 * d * d) // 24
    while True:
        lhs = 24 * m - 15 * d * d
        if lhs >= 0 and lhs * lhs >= 33 * d**4:
            return m
        m += 1


# -- output checks ----------------------------------------------------------


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def expect_disjunct(lines, rc, d) -> str | None:
    if rc != 0 or lines != [f"DISJUNCT d={d}"]:
        return f"expected DISJUNCT d={d} (exit 0), got exit {rc}: {lines[:3]}"
    return None


def expect_refutation(lines, rc, d, masks, column=None) -> str | None:
    """Exit 1 and a witness whose covering columns really cover it."""
    if rc != 1 or len(lines) != 3 or lines[0] != f"NOT DISJUNCT d={d}":
        return f"expected NOT DISJUNCT d={d} (exit 1), got exit {rc}: {lines[:3]}"
    j = int(_fields(lines[1])["column"])
    cover_text = _fields(lines[2])["cover"]
    cover = [int(c) for c in cover_text.split(",")] if cover_text else []
    if column is not None and j != column:
        return f"witness column {j}, expected {column}"
    if len(set(cover)) > d or j in cover:
        return f"witness cover {cover} for column {j} is not a set of <= {d} other columns"
    union = 0
    for c in cover:
        union |= masks[c]
    if masks[j] & ~union:
        return f"cover {cover} does not contain column {j}"
    return None


def expect_max_order(lines, rc, order) -> str | None:
    if rc != 0 or lines != [f"max_disjunct_order={order}"]:
        return f"expected max_disjunct_order={order}, got exit {rc}: {lines[:3]}"
    return None


def expect_identifiable(lines, rc, n, d) -> str | None:
    cases = sum(comb(n, k) for k in range(min(d, n) + 1))
    if rc != 0 or lines != [f"IDENTIFIABLE d={d} cases={cases}"]:
        return f"expected IDENTIFIABLE d={d} cases={cases}, got exit {rc}: {lines[:3]}"
    return None


def expect_analysis(lines, rc, t, masks, d) -> str | None:
    """Per-column pair counts and matching numbers, lemma 3 status, totals."""
    checks_valid = is_disjunct(masks, d) and not isolated_columns(masks, t)
    rows = [_fields(line) for line in lines if line.startswith("column=")]
    if len(rows) != len(masks):
        return f"analyze printed {len(rows)} columns, expected {len(masks)}"
    total = 0
    for j, row in enumerate(rows):
        private, nonprivate, nu = pair_stats(masks, j)
        total += private
        s = masks[j].bit_count() - d
        if checks_valid and 1 <= s <= d - 1:
            status = "pass"  # Lemma 3 holds on d-disjunct isolated-free input
        elif checks_valid:
            status = row.get("lemma3", "")  # out of range: no truth to check
        else:
            status = "n/a"
        want = {
            "column": str(j),
            "weight": str(masks[j].bit_count()),
            "private": str(private),
            "nonprivate": str(nonprivate),
            "matching": str(nu),
            "lemma3": status,
        }
        got = {k: row.get(k) for k in want}
        if got != want:
            return f"analyze column {j}: got {got}, expected {want}"
    want_total = f"private_total={total} pair_budget={comb(t, 2)} budget_ok=true"
    if rc != 0 or not lines or lines[-1] != want_total:
        return f"analyze totals: exit {rc}, {lines[-1:]} != {want_total!r}"
    return None


def expect_affine_file(lines, rc, path, q) -> str | None:
    """An affine plane of order q: q^2 points, q^2 + q lines of q points,
    every two points on exactly one common line."""
    if rc != 0 or lines != [f"wrote={path} t={q * q} n={q * q + q}"]:
        return f"construct affine: exit {rc}, {lines[:2]}"
    t, masks = read_dmat(path)
    if t != q * q or len(masks) != q * q + q or any(m.bit_count() != q for m in masks):
        return "construct affine: wrong shape or line size"
    seen = set()
    for m in masks:
        pairs = set(combinations(list(bits(m)), 2))
        if seen & pairs:
            return "construct affine: two points share two lines"
        seen |= pairs
    if len(seen) != comb(t, 2):
        return "construct affine: some pair of points lies on no line"
    return None


def expect_corpus(lines, rc, d, attempts) -> str | None:
    """Every written matrix is d-disjunct and isolated-free, by brute force."""
    wrote = [_fields(line) for line in lines if line.startswith("wrote=")]
    if rc != 0 or not lines or lines[-1] != f"kept={len(wrote)} attempts={attempts}":
        return f"construct random: exit {rc}, last line {lines[-1:]}"
    for row in wrote:
        t, masks = read_dmat(row["wrote"])
        if (str(t), str(len(masks))) != (row["t"], row["n"]):
            return f"{row['wrote']}: shape differs from the printed one"
        if not is_disjunct(masks, d):
            return f"{row['wrote']}: not {d}-disjunct"
        if isolated_columns(masks, t):
            return f"{row['wrote']}: has isolated columns"
    return None


def sperner_possible(t: int) -> bool:
    """A t x (t+1) 1-disjunct matrix exists iff C(t, t//2) >= t + 1."""
    return comb(t, t // 2) >= t + 1


def expect_search(lines, rc, d, tmax, outdir) -> str | None:
    """Below Bassalygo's C(d+2, 2) nothing exists and the search must have
    exhausted; found matrices must be d-disjunct t x (t+1) by brute force.
    Node counts are not checked: a better search may do less work."""
    certs = [_fields(line) for line in lines if line.startswith("t=")]
    if rc != 0 or [c["t"] for c in certs] != [str(t) for t in range(1, tmax + 1)]:
        return f"search: exit {rc}, certificates for t={[c.get('t') for c in certs]}"
    for cert in certs:
        t = int(cert["t"])
        found = cert["found"] == "true"
        if t < comb(d + 2, 2) and (found or cert["exhausted"] != "true"):
            return f"search d={d} t={t}: {cert} below the Bassalygo bound"
        if d == 1 and found != sperner_possible(t):
            return f"search d=1 t={t}: found={found} contradicts Sperner"
        if found:
            rt, masks = read_dmat(f"{outdir}/t{t}_d{d}.dmat")
            if rt != t or len(masks) != t + 1 or not is_disjunct(masks, d):
                return f"search d={d} t={t}: found matrix is not {d}-disjunct"
    return None


def expect_bounds(lines, rc, d, n) -> str | None:
    bassalygo = comb(d + 2, 2)
    theorem2 = ceil_kappa_square(d)
    want = {
        "d": str(d),
        "bassalygo": str(bassalygo),
        "theorem2": str(theorem2),
        "conjecture": str((d + 1) ** 2),
        "combined": str(max(bassalygo, theorem2)),
    }
    if n is not None:
        want["n"] = str(n)
        want["t_dn"] = str(max(min(bassalygo, n), min(theorem2, n)))
    got = {}
    for line in lines:
        got.update(_fields(line))
    if rc != 0 or {k: got.get(k) for k in want} != want:
        return f"bounds d={d} n={n}: got {got}, expected {want}"
    kappa = float(got.get("kappa", "nan"))
    if not abs(kappa - (15 + 33**0.5) / 24) < 1e-12:
        return f"bounds: kappa={kappa}"
    return None
