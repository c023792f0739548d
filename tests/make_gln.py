"""Write the declaration of gl_n acting on Q[y_1..y_n] by linear vector fields.

    python3 tests/make_gln.py N [PATH]

The basis is the matrix units E_ij = y_i d/dy_j, in row-major order, so
E_ij(y_j) = y_i and every other generator goes to 0.  E_ij is named `Eij`,
or `Ei_j` when N >= 10.  The bracket is the commutator of matrix units,

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj,

and every y_i is primitive.  N = 2 gives the structure of
tests/fixtures/gl2.lra; tests/fixtures_large/gl3.lra is N = 3.  The
declaration goes to PATH, or to standard output.
"""

from __future__ import annotations

import sys


def gln_text(n: int) -> str:
    if n < 1:
        raise ValueError("gl_n needs n >= 1")
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    # from n = 10 on, a separator keeps E_1,11 and E_11,1 apart
    name = (lambda i, j: f"E{i}_{j}") if n >= 10 else (lambda i, j: f"E{i}{j}")
    lines = [
        f"# gl{n}: the matrix units E_ij = y_i d/dy_j acting on Q[y1..y{n}].",
        "algebra A { gens: " + ", ".join(f"y{i} primitive" for i in range(1, n + 1)) + " }",
        "lie g {",
        "    basis: " + ", ".join(name(i, j) for i, j in units) + ";",
    ]
    for a, (i, j) in enumerate(units):
        for k, l in units[a + 1:]:
            # both terms occur only in [E_ij, E_ji] = E_ii - E_jj, with i < j
            plus = name(i, l) if j == k else None
            minus = name(k, j) if l == i else None
            if plus or minus:
                body = " - ".join(filter(None, (plus, minus))) if plus else "-" + minus
                lines.append(f"    bracket [{name(i, j)}, {name(k, l)}] = {body};")
    lines += ["}", "action {"]
    lines += [f"    {name(i, j)}(y{j}) = y{i};" for i, j in units]
    lines += ["}"]
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: make_gln.py N [PATH]", file=sys.stderr)
        return 2
    text = gln_text(int(argv[0]))
    if len(argv) == 2:
        with open(argv[1], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
