#!/usr/bin/env python3
"""Walk through the bundled labelled-frame pair end to end.

Builds the two systems, checks the tight certificate, iterates the
distance chain to its exact fixpoint, reports the certificate's slack
over the full matrix, and synthesizes a rank-2 distinguishing formula
whose value gap witnesses the distance.  Everything printed is an exact
rational.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import laxkit as lk
from laxkit.core import format_unit
from laxkit.jsonio import (
    decode_certificate,
    decode_lifting,
    decode_system,
    load_json,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def show_matrix(title, rel):
    print(f"\n{title}")
    width = max(len(format_unit(v)) for row in rel.values for v in row)
    header = "      " + "  ".join(f"{b:>{width}}" for b in rel.target.elements)
    print(header)
    for a, row in zip(rel.source.elements, rel.values):
        cells = "  ".join(f"{format_unit(v):>{width}}" for v in row)
        print(f"  {a:>3} {cells}")


def main():
    sys_a, _ = decode_system(load_json(f"{FIXTURES}/labelled_kripke_a.json"))
    sys_b, _ = decode_system(load_json(f"{FIXTURES}/labelled_kripke_b.json"))
    lifting = decode_lifting(load_json(f"{FIXTURES}/half_label_hausdorff.json"))
    cert = decode_certificate(load_json(f"{FIXTURES}/labelled_kripke_cert.json"))

    print("Certificate check (forward direction):")
    verdict = lk.check_certificate(lifting, sys_a, sys_b, cert)
    for row in verdict.forward:
        print(f"  {row.pair}: claimed {format_unit(row.claimed)}, "
              f"lifted {format_unit(row.lifted)}, slack {row.claimed - row.lifted}")
    print(f"  verdict: {'ok' if verdict.ok else 'violation'}")

    result = lk.behavioural_distance(lifting, sys_a, sys_b, keep_trace=True)
    print(f"\nFixpoint reached after {result.iterations} iterations "
          f"(residual {format_unit(result.residual)})")
    for n, step in enumerate(result.trace):
        print(f"  step {n}: d(a1,b1) = {format_unit(step.at('a1', 'b1'))}")
    show_matrix("Distance matrix:", result.matrix)

    # the certificate is valid (verdict ok), so it bounds the distance from above
    gap = max(c - d for row_c, row_d in zip(cert.relation.values, result.matrix.values)
              for c, d in zip(row_c, row_d))
    print(f"\nCertificate slack over the whole matrix: {format_unit(gap)}")

    union, inj1, inj2 = lk.disjoint_union(sys_a, sys_b)
    phi = lk.synthesize(union, inj2["b1"], 2)
    print("\nRank-2 distinguishing formula for b1, value by state:")
    for state in union.carrier.elements:
        value = lk.evaluate(phi, union, state, lifting)
        print(f"  {state}: {format_unit(value)}")
    gap = lk.evaluate(phi, union, inj1["a1"], lifting)
    print(f"  gap at (a1, b1): {format_unit(gap)}  "
          f"(equals the distance entry above)")


if __name__ == "__main__":
    main()
