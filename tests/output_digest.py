"""One sha256 over the `decide` certificates of a fixed set of algebras.

Run from the repository root:

    PYTHONPATH=src python3 tests/output_digest.py [--expect HEX]

It decides the 15 named fixtures below and census instances 0-9 of the
x3, xj, xm and xp corpora (55 algebras), emits each certificate as its
canonical LAF-C document and prints the sha256 of those documents, joined
in that order, with the verdict counts. A change that must keep every
certificate byte prints the same line before and after. With --expect HEX
it exits 1, printing both digests, when its digest is not HEX. pytest does
not collect this file.
"""

import argparse
import hashlib
import sys
from collections import Counter

from novikov import fixtures as fx
from novikov.certificate import decide_novikov
from novikov.extensions import assemble
from novikov.laf import emit

from randalg import (
    random_mixed_extension,
    random_prop57_instance,
    random_regular_jordan_extension,
    random_three_step_extension,
    rng_for,
)

FIXTURES = ["n3", "r2", "r3", "sl2", "ex35", "free-n2-c4", "free-n3-c3", "abelian:3",
            "r3-lambda:-1", "r3-lambda:-1/2", "r3-lambda:2", "filiform:5", "filiform:8",
            "In:4", "In:8"]

CENSUS = {
    "x3": lambda i: assemble(random_three_step_extension(rng_for("x3", i), i)),
    "xj": lambda i: assemble(random_regular_jordan_extension(rng_for("xj", i), i)),
    "xm": lambda i: assemble(random_mixed_extension(rng_for("xm", i))),
    "xp": lambda i: random_prop57_instance(rng_for("xp", i)),
}


def algebras():
    for name in FIXTURES:
        yield fx.fixture(name)
    for build in CENSUS.values():
        for i in range(10):
            yield build(i)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest the decide certificates.")
    parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    args = parser.parse_args(argv)
    digest, verdicts = hashlib.sha256(), Counter()
    for g in algebras():
        cert = decide_novikov(g)
        digest.update(emit(cert).encode("utf-8"))
        verdicts[cert.verdict] += 1
    print(digest.hexdigest(), " ".join("%s=%d" % kv for kv in sorted(verdicts.items())))
    if args.expect is not None and args.expect != digest.hexdigest():
        print("expected %s\n     got %s" % (args.expect, digest.hexdigest()))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
