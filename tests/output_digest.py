"""One sha256 over the `decide` certificates of a fixed set of algebras.

Run from the repository root:

    PYTHONPATH=src python3 tests/output_digest.py [--expect HEX]

It decides the 15 named fixtures below and census instances 0-9 of the
x3, xj, xm and xp corpora (55 algebras), emits each certificate as its
canonical LAF-C document and prints the sha256 of those documents, joined
in that order, with the verdict counts. A change that must keep every
certificate byte prints the same line before and after.

A second line prints product_digest(): one sha256 over the LAF documents
of the products that the library's constructors build (see its docstring),
pinned here as PRODUCT_DIGEST. A third prints the sha256 of
construction_bytes(), what the reduction hands out over
corpus_extensions(), pinned here as CONSTRUCTION_DIGEST. A fourth prints the sha256 of
subspace_bytes(), the subspaces the library computes (see its
docstring), pinned here as SUBSPACE_DIGEST; test_reduction.py imports all
three pins. With --expect HEX it exits 1, printing each digest that differs
next to what was expected, when the certificate digest is not HEX or one of
the other three lines is not its pin, so one command gates every output
byte. pytest does not collect this file.
"""

import argparse
import hashlib
import sys
from collections import Counter

from novikov import fixtures as fx
from novikov.certificate import decide_novikov
from novikov.extensions import (
    ExtensionData,
    HypothesisFailed,
    assemble,
    iso_lift,
    jordan_lift,
    lift_product,
    novikov_ideal_quotient,
    scheuneman_lift,
    semidirect_lift,
    two_gen_lift,
    two_step_solvable_from,
)
from novikov.laf import emit
from novikov.linalg import Matrix, Subspace, vunit
from novikov.products import half_bracket_product
from novikov.reduction import (
    ModuleAction,
    fitting_decompose,
    induced_nilpotent_extension,
    prop57_construct,
    reduction_lift,
)
from novikov.rmatrix import basis_rmatrix, deformed_algebra, induced_product

from randalg import (
    gelfand_dorfman,
    random_mixed_extension,
    random_nilpotent_module,
    random_prop57_instance,
    random_regular_jordan_extension,
    random_three_step_extension,
    rng_for,
)

# product_digest(), recorded while each product was still wrapped in a class
# of its own around its structure tensor
PRODUCT_DIGEST = "60c4104ccc8d1ad736b8191f0c958e5675ae6f8889c549ec0104f35869dde04e"
# sha256 of construction_bytes(), recorded on the word-image Fitting
# splitting that the power-based one replaced
CONSTRUCTION_DIGEST = "c4555fc876ba1b81f359173a7590bf71633f0d9cbfd38608a44bebc5bb72057a"
# sha256 of subspace_bytes(), recorded while Subspace kept its echelon rows
# as Fractions
SUBSPACE_DIGEST = "fcd274115692fe7f1cba12c4a82ca2b47e081c5adea4c1d5db78d3c9a407b859"

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


PRODUCT_FIXTURES = ["ex35-product", "free-n3-c3-product", "In-product:2", "In-product:4",
                    "In-novikov:2", "In-novikov:4"]


def _closed_form_lifts(ext):
    """(name, lift or the exception that refused it) for each closed-form
    lift of the extension, jordan_lift and iso_lift at every b index."""
    m = ext.dim_b
    makers = [("two-gen", lambda: two_gen_lift(ext)), ("scheuneman", lambda: scheuneman_lift(ext)),
              ("semidirect", lambda: semidirect_lift(ext))]
    makers += [("jordan %d" % x, lambda x=x: jordan_lift(ext, x)) for x in range(m)]
    makers += [("iso %d" % e, lambda e=e: iso_lift(ext, vunit(m, e))) for e in range(m)]
    for name, make in makers:
        try:
            yield name, make()
        except ValueError as err:
            yield name, err


def _constructed():
    """The LAF documents, or refusals, of the products the constructors
    build, in a fixed order: the half-bracket product of each fixture; the
    product fixtures; induced_product and deformed_algebra of each valid
    basis_rmatrix on ex35 and filiform:5-6; each closed-form lift of the
    census 0-9 algebras through lift_product and transport_product;
    novikov_ideal_quotient of free-n3-c3-product and of the Gelfand-Dorfman
    products; and those products themselves."""
    for name in FIXTURES:
        yield emit(half_bracket_product(fx.fixture(name)))
    for name in PRODUCT_FIXTURES:
        yield emit(fx.product_fixture(name))
    for g in (fx.ex35(), fx.filiform(5), fx.filiform(6)):
        for ell in range(g.dim):
            for m in range(g.dim):
                try:
                    r = basis_rmatrix(g, ell, m)
                except ValueError:
                    continue
                yield emit(induced_product(r)) + emit(deformed_algebra(r))
    for build in CENSUS.values():
        for i in range(10):
            ext, split = two_step_solvable_from(build(i))
            for name, lift in _closed_form_lifts(ext):
                if isinstance(lift, ValueError):
                    yield "%s: %s %s" % (name, type(lift).__name__, lift)
                else:
                    product = lift_product(ext, lift)
                    yield emit(product) + emit(split.transport_product(product))
    def ones(*at):
        return tuple(int(k in at) for k in range(14))

    p = fx.free_n3_c3_product()
    for basis in ([ones(k) for k in range(6, 14)],
                  [ones(3, 9)] + [ones(k) for k in (6, 7, 8, 12)],
                  [ones(3, 12), ones(4)] + [ones(k) for k in range(6, 12)]):
        yield emit(novikov_ideal_quotient(p, Subspace(14, basis)))
    for n in range(2, 7):
        for k in (1, 2, 3):
            p = gelfand_dorfman(n, k)[1]
            yield emit(p)
            for start in range(1, n):
                yield emit(novikov_ideal_quotient(p, Subspace(n, [vunit(n, j)
                                                                  for j in range(start, n)])))


def product_digest():
    """The sha256 of _constructed(), joined in order."""
    return hashlib.sha256("\n".join(_constructed()).encode("utf-8")).hexdigest()


def corpus_extensions():
    """The randalg extension corpora, plus extensions with dim a = 0 and
    with dim b = 0."""
    rng = rng_for("reduction-references")
    exts = [random_three_step_extension(rng, i) for i in range(4)]
    exts += [random_regular_jordan_extension(rng, i) for i in range(6)]
    exts += [random_mixed_extension(rng) for _ in range(6)]
    exts += [two_step_solvable_from(fx.fixture(name))[0] for name in ("ex35", "filiform:6", "n3")]
    exts += [
        ExtensionData(0, 2, [Matrix.zeros(0, 0)] * 2, {}),
        ExtensionData(0, 3, [Matrix.zeros(0, 0)] * 3, {}, b_bracket=fx.n3().bracket),
        ExtensionData(3, 0, [], {}),
        ExtensionData(0, 0, [], {}),
    ]
    return exts


def construction_bytes():
    """What the construction layer hands out over corpus_extensions(): the
    induced extension emitted, with lam and the basis change; for each of
    two_gen_lift and scheuneman_lift on it, the reduction-lift product
    emitted or the hypothesis that fails; prop57_construct on the assembled
    algebra, the same way."""
    out = []
    for ext in corpus_extensions():
        ind = induced_nilpotent_extension(ext)
        out += [emit(ind.ext_n), repr(ind.lam), repr(ind.basis)]
        for make in (two_gen_lift, scheuneman_lift):
            try:
                out.append(emit(lift_product(ext, reduction_lift(ext, make(ind.ext_n)))))
            except HypothesisFailed as err:
                out.append(str(err))
        try:
            out.append(emit(prop57_construct(assemble(ext))))
        except HypothesisFailed as err:
            out.append(str(err))
    return "\n".join(out).encode()


def module_corpus():
    """Nilpotent modules from randalg, plus the module of every extension in
    corpus_extensions()."""
    rng = rng_for("reduction-fitting-reference")
    modules = [random_nilpotent_module(rng, index) for index in range(12)]
    modules += [ModuleAction(ext.b_algebra(), ext.dim_a, ext.phi) for ext in corpus_extensions()]
    return modules


def subspace_bytes():
    """The subspaces the library computes: for each of algebras(), the bases
    of the terms of its derived and lower central series, each followed by
    its complement(); then the V_n and V_0 bases of fitting_decompose over
    module_corpus()."""
    def vectors(space):
        return "; ".join(" ".join(map(str, v)) for v in space.basis)

    out = []
    for g in algebras():
        for series in (g.derived_series(), g.lower_central_series()):
            out += ["%s | %s" % (vectors(s), s.complement()) for s in series]
    for module in module_corpus():
        dec = fitting_decompose(module)
        out += [vectors(dec.v_n), vectors(dec.v_0)]
    return "\n".join(out).encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest the decide certificates.")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the digest is HEX and the other lines their pins")
    args = parser.parse_args(argv)
    digest, verdicts = hashlib.sha256(), Counter()
    for g in algebras():
        cert = decide_novikov(g)
        digest.update(emit(cert).encode("utf-8"))
        verdicts[cert.verdict] += 1
    products = product_digest()
    construction = hashlib.sha256(construction_bytes()).hexdigest()
    subspaces = hashlib.sha256(subspace_bytes()).hexdigest()
    print(digest.hexdigest(), " ".join("%s=%d" % kv for kv in sorted(verdicts.items())))
    print(products, "products")
    print(construction, "construction")
    print(subspaces, "subspaces")
    if args.expect is None:
        return 0
    bad = [(name, want, got) for name, want, got in (
        ("certificates", args.expect, digest.hexdigest()),
        ("products", PRODUCT_DIGEST, products),
        ("construction", CONSTRUCTION_DIGEST, construction),
        ("subspaces", SUBSPACE_DIGEST, subspaces)) if want != got]
    for name, want, got in bad:
        print("%s: expected %s\n%s       got %s" % (name, want, " " * len(name), got))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
