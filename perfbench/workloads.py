"""The three workloads: inputs, the op, and the check of every output.

A workload is set up from the freshly imported package and the seed, and
yields items. item.run() is the op that is timed; item.check(outcome) runs
untimed afterwards and returns None or the reason the op counts as failed.
"""

import contextlib
import io
import json
import os

from . import corpus

# Exact counts of the condition system, recorded on the seed code:
# linear rows, quadratics, rank of the linear block, free parameters,
# residual polynomials. A change here changes the system, not its speed.
FINGERPRINTS = {
    "free-n2-c4": {"linear_rows": 1326, "quadratics": 3584, "rank": 494,
                   "free_params": 18, "residuals": 40},
    "free-n3-c3": {"linear_rows": 8670, "quadratics": 35672, "rank": 2678,
                   "free_params": 66, "residuals": 144},
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FROZEN_CERT = os.path.join(ROOT, "tests", "data", "free-n2-c4.lafc")


class Probe:
    """Fingerprint counts taken from build_system and residual_polynomials
    as they return, traced or not; reset before each op."""

    def __init__(self):
        self.seen = []

    def hooks(self):
        return {
            "certificate.build_system": self._system,
            "certificate.residual_polynomials": self._residuals,
        }

    def _system(self, args, system):
        self.seen.append({"linear_rows": len(system.linear_rows),
                          "quadratics": len(system.quadratics)})

    def _residuals(self, args, result):
        sol, residuals = result
        self.seen.append({"rank": sol.rank, "free_params": sol.ncols - sol.rank,
                          "residuals": None if residuals is None else len(residuals)})

    def take(self):
        seen, self.seen = self.seen, []
        return seen


def fingerprint_of(seen):
    """Fold probe records into one fingerprint; None if they disagree."""
    fp = {}
    for record in seen:
        for key, value in record.items():
            if fp.setdefault(key, value) != value:
                return None
    return fp


class Item:
    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Shared bookkeeping: decide ops and the fingerprint seen per op."""

    algebra = None

    def __init__(self, nv, workdir, seed, probe):
        self.nv = nv
        self.workdir = workdir
        self.seed = seed
        self.probe = probe
        self.decide_ops = 0
        self.decided = 0
        self.fingerprint = None

    def warm_up(self):
        """One checked op; the decide counts start after it."""
        item = self.items()[0]
        reason = item.check(item.run())
        self.decide_ops = self.decided = 0
        return reason

    def self_test(self):
        """None, or what is wrong with the benchmark's own checks."""
        return None

    def check_fingerprint(self):
        fp = fingerprint_of(self.probe.take())
        if fp is None or len(fp) != 5:
            return "condition system counts missing or inconsistent within the op"
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            return "condition system counts differ between ops: %s vs %s" % (fp, self.fingerprint)
        return None

    def info(self):
        out = {}
        if self.algebra is not None:
            out["fingerprint"] = self.fingerprint
            out["fingerprint_recorded"] = FINGERPRINTS[self.algebra]
            out["fingerprint_changed"] = self.fingerprint != FINGERPRINTS[self.algebra]
        return out


class RefuteN2C4(Workload):
    """CLI decide -o cert, then check-cert, in-process, on free-n2-c4."""

    algebra = "free-n2-c4"
    DECIDE_REPORT = {"command": "decide", "verdict": "not-exists",
                     "witness_kind": "quadratic", "witness_size": 4}
    CHECK_REPORT = {"command": "check-cert", "verdict": "not-exists", "valid": True}

    def __init__(self, nv, workdir, seed, probe):
        super().__init__(nv, workdir, seed, probe)
        with open(FROZEN_CERT, "rb") as fh:
            self.frozen = fh.read()
        self.lie_path = os.path.join(workdir, "free-n2-c4.laf")
        self.cert_path = os.path.join(workdir, "free-n2-c4.lafc")
        nv.laf.emit_file(nv.fixtures.fixture(self.algebra), self.lie_path)

    def _cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.nv.cli.main(list(argv))
        return code, out.getvalue()

    def run(self):
        if os.path.exists(self.cert_path):
            os.remove(self.cert_path)
        decide = self._cli("decide", "--lie", self.lie_path, "-o", self.cert_path)
        check = self._cli("check-cert", "--lie", self.lie_path, "--cert", self.cert_path)
        return decide, check

    def _read_cert(self):
        try:
            with open(self.cert_path, "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def judge(self, outcome, cert_bytes):
        (d_code, d_out), (c_code, c_out) = outcome
        try:
            d_report, c_report = json.loads(d_out), json.loads(c_out)
        except ValueError:
            return "a CLI report is not a single JSON object"
        if d_code != 1 or d_report != self.DECIDE_REPORT:
            return "decide: exit %s, report %s" % (d_code, d_report)
        if cert_bytes != self.frozen:
            return "certificate bytes differ from tests/data/free-n2-c4.lafc"
        if c_code != 0 or c_report != self.CHECK_REPORT:
            return "check-cert: exit %s, report %s" % (c_code, c_report)
        return None

    def check(self, outcome):
        self.decide_ops += 1
        reason = self.judge(outcome, self._read_cert()) or self.check_fingerprint()
        if reason is None:
            self.decided += 1
        return reason

    def items(self):
        return [Item(self.algebra, self.run, self.check)]

    def self_test(self):
        """A tampered certificate must count as a failure, both by its bytes
        and by check-cert rejecting it. Returns None or what went wrong."""
        tampered = self.frozen.replace(b"\ncoeff 210 1\n", b"\ncoeff 210 2\n")
        if tampered == self.frozen:
            return "self-test could not tamper with the frozen certificate"
        with open(self.cert_path, "wb") as fh:
            fh.write(tampered)
        check = self._cli("check-cert", "--lie", self.lie_path, "--cert", self.cert_path)
        os.remove(self.cert_path)
        self.probe.take()
        decide = (1, json.dumps(self.DECIDE_REPORT))
        if self.judge((decide, check), tampered) is None:
            return "tampered certificate passed the output check"
        code, out = check
        if code != 1 or json.loads(out).get("valid") is not False:
            return "check-cert accepted a tampered certificate"
        return None


class DecideN3C3(Workload):
    """decide_novikov on free-n3-c3, the largest condition system."""

    algebra = "free-n3-c3"

    def __init__(self, nv, workdir, seed, probe):
        super().__init__(nv, workdir, seed, probe)
        self.g = nv.fixtures.fixture(self.algebra)

    def run(self):
        return self.nv.certificate.decide_novikov(self.g)

    def warm_up(self):
        """The same pipeline on the small free-n2-c4; a full op here would
        cost as much as the measured loop."""
        c = self.nv.certificate
        cert = c.decide_novikov(self.nv.fixtures.fixture("free-n2-c4"))
        self.probe.take()
        if cert.verdict != c.NOT_EXISTS:
            return "free-n2-c4 gave %s" % cert.verdict
        return None

    def check(self, cert):
        c = self.nv.certificate
        self.decide_ops += 1
        reason = self.check_fingerprint()
        if reason:
            return reason
        # the free-n3-c3-product fixture is a Novikov structure on g
        if cert.verdict == c.NOT_EXISTS:
            return "not-exists on an algebra that has a Novikov structure"
        if cert.verdict == c.EXISTS:
            if not c.verify_certificate(self.g, cert):
                return "exists certificate failed verify_certificate"
            self.decided += 1
        elif cert.verdict != c.UNDETERMINED:
            return "unknown verdict %r" % cert.verdict
        return None

    def items(self):
        return [Item(self.algebra, self.run, self.check)]


class ConstructVerify(Workload):
    """Build a structure, then verify it with all four checks."""

    def __init__(self, nv, workdir, seed, probe):
        super().__init__(nv, workdir, seed, probe)
        self.corpus = corpus.build_corpus(nv, seed)
        self.verdicts = {}

    def _op(self, build):
        pr = self.nv.products
        p, g = build()
        return (
            pr.is_left_symmetric(p),
            pr.is_novikov(p),
            pr.is_compatible(p, g),
            pr.is_complete(p),
        )

    def _check(self, index, expect, outcome):
        lsa, nov, compat, complete = outcome
        if not lsa:
            return "is_left_symmetric: %r" % (lsa,)
        if expect["novikov"] is not None and bool(nov) != expect["novikov"]:
            return "is_novikov: %r" % (nov,)
        if expect["fail_label"] is not None and nov.label != expect["fail_label"]:
            return "is_novikov failed on %s, expected %s" % (nov.label, expect["fail_label"])
        if not compat:
            return "is_compatible: %r" % (compat,)
        want = expect["complete"]
        if want == "passes" and not complete.passes_nilpotency_checks:
            return "is_complete: %r" % (complete,)
        if want not in (None, "passes") and complete.kind != want:
            return "is_complete: %s, expected %s" % (complete.kind, want)
        # a Novikov product gets an exact answer; anything else a repeatable one
        if nov and complete.kind not in ("complete", "incomplete"):
            return "is_complete gave %s on a Novikov product" % complete.kind
        seen = (bool(nov), getattr(nov, "label", None), complete.kind)
        if self.verdicts.setdefault(index, seen) != seen:
            return "verdicts changed between runs: %s vs %s" % (seen, self.verdicts[index])
        return None

    def items(self):
        out = []
        for index, (kind, dim, build, expect) in enumerate(self.corpus):
            out.append(Item(
                "%s/%d" % (kind, dim),
                lambda build=build: self._op(build),
                lambda outcome, index=index, expect=expect: self._check(index, expect, outcome),
            ))
        return out

    def warm_up(self):
        """The smallest item of each kind, skipping the 14-dimensional table,
        which alone is about 40% of a pass."""
        kinds = {}
        for item, (kind, dim, _, _) in zip(self.items(), self.corpus):
            if dim < 14 and (kind not in kinds or dim < kinds[kind][0]):
                kinds[kind] = (dim, item)
        for _, item in kinds.values():
            reason = item.check(item.run())
            if reason:
                return "%s: %s" % (item.label, reason)
        return None

    def info(self):
        return {"corpus_mix": corpus.mix(self.corpus)}


WORKLOADS = {
    "refute-n2c4": RefuteN2C4,
    "decide-n3c3": DecideN3C3,
    "construct-verify": ConstructVerify,
}
