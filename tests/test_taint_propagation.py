"""Fixture corpus for the taint dataflow analysis (repro.analysis.taint).

Two halves, mirroring the acceptance criteria in docs/TAINT.md:

* ``PLANTED`` -- known-leaky snippets; every single one must be caught
  (100% recall over the corpus is asserted, not per-snippet best effort).
* ``CLEAN`` -- flows through sanitizers, declassification and untainted
  neighbours of tainted values; none may be flagged (precision floor).

Each snippet is analyzed through the filesystem-free
:meth:`TaintEngine.analyze_sources` entry point so the corpus never
touches disk and cannot itself trip the live-tree meta-test.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.framework import BAD_DIRECTIVE, PARSE_ERROR
from repro.analysis.taint import TaintEngine


def analyze(*files):
    """Analyze ``(relpath, source)`` pairs (sources are dedented)."""
    pairs = [(relpath, textwrap.dedent(source)) for relpath, source in files]
    return TaintEngine().analyze_sources(pairs)


def analyze_one(source, relpath="src/repro/demo/mod.py"):
    return analyze((relpath, source))


def live_rules(report):
    return sorted({finding.rule for finding in report.findings})


# ---------------------------------------------------------------------------
# Known-leaky corpus: every entry must produce its expected rule.
# ---------------------------------------------------------------------------

PLANTED = [
    (
        "print-direct",
        """
        def handle(secret):
            print(secret)
        """,
        "taint-print",
    ),
    (
        "log-method",
        """
        import logging

        logger = logging.getLogger(__name__)

        def handle(secret):
            logger.info("payload %s", secret)
        """,
        "taint-log",
    ),
    (
        "warnings-warn",
        """
        import warnings

        def handle(secret):
            warnings.warn(secret)
        """,
        "taint-log",
    ),
    (
        "trace-event",
        """
        def handle(tracer, secret):
            tracer.event("deliver", secret)
        """,
        "taint-trace",
    ),
    (
        "metrics-kwargs",
        """
        def handle(registry, secret):
            registry.counter("deliveries", label=secret)
        """,
        "taint-metrics",
    ),
    (
        "json-dump",
        """
        import json

        def handle(secret):
            return json.dumps({"payload": secret})
        """,
        "taint-persist",
    ),
    (
        "file-write",
        """
        def handle(handle, secret):
            handle.write(secret)
        """,
        "taint-persist",
    ),
    (
        "cache-put",
        """
        def handle(cache, secret):
            cache.put("latest", secret)
        """,
        "taint-persist",
    ),
    (
        "str-format",
        """
        def handle(secret):
            return str(secret)
        """,
        "taint-format",
    ),
    (
        "f-string",
        """
        def handle(secret):
            return f"payload={secret!r}"
        """,
        "taint-format",
    ),
    (
        "raise-exception",
        """
        def handle(secret):
            raise ValueError(secret)
        """,
        "taint-exception",
    ),
    (
        "assert-message",
        """
        def handle(secret, ok):
            assert ok, secret
        """,
        "taint-exception",
    ),
    (
        "assignment-chain",
        """
        def handle(secret):
            staged = secret
            copied = staged
            print(copied)
        """,
        "taint-print",
    ),
    (
        "augmented-assignment",
        """
        def handle(secret):
            buf = b""
            buf += secret
            print(buf)
        """,
        "taint-print",
    ),
    (
        "container-element",
        """
        def handle(secret):
            batch = [secret]
            print(batch[0])
        """,
        "taint-print",
    ),
    (
        "loop-variable",
        """
        def handle(secrets):
            for item in secrets:
                print(item)
        """,
        "taint-print",
    ),
    (
        "f-string-then-print",
        """
        def handle(secret):
            message = "v=" + repr(secret)
            print(message)
        """,
        "taint-print",
    ),
    (
        "self-attribute-flow",
        """
        class Buffer:
            def __init__(self, secret):
                self.data = secret

            def dump(self):
                print(self.data)
        """,
        "taint-print",
    ),
    (
        "dataclass-field-flow",
        """
        from dataclasses import dataclass

        @dataclass
        class Packet:
            payload: bytes
            seq: int

        def handle(secret):
            pkt = Packet(secret, 1)
            print(pkt.payload)
        """,
        "taint-print",
    ),
    (
        "call-into-sink",
        """
        def emit(data):
            print(data)

        def handle(secret):
            emit(secret)
        """,
        "taint-call",
    ),
    (
        "two-level-call-chain",
        """
        def inner(x):
            print(x)

        def outer(y):
            inner(y)

        def handle(secret):
            outer(secret)
        """,
        "taint-call",
    ),
    (
        "return-flow",
        """
        def passthrough(x):
            return x

        def handle(secret):
            staged = passthrough(secret)
            print(staged)
        """,
        "taint-print",
    ),
    (
        "source-call-reconstruct",
        """
        def handle(scheme, shares):
            recovered = scheme.reconstruct(shares)
            print(recovered)
        """,
        "taint-print",
    ),
    (
        "source-call-robust",
        """
        from repro.sharing.robust import robust_reconstruct

        def handle(shares):
            print(robust_reconstruct(shares))
        """,
        "taint-print",
    ),
    (
        "annotated-source",
        """
        def handle(reader):
            material = reader.fetch()  # taint: source=keyfile
            print(material)
        """,
        "taint-print",
    ),
    (
        "annotated-sink",
        """
        def handle(transmit, secret):
            transmit(secret)  # taint: sink=uplink
        """,
        "taint-sink",
    ),
]


@pytest.mark.parametrize(
    "source, expected_rule",
    [(source, rule) for _, source, rule in PLANTED],
    ids=[name for name, _, _ in PLANTED],
)
def test_planted_leak_is_caught(source, expected_rule):
    report = analyze_one(source)
    assert expected_rule in live_rules(report), (
        f"expected {expected_rule}, got {live_rules(report)}: "
        f"{[f.render() for f in report.findings]}"
    )


def test_corpus_recall_is_total():
    """The acceptance bar: 100% of planted leaks caught, not 'most'."""
    missed = []
    for name, source, expected_rule in PLANTED:
        report = analyze_one(source)
        if expected_rule not in live_rules(report):
            missed.append(name)
    assert missed == []


# ---------------------------------------------------------------------------
# Clean corpus: sanitized / declassified / untainted -- zero findings.
# ---------------------------------------------------------------------------

CLEAN = [
    (
        "len-is-sanitized",
        """
        def handle(secret):
            print(len(secret))
        """,
    ),
    (
        "digest-is-sanitized",
        """
        import hashlib

        def handle(secret):
            print(hashlib.sha256(secret).hexdigest())
        """,
    ),
    (
        "redact-bytes-is-sanitized",
        """
        from repro.redact import redact_bytes

        def handle(secret):
            print(redact_bytes(secret))
        """,
    ),
    (
        "split-output-is-shares",
        """
        def handle(scheme, secret, rng):
            shares = scheme.split(secret, 2, 3, rng)
            print(len(shares))
        """,
    ),
    (
        "comparison-declassifies",
        """
        def handle(secret, expected):
            matches = secret == expected
            print(matches)
        """,
    ),
    (
        "enumerate-counter-is-clean",
        """
        def handle(secrets):
            for index, item in enumerate(secrets):
                print(index)
        """,
    ),
    (
        "tuple-unpack-precision",
        """
        def handle(secret):
            hot, cold = secret, 1
            print(cold)
        """,
    ),
    (
        "dataclass-clean-field",
        """
        from dataclasses import dataclass

        @dataclass
        class Packet:
            payload: bytes
            seq: int

        def handle(secret):
            pkt = Packet(secret, 7)
            print(pkt.seq)
        """,
    ),
    (
        "metrics-positional-is-clean",
        """
        def handle(registry, secret):
            registry.counter("deliveries", 1)
        """,
    ),
    (
        "declassified-annotation",
        """
        def handle(mask, secret):
            summary = mask(secret)  # taint: declassified
            print(summary)
        """,
    ),
    (
        "untainted-print",
        """
        def handle(count):
            print("delivered", count)
        """,
    ),
    (
        "directive-in-string-is-inert",
        '''
        DOC = """
        Suppress with  # taint: disable=not-a-rule
        """

        def handle(count):
            return count + 1
        ''',
    ),
]


@pytest.mark.parametrize(
    "source",
    [source for _, source in CLEAN],
    ids=[name for name, _ in CLEAN],
)
def test_clean_snippet_is_not_flagged(source):
    report = analyze_one(source)
    assert report.findings == [], [f.render() for f in report.findings]


# ---------------------------------------------------------------------------
# Cross-module propagation and the directive machinery.
# ---------------------------------------------------------------------------


class TestCrossModule:
    def test_call_edge_across_modules(self):
        report = analyze(
            (
                "src/repro/demo/emitter.py",
                """
                def emit(data):
                    print(data)
                """,
            ),
            (
                "src/repro/demo/caller.py",
                """
                from repro.demo.emitter import emit

                def handle(secret):
                    emit(secret)
                """,
            ),
        )
        rules = live_rules(report)
        assert "taint-call" in rules
        (finding,) = [f for f in report.findings if f.rule == "taint-call"]
        assert finding.file == "src/repro/demo/caller.py"
        assert "emit()" in finding.message
        assert "taint-print" in finding.message

    def test_return_taint_across_modules(self):
        report = analyze(
            (
                "src/repro/demo/producer.py",
                """
                def recover(scheme, shares):
                    return scheme.reconstruct(shares)
                """,
            ),
            (
                "src/repro/demo/consumer.py",
                """
                from repro.demo.producer import recover

                def handle(scheme, shares):
                    print(recover(scheme, shares))
                """,
            ),
        )
        assert "taint-print" in live_rules(report)

    def test_finding_names_its_origin(self):
        report = analyze_one(
            """
            def handle(secret):
                print(secret)
            """
        )
        (finding,) = report.findings
        assert "secret" in finding.message
        assert "origins:" in finding.message


class TestDirectives:
    def test_disable_suppresses_finding(self):
        report = analyze_one(
            """
            def handle(secret):
                # Justified: demonstration fixture, not a real sink.
                print(secret)  # taint: disable=taint-print
            """
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["taint-print"]

    def test_disable_covers_only_its_line(self):
        report = analyze_one(
            """
            def handle(secret):
                # taint: disable=taint-print
                print(secret)
            """
        )
        assert live_rules(report) == ["taint-print"]
        assert report.suppressed == []

    def test_unknown_rule_in_directive_is_flagged(self):
        report = analyze_one(
            """
            def handle(count):
                return count  # taint: disable=no-such-rule
            """
        )
        assert live_rules(report) == [BAD_DIRECTIVE]

    def test_lint_directive_does_not_affect_taint(self):
        """`# lint: disable=` must not silence the taint analyzer."""
        report = analyze_one(
            """
            def handle(secret):
                print(secret)  # lint: disable=taint-print
            """
        )
        assert "taint-print" in live_rules(report)

    def test_parse_error_is_reported(self):
        report = analyze_one("def broken(:\n")
        assert live_rules(report) == [PARSE_ERROR]
        assert not report.ok

    def test_source_annotation_on_def_line(self):
        report = analyze_one(
            """
            def deliver(blob):  # taint: source=blob
                print(blob)
            """
        )
        assert "taint-print" in live_rules(report)


class TestReportShape:
    def test_findings_are_sorted_and_deduplicated(self):
        report = analyze_one(
            """
            def handle(secret):
                print(secret)
                print(secret)
            """
        )
        assert len(report.findings) == 2
        assert report.findings == sorted(report.findings)
        assert len(set(report.findings)) == 2

    def test_rule_counts_and_summary(self):
        report = analyze_one(
            """
            def handle(secret):
                print(secret)
            """
        )
        assert report.rule_counts() == {"taint-print": 1}
        assert "1 finding(s)" in report.summary()
        assert not report.ok
