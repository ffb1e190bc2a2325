#!/usr/bin/env python3
"""Unit and end-to-end tests for tools/lint/aqv_lint.py.

Complements `aqv_lint --fixtures` (which proves every rule fires and
passes on committed fixture files) with checker-internals coverage — the
comment/string/digit-separator stripper, suppression parsing, guard
derivation — and subprocess-level gate proofs: a seeded layering
violation and a seeded unchecked-Status-style discard annotation must
fail a full run, and a clean synthetic tree must pass. Stdlib only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "lint", "aqv_lint.py")
sys.path.insert(0, os.path.dirname(LINT))

import aqv_lint  # noqa: E402


def findings_for(path, text):
    out = []
    aqv_lint.check_file(path, text, out)
    return [(f.line, f.rule) for f in out]


class StripCodeTest(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = ('int a; // rand(\n/* throw\nthrow */ int b;\n'
                'const char* s = "fsync(";\n')
        stripped = aqv_lint.strip_code(text)
        self.assertEqual(text.count("\n"), stripped.count("\n"))
        self.assertNotIn("rand(", stripped)
        self.assertNotIn("throw", stripped)
        self.assertNotIn("fsync(", stripped)

    def test_digit_separators_are_not_char_literals(self):
        # The original stripper treated 100'000's apostrophe as an opening
        # quote and swallowed everything to the next apostrophe — lines,
        # violations, and all.
        text = "uint64_t cap = 100'000;\nint bad = rand();\n"
        stripped = aqv_lint.strip_code(text)
        self.assertIn("rand()", stripped)
        self.assertEqual(stripped.count("\n"), 2)

    def test_char_literals_still_stripped(self):
        stripped = aqv_lint.strip_code("char c = 'x'; char q = '\\'';\n")
        self.assertNotIn("x", stripped)

    def test_raw_strings(self):
        text = 'const char* r = R"(rand() throw\nfsync()derp)";\nint x;\n'
        stripped = aqv_lint.strip_code(text)
        self.assertNotIn("rand", stripped)
        self.assertEqual(stripped.count("\n"), text.count("\n"))


class RuleScopingTest(unittest.TestCase):
    def test_layering_reads_path_from_raw_line(self):
        # String literals are blanked by the stripper; the include path
        # must still be recovered (regression: every edge once read as "").
        hits = findings_for("src/util/x.cc", '#include "cq/query.h"\n')
        self.assertIn((1, "layering"), hits)

    def test_commented_include_is_not_an_edge(self):
        hits = findings_for("src/util/x.cc",
                            '// #include "frontend/server.h"\n')
        self.assertEqual(hits, [])

    def test_rewriting_includes_eval_but_never_the_reverse(self):
        self.assertEqual(
            findings_for("src/rewriting/b.cc",
                         '#include "eval/database.h"\n'), [])
        self.assertIn(
            (1, "layering"),
            findings_for("src/eval/a.cc",
                         '#include "rewriting/inverse_rules.h"\n'))

    def test_only_frontend_reaches_service(self):
        self.assertEqual(
            findings_for("src/frontend/x.cc",
                         '#include "service/service.h"\n'), [])
        self.assertIn(
            (1, "layering"),
            findings_for("src/storage/x.cc",
                         '#include "service/service.h"\n'))

    def test_nothing_includes_frontend(self):
        for module in ("util", "service", "workload", "storage"):
            self.assertIn(
                (1, "layering"),
                findings_for("src/%s/x.cc" % module,
                             '#include "frontend/session.h"\n'))

    def test_tests_and_bench_are_exempt_from_layering(self):
        text = '#include "frontend/server.h"\n#include "service/service.h"\n'
        self.assertEqual(findings_for("tests/test_x.cc", text), [])
        self.assertEqual(findings_for("bench/bench_x.cc", text), [])

    def test_determinism_applies_to_tests_too(self):
        self.assertIn((1, "determinism"),
                      findings_for("tests/test_x.cc", "int r = rand();\n"))

    def test_storage_fs_exempts_fs_cc_only(self):
        call = "int rc = fsync(fd);\n"
        self.assertEqual(findings_for("src/storage/fs.cc", call), [])
        self.assertIn((1, "storage-fs"),
                      findings_for("src/storage/store.cc", call))

    def test_nodiscard_checks_headers_not_impls(self):
        decl = "Status Frob(int x);\n"
        self.assertIn((1, "nodiscard-decl"),
                      findings_for("src/cq/x.h", decl))
        self.assertEqual(findings_for("src/cq/x.cc", decl), [])

    def test_nodiscard_accepts_prev_line_attribute(self):
        text = ("#ifndef AQV_CQ_X_H_\n#define AQV_CQ_X_H_\n"
                "[[nodiscard]]\nStatus Frob(int x);\n"
                "#endif  // AQV_CQ_X_H_\n")
        self.assertEqual(findings_for("src/cq/x.h", text), [])


class SuppressionTest(unittest.TestCase):
    def test_same_line_disable(self):
        hits = findings_for(
            "src/cq/x.cc",
            "int r = rand();  // aqv-lint: disable=determinism\n")
        self.assertEqual(hits, [])

    def test_disable_next_line(self):
        hits = findings_for(
            "src/cq/x.cc",
            "// aqv-lint: disable-next-line=determinism\nint r = rand();\n")
        self.assertEqual(hits, [])

    def test_disable_wrong_rule_does_not_silence(self):
        hits = findings_for(
            "src/cq/x.cc",
            "int r = rand();  // aqv-lint: disable=no-throw\n")
        self.assertIn((1, "determinism"), hits)

    def test_unknown_rule_is_a_finding(self):
        hits = findings_for(
            "src/cq/x.cc", "int x;  // aqv-lint: disable=bogus-rule\n")
        self.assertIn((1, "suppression"), hits)


class GuardTest(unittest.TestCase):
    def test_expected_guard_derivation(self):
        self.assertEqual(aqv_lint.expected_guard("src/eval/mmap_store.h"),
                         "AQV_EVAL_MMAP_STORE_H_")

    def test_wrong_guard_flagged_at_ifndef_line(self):
        text = "// hi\n\n#ifndef WRONG_H\n#define WRONG_H\n#endif\n"
        self.assertIn((3, "include-guard"),
                      findings_for("src/cq/term.h", text))

    def test_missing_guard_flagged(self):
        self.assertIn((1, "include-guard"),
                      findings_for("src/cq/term.h", "#pragma once\nint x;\n"))


class DagSanityTest(unittest.TestCase):
    def test_allowed_covers_every_module(self):
        self.assertEqual(set(aqv_lint.ALLOWED), set(aqv_lint.MODULES))
        for module, deps in aqv_lint.ALLOWED.items():
            self.assertIn(module, deps)
            self.assertTrue(deps <= set(aqv_lint.MODULES))

    def test_the_module_graph_is_acyclic(self):
        # Peel off modules whose other dependencies are all peeled; a
        # cycle leaves modules that can never be peeled.
        left = {m: aqv_lint.ALLOWED[m] - {m} for m in aqv_lint.MODULES}
        while True:
            ready = [m for m, deps in left.items() if not deps & set(left)]
            if not ready:
                break
            for m in ready:
                del left[m]
        self.assertEqual(left, {})


class EndToEndGateTest(unittest.TestCase):
    """Subprocess-level proof that the gate gates: seeded violations in a
    synthetic tree must fail the run; the clean version must pass."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="aqv_lint_e2e_")
        os.makedirs(os.path.join(self.root, "src", "util"))

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def run_lint(self):
        return subprocess.run(
            [sys.executable, LINT, "--root", self.root, "src"],
            capture_output=True, text=True)

    def test_clean_tree_passes(self):
        self.write("src/util/ok.cc", "int answer() { return 42; }\n")
        proc = self.run_lint()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_seeded_layering_violation_fails(self):
        self.write("src/util/breach.cc",
                   '#include "frontend/session.h"\nint x;\n')
        proc = self.run_lint()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[layering]", proc.stdout)

    def test_seeded_unchecked_discard_decl_fails(self):
        self.write("src/util/drop.h",
                   "#ifndef AQV_UTIL_DROP_H_\n#define AQV_UTIL_DROP_H_\n"
                   "Status Save(int x);\n"
                   "#endif  // AQV_UTIL_DROP_H_\n")
        proc = self.run_lint()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[nodiscard-decl]", proc.stdout)

    def test_fixture_mode_self_checks(self):
        proc = subprocess.run([sys.executable, LINT, "--fixtures"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
