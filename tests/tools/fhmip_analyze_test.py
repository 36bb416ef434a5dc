#!/usr/bin/env python3
"""Fixture tests for fhmip_analyze.

Stages the deliberately-broken corpus from tests/tools/fixtures/ into a
temporary repo root (under src/, so the src-gated rules DET-01/AUD-01 see
it), runs the analyzer CLI per rule, and asserts the exact rule IDs and
line numbers of every active and suppressed finding. Also covers the
baseline round-trip (write → clean run → stale detection) and the
acceptance scenario: LIFE-01 re-detects the PR 1 dangling-handler pattern
reintroduced against a scratch copy of the real src/net/node.hpp.

Run directly or via ctest (registered as fhmip_analyze_fixtures).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ANALYZE = REPO / "tools" / "analyze" / "fhmip_analyze.py"
FIXTURES = REPO / "tests" / "tools" / "fixtures"


def run_analyze(root, *args):
    """Returns (exit_code, stdout, findings) where findings is the list of
    (rule, path, line, suppressed) tuples parsed from the SARIF output."""
    out_json = Path(root) / "out.json"
    proc = subprocess.run(
        [sys.executable, str(ANALYZE), str(root), "src",
         "--json", str(out_json), *args],
        capture_output=True, text=True)
    findings = []
    if out_json.exists():
        doc = json.loads(out_json.read_text())
        for r in doc["runs"][0]["results"]:
            if r["ruleId"] == "stale-baseline":
                findings.append(("stale-baseline", "", 0, False))
                continue
            loc = r["locations"][0]["physicalLocation"]
            findings.append((r["ruleId"],
                             loc["artifactLocation"]["uri"],
                             loc["region"]["startLine"],
                             bool(r.get("suppressions"))))
    return proc.returncode, proc.stdout + proc.stderr, findings


class FixtureRoot(unittest.TestCase):
    """Each test gets a scratch root with the corpus staged under src/."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="fhmip_analyze_")
        self.root = Path(self._tmp.name)
        (self.root / "src").mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def stage(self, fixture, dest=None):
        dst = self.root / "src" / (dest or fixture)
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / fixture, dst)
        return "src/" + (dest or fixture)

    def assert_findings(self, rule, path, active_lines, suppressed_lines,
                        extra=()):
        code, out, findings = run_analyze(self.root, "--no-baseline",
                                          "--rules", rule, *extra)
        got_active = sorted(l for r, p, l, s in findings
                            if r == rule and p == path and not s)
        got_suppressed = sorted(l for r, p, l, s in findings
                                if r == rule and p == path and s)
        self.assertEqual(got_active, sorted(active_lines), out)
        self.assertEqual(got_suppressed, sorted(suppressed_lines), out)
        self.assertEqual(code, 1 if active_lines else 0, out)


class TestSemanticRules(FixtureRoot):
    def test_life01_fires_and_suppresses(self):
        p = self.stage("life01.hpp")
        # Positive in LeakyTicker::arm; NOLINT in JustifiedTicker::arm;
        # TidyTicker cancels in its destructor and stays silent.
        self.assert_findings("LIFE-01", p, [11], [24])

    def test_det01_fires_and_suppresses(self):
        p = self.stage("det01.hpp")
        # steady_clock read + pointer-keyed map are active; the reported
        # clock read and the two time_point fields are NOLINTed.
        self.assert_findings("DET-01", p, [10, 24], [14, 18, 19])

    def test_det02_fires_and_suppresses(self):
        p = self.stage("det02.hpp")
        # Hash-order push_back loop is active; the NOLINTed twin is
        # suppressed; the collect-then-sort snapshot variant is silent.
        self.assert_findings("DET-02", p, [11], [16])

    def test_det02_covers_obs_export_surfaces(self):
        # emit()/to_json()-style renderings are byte-compared by the
        # golden-trace and sweep determinism tests, so feeding them from a
        # hash-ordered loop must fire like any print; the sorted-snapshot
        # variant stays silent.
        p = self.stage("det02_obs.hpp")
        self.assert_findings("DET-02", p, [12], [17])

    def test_det02_covers_the_open_addressed_int_map(self):
        # IntMap iterates in hash-slot order: the push_back loop is active,
        # its NOLINTed twin suppressed, the sorted snapshot silent.
        p = self.stage("det02_intmap.hpp")
        self.assert_findings("DET-02", p, [12], [17])

    def test_aud01_fires_and_suppresses(self):
        p = self.stage("aud01.hpp")
        # bump() mutates without auditing; bump_quiet() is NOLINTed;
        # bump_checked() delegates to the auditing check().
        self.assert_findings("AUD-01", p, [12], [16])

    def test_aud01_sees_writes_through_local_references(self):
        p = self.stage("aud01_alias.hpp")
        # attach/bump/wipe write through a reference bound to hosts_[k],
        # hosts_.at(k) and hosts_; peek reads through a const reference,
        # attached only reads, and local_only writes through a reference to a
        # local: those three stay silent.
        self.assert_findings("AUD-01", p, [19, 24, 29], [])

    def test_aud01_sees_writes_through_iterators(self):
        p = self.stage("aud01_iter.hpp")
        # detach/bump_first/clear_from write through iterators from
        # find/begin/lower_bound (clear_from via a reference to the
        # iterator's element); total only reads and advances its iterator,
        # linked only reads, and first_count holds a const_iterator: those
        # three stay silent.
        self.assert_findings("AUD-01", p, [19, 25, 30], [])

    def test_aud01_sees_writes_through_member_table_accessors(self):
        p = self.stage("aud01_accessor.hpp")
        # attach writes through the Host& that host() returns and detach
        # through the Host* of find_host(); peek holds a const pointer,
        # scribble writes through the static spare() (no field behind it),
        # attached only reads: those three stay silent.
        self.assert_findings("AUD-01", p, [20, 25], [])

    def test_aud01_delegates_only_through_calls_on_this(self):
        p = self.stage("aud01_receiver.hpp")
        # flush() calls the same-named drain() of its queue member: not a
        # delegation, so it is reported; settle() calls this->drain().
        self.assert_findings("AUD-01", p, [17], [])

    def test_exc01_fires_and_suppresses(self):
        p = self.stage("exc01.hpp")
        # Throwing dtor is active; noexcept throw is NOLINTed; caught
        # throw and noexcept(false) dtor are silent.
        self.assert_findings("EXC-01", p, [11], [21])

    def test_legacy_lint_rule_folded(self):
        p = self.stage("lint_legacy.hpp")
        self.assert_findings("banned-random", p, [8], [12])


class TestLexerCorners(FixtureRoot):
    def test_raw_strings_separators_and_slashes_in_strings(self):
        # Raw-string body (with a quote, a //, and a rand()) is inert and
        # keeps line numbers in sync for the NOLINT after it; // inside a
        # regular string does not comment out the rest of the line; a
        # digit separator does not open a char literal.
        p = self.stage("lex_corners.hpp")
        self.assert_findings("banned-random", p, [17, 21], [13])


ROOTS = ("--roots", str(FIXTURES / "roots_fixture.toml"))


class TestCallGraphRules(FixtureRoot):
    def test_perf01_reachable_allocations(self):
        # Map subscript, vector growth, and a configured alloc call, all
        # reachable from the declared root; the unreachable cold_path and
        # the NOLINTed scratch vector stay out.
        p = self.stage("perf01.hpp")
        self.assert_findings("PERF-01", p, [22, 27, 28], [37], extra=ROOTS)

    def test_perf01_sees_std_containers_next_to_a_std_specialization(self):
        # A `struct std::hash<...>` specialization elsewhere in the program
        # must not turn `std` into a program class, which would hide the
        # std::vector growth in store().
        p = self.stage("perf01.hpp")
        self.stage("perf01_std_hash.hpp")
        self.assert_findings("PERF-01", p, [22, 27, 28], [37], extra=ROOTS)

    def test_perf01_multi_hop_reachability_path(self):
        # The store() findings sit two hops below the root; both the text
        # report and the SARIF codeFlow carry the full chain.
        self.stage("perf01.hpp")
        code, out, _ = run_analyze(self.root, "--no-baseline",
                                   "--rules", "PERF-01", *ROOTS)
        self.assertEqual(code, 1, out)
        chain = "Forwarder::transmit -> Forwarder::enqueue -> Forwarder::store"
        self.assertIn("reachable via: " + chain, out)
        doc = json.loads((self.root / "out.json").read_text())
        flows = [loc["location"]["message"]["text"]
                 for r in doc["runs"][0]["results"]
                 if r.get("codeFlows")
                 for loc in r["codeFlows"][0]["threadFlows"][0]["locations"]]
        self.assertIn("Forwarder::store", flows, out)

    def test_perf01_unmatched_root_is_a_finding(self):
        self.stage("perf01.hpp")
        bad = self.root / "bad_roots.toml"
        bad.write_text('[PERF-01]\nroots = ["Gone::away"]\n')
        code, out, findings = run_analyze(
            self.root, "--no-baseline", "--rules", "PERF-01",
            "--roots", str(bad))
        self.assertEqual(code, 1, out)
        self.assertIn(("PERF-01", "tools/analyze/roots.toml", 1, False),
                      findings, out)

    def test_conc01_sweep_reachable_global_state(self):
        # helper() touches the bare global via the sweep root; the atomic
        # twin is silent and the justified touch is suppressed.
        p = self.stage("conc01.hpp")
        self.assert_findings("CONC-01", p, [11], [19], extra=ROOTS)

    def test_proto01_send_guard_pairing(self):
        # BareSender sends an unguarded request (active), and so does
        # SiblingGuardedSender, whose timer is armed only by another method
        # of its class (active); GuardedSender arms in the sending function
        # and CalleeGuardedSender in a function it calls (both silent);
        # Responder only names the type as a template argument (exempt);
        # JustifiedSender is NOLINTed.
        p = self.stage("proto01.hpp", "fastho/proto01.hpp")
        self.assert_findings("PROTO-01", p, [26, 39], [96], extra=ROOTS)

    def test_proto01_anchors_at_the_send_after_construction(self):
        # A function that first answers with an exempt ack and then builds
        # and sends a request is reported at the request's send, so the
        # suppression sits next to the send it excuses.
        p = "src/fastho/proto01_anchor.hpp"
        (self.root / "src" / "fastho").mkdir(parents=True, exist_ok=True)
        (self.root / p).write_text(
            "struct FbuMsg { int id = 0; };\n"
            "struct AckMsg { int id = 0; };\n"
            "struct Sock { void send(const FbuMsg&) {} "
            "void send(const AckMsg&) {} };\n"
            "class Relay {\n"
            " public:\n"
            "  void on_msg() {\n"
            "    sock_.send(ack_);\n"
            "    FbuMsg m;\n"
            "    sock_.send(m);\n"
            "  }\n"
            " private:\n"
            "  Sock sock_;\n"
            "  AckMsg ack_;\n"
            "};\n")
        self.assert_findings("PROTO-01", p, [9], [], extra=ROOTS)


class TestDataflowRules(FixtureRoot):
    def test_flow01_path_shapes(self):
        # double_terminal's second move (16), branch_divergent's merge leak
        # (the if line, 23), overwrite (31), and the loop-carried double on
        # the unrolled second iteration (39). move_out, accounted,
        # null_checked, and the drop sink stay silent; the justified leak
        # is NOLINTed at the merge line.
        p = self.stage("flow01.hpp")
        self.assert_findings("FLOW-01", p, [16, 23, 31, 39], [62],
                             extra=ROOTS)

    def test_unit01_shapes(self):
        # U1 mixed views (7), U2 raw factor both operand orders (10, 11),
        # U3 raw literal on .ns() (14), U4 float into an integer named
        # constructor (17); the justified conversion is NOLINTed (20).
        p = self.stage("unit01.hpp")
        self.assert_findings("UNIT-01", p, [7, 10, 11, 14, 17], [20],
                             extra=ROOTS)

    def test_unit01_exempt_file_is_silent(self):
        # The same violations staged under an exempt_files path (the
        # SimTime-implementation carve-out) produce nothing.
        p = self.stage("unit01.hpp", "unit01_exempt.hpp")
        self.assert_findings("UNIT-01", p, [], [], extra=ROOTS)


PROTO02 = FIXTURES / "proto02"


class TestProtocolConformance(FixtureRoot):
    """PROTO-02 against the scratch ping/pong tree: clean as shipped, and
    provably failing when one leg of the reliability quad is removed."""

    def stage_tree(self):
        shutil.copytree(PROTO02 / "src", self.root / "src",
                        dirs_exist_ok=True)
        shutil.copytree(PROTO02 / "tests", self.root / "tests")
        shutil.copy(PROTO02 / "protocol.toml", self.root / "protocol.toml")

    def run_proto(self):
        return run_analyze(self.root, "--no-baseline",
                           "--rules", "PROTO-02",
                           "--protocol", str(self.root / "protocol.toml"))

    def mutate(self, rel, old, new):
        f = self.root / rel
        text = f.read_text()
        self.assertIn(old, text, f"fixture drifted: {old!r} not in {rel}")
        f.write_text(text.replace(old, new))

    def test_conforming_tree_is_clean(self):
        self.stage_tree()
        code, out, findings = self.run_proto()
        self.assertEqual(code, 0, out)
        self.assertEqual([f for f in findings if not f[3]], [], out)

    def test_missing_retransmit_guard_fails(self):
        self.stage_tree()
        self.mutate("src/agent.cpp", "  arm();\n", "")
        code, out, findings = self.run_proto()
        self.assertEqual(code, 1, out)
        self.assertIn(("PROTO-02", "src/messages.hpp", 5, False),
                      findings, out)
        self.assertIn("retransmission-timer guard", out)

    def test_missing_dedup_state_fails(self):
        self.stage_tree()
        for rel in ("src/agent.hpp", "src/agent.cpp"):
            self.mutate(rel, "dup_ping_", "dup_gone_")
        code, out, findings = self.run_proto()
        self.assertEqual(code, 1, out)
        self.assertIn(("PROTO-02", "src/messages.hpp", 5, False),
                      findings, out)
        self.assertIn("not provably duplicate-safe", out)

    def test_missing_fault_matrix_row_fails(self):
        self.stage_tree()
        self.mutate("tests/fault_matrix.cpp", '"Ping"', '"PingRetired"')
        code, out, findings = self.run_proto()
        self.assertEqual(code, 1, out)
        self.assertIn(("PROTO-02", "src/messages.hpp", 5, False),
                      findings, out)
        self.assertIn("fault-matrix row", out)

    def test_missing_receiver_fails(self):
        self.stage_tree()
        self.mutate("src/agent.cpp",
                    "std::get_if<PongMsg>(&m) != nullptr", "false")
        code, out, findings = self.run_proto()
        self.assertEqual(code, 1, out)
        self.assertIn(("PROTO-02", "src/messages.hpp", 6, False),
                      findings, out)
        self.assertIn("has no receiver", out)

    def test_uncatalogued_alternative_fails(self):
        self.stage_tree()
        self.mutate("src/messages.hpp", "struct LegacyMsg {};",
                    "struct LegacyMsg {};\nstruct RogueMsg {};")
        self.mutate("src/messages.hpp", "LegacyMsg>;",
                    "LegacyMsg, RogueMsg>;")
        code, out, findings = self.run_proto()
        self.assertEqual(code, 1, out)
        self.assertIn(("PROTO-02", "src/messages.hpp", 8, False),
                      findings, out)
        self.assertIn("not catalogued", out)

    def test_absent_catalogue_skips(self):
        self.stage_tree()
        (self.root / "protocol.toml").unlink()
        code, out, findings = self.run_proto()
        self.assertEqual(code, 0, out)
        self.assertEqual(findings, [], out)


class TestTierOutput(FixtureRoot):
    def test_json_per_tier_splits_by_tier(self):
        self.stage("flow01.hpp")
        self.stage("lint_legacy.hpp")
        outdir = self.root / "sarif"
        run_analyze(self.root, "--no-baseline",
                    "--json-per-tier", str(outdir), *ROOTS)
        flow = json.loads((outdir / "analyze-dataflow.sarif").read_text())
        lint = json.loads((outdir / "analyze-lint.sarif").read_text())
        flow_rules = {r["ruleId"] for r in flow["runs"][0]["results"]}
        lint_rules = {r["ruleId"] for r in lint["runs"][0]["results"]}
        self.assertIn("FLOW-01", flow_rules)
        self.assertIn("banned-random", lint_rules)
        self.assertNotIn("banned-random", flow_rules)
        self.assertNotIn("FLOW-01", lint_rules)

    def test_tier_filter_selects_dataflow_rules(self):
        self.stage("flow01.hpp")
        self.stage("lint_legacy.hpp")
        code, out, findings = run_analyze(self.root, "--no-baseline",
                                          "--tier", "dataflow", *ROOTS)
        self.assertEqual(code, 1, out)
        rules = {r for r, _, _, s in findings if not s}
        self.assertIn("FLOW-01", rules)
        self.assertNotIn("banned-random", rules)


class TestFixBaseline(FixtureRoot):
    def write_bl(self, bl):
        subprocess.run(
            [sys.executable, str(ANALYZE), str(self.root), "src",
             "--write-baseline", "--baseline", str(bl)],
            capture_output=True, text=True, check=True)

    def fix_bl(self, bl):
        return subprocess.run(
            [sys.executable, str(ANALYZE), str(self.root), "src",
             "--fix-baseline", "--baseline", str(bl)],
            capture_output=True, text=True)

    def test_rewrite_preserves_justifications(self):
        src = self.root / "src" / "fixme.hpp"
        src.write_text("#pragma once\nint jitter() { return rand(); }\n")
        bl = self.root / "baseline.txt"
        self.write_bl(bl)
        bl.write_text(bl.read_text().replace(
            "TODO: justify or fix", "reviewed: fixture scratch jitter"))
        code, out, _ = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 0, out)

        # The flagged line changes shape: the fingerprint goes stale while
        # the finding (same rule, same file) persists. --fix-baseline must
        # rewrite the fingerprint in place and keep the justification.
        src.write_text("#pragma once\nint jitter() { return rand() % 7; }\n")
        code, out, _ = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 1, out)
        self.assertIn("stale", out)

        proc = self.fix_bl(bl)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("1 fingerprint(s) rewritten", proc.stdout)
        text = bl.read_text()
        self.assertIn("reviewed: fixture scratch jitter", text)
        self.assertNotIn("TODO", text)
        code, out, _ = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 0, out)

    def test_deletes_dead_entries_and_appends_new_findings(self):
        a = self.root / "src" / "a.hpp"
        b = self.root / "src" / "b.hpp"
        a.write_text("#pragma once\nint one() { return rand(); }\n")
        bl = self.root / "baseline.txt"
        self.write_bl(bl)
        bl.write_text(bl.read_text().replace(
            "TODO: justify or fix", "old entry for a"))
        # a.hpp's violation disappears entirely; b.hpp gains a new one.
        a.write_text("#pragma once\nint one() { return 1; }\n")
        b.write_text("#pragma once\nint two() { return rand(); }\n")
        proc = self.fix_bl(bl)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        text = bl.read_text()
        self.assertNotIn("old entry for a", text)
        self.assertNotIn("src/a.hpp", text)
        self.assertIn("src/b.hpp", text)
        self.assertIn("new findings", text)
        self.assertIn("TODO: justify or fix", text)
        code, out, _ = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 0, out)


class TestTokenCacheIdentity(FixtureRoot):
    def test_cached_and_cold_runs_produce_identical_findings(self):
        self.stage("perf01.hpp")
        self.stage("conc01.hpp")
        self.stage("lex_corners.hpp")
        cold = run_analyze(self.root, "--no-baseline", "--no-cache", *ROOTS)
        warm_fill = run_analyze(self.root, "--no-baseline", *ROOTS)
        warm_hit = run_analyze(self.root, "--no-baseline", *ROOTS)
        cache_dir = self.root / "build" / "analyze_cache"
        self.assertTrue(any(cache_dir.rglob("*.pkl")),
                        "cache produced no entries")
        self.assertEqual(cold[2], warm_fill[2], warm_fill[1])
        self.assertEqual(cold[2], warm_hit[2], warm_hit[1])
        self.assertEqual(cold[0], warm_hit[0])

    def test_edited_file_invalidates_its_entry(self):
        p = self.stage("conc01.hpp")
        before = run_analyze(self.root, "--no-baseline",
                             "--rules", "CONC-01", *ROOTS)
        src = self.root / p
        src.write_text("\n" + src.read_text())  # shift every line by one
        after = run_analyze(self.root, "--no-baseline",
                            "--rules", "CONC-01", *ROOTS)
        shifted = [(r, pp, l + 1, s) for r, pp, l, s in before[2]]
        self.assertEqual(sorted(shifted), sorted(after[2]), after[1])

    def test_spec_edit_starts_fresh_cache_version(self):
        # The cache directory is versioned by a digest over the analyzer
        # sources and spec files; editing a spec passed on the command
        # line must land in a fresh version dir and prune the old one.
        self.stage("conc01.hpp")
        myroots = self.root / "myroots.toml"
        shutil.copy(FIXTURES / "roots_fixture.toml", myroots)
        run_analyze(self.root, "--no-baseline", "--roots", str(myroots))
        cache_root = self.root / "build" / "analyze_cache"
        first = {d.name for d in cache_root.glob("v*")}
        self.assertEqual(len(first), 1)
        myroots.write_text(myroots.read_text() + "\n# touched\n")
        run_analyze(self.root, "--no-baseline", "--roots", str(myroots))
        second = {d.name for d in cache_root.glob("v*")}
        self.assertEqual(len(second), 1, "superseded version not pruned")
        self.assertNotEqual(first, second)


class TestNodeScratchRedetection(FixtureRoot):
    def test_life01_redetects_pr1_dangling_handler(self):
        # Scratch copy of the real header plus a client that reintroduces
        # the PR 1 bug: handler registered, never removed in a destructor.
        shutil.copy(REPO / "src" / "net" / "node.hpp",
                    self.root / "src" / "node.hpp")
        p = self.stage("life01_node_scratch.hpp")
        code, out, findings = run_analyze(self.root, "--no-baseline",
                                          "--rules", "LIFE-01")
        self.assertEqual(code, 1, out)
        hits = [(r, pp, l) for r, pp, l, s in findings if not s]
        self.assertEqual(hits, [("LIFE-01", p, 14)], out)

    def test_current_node_header_is_clean(self):
        shutil.copy(REPO / "src" / "net" / "node.hpp",
                    self.root / "src" / "node.hpp")
        code, out, findings = run_analyze(self.root, "--no-baseline",
                                          "--rules", "LIFE-01")
        self.assertEqual(code, 0, out)
        self.assertEqual([f for f in findings if not f[3]], [], out)


class TestBaselineRoundTrip(FixtureRoot):
    def test_write_then_load_is_clean_and_stale_fails(self):
        self.stage("life01.hpp")
        self.stage("exc01.hpp")
        bl = self.root / "baseline.txt"

        # 1. Active findings fail the run.
        code, out, _ = run_analyze(self.root, "--no-baseline")
        self.assertEqual(code, 1, out)

        # 2. Write a baseline covering them; the run is now clean.
        subprocess.run(
            [sys.executable, str(ANALYZE), str(self.root), "src",
             "--write-baseline", "--baseline", str(bl)],
            capture_output=True, text=True, check=True)
        code, out, findings = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 0, out)
        self.assertTrue(any(s for _, _, _, s in findings), out)

        # 3. An entry matching nothing is stale and fails the run.
        with bl.open("a") as f:
            f.write("LIFE-01  src/gone.hpp  deadbeef  file was deleted\n")
        code, out, findings = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 1, out)
        self.assertIn("stale", out)
        self.assertIn(("stale-baseline", "", 0, False), findings)

        # 4. A malformed entry (missing justification) is a config error.
        bl.write_text("LIFE-01  src/life01.hpp  *\n")
        code, out, _ = run_analyze(self.root, "--baseline", str(bl))
        self.assertEqual(code, 2, out)


class TestRepoIsClean(unittest.TestCase):
    def test_repo_scan_matches_baseline(self):
        proc = subprocess.run([sys.executable, str(ANALYZE), str(REPO)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
