#!/usr/bin/env python3
"""Unit tests for mpr_lint: one triggering fixture per rule, plus the
allow-comment escape hatch and clean-file/comment-noise negatives.

Run directly (python3 tools/test_mpr_lint.py) or via ctest (mpr_lint_selftest).
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import mpr_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def lint(self, source: str, rel: str = "net/fixture.cpp", extra_files=()):
        """Lints `source` written at `rel` under a temp root; returns rule names."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
            files = [path]
            for extra_rel, extra_src in extra_files:
                p = root / extra_rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(extra_src)
                files.append(p)
            names = mpr_lint.collect_unordered_names(files)
            patterns = mpr_lint.iter_patterns(names)
            findings = mpr_lint.lint_file(path, rel, patterns)
            return [f.rule for f in findings], findings


class WallclockRule(LintFixture):
    def test_chrono_clock_flagged(self):
        rules, _ = self.lint("auto t = std::chrono::steady_clock::now();\n")
        self.assertIn("wallclock", rules)

    def test_time_call_flagged(self):
        rules, _ = self.lint("long t = time(NULL);\n")
        self.assertIn("wallclock", rules)

    def test_sim_time_not_flagged(self):
        rules, _ = self.lint(
            "auto t = sim().now();\n"
            "double download_time_s = complete_time - first_syn_time;\n"
            "auto d = x.time();\n"
        )
        self.assertEqual(rules, [])


class RandRule(LintFixture):
    def test_rand_flagged(self):
        rules, _ = self.lint("int r = rand();\n")
        self.assertIn("rand", rules)

    def test_random_device_flagged(self):
        rules, _ = self.lint("std::random_device rd;\n")
        self.assertIn("rand", rules)

    def test_seeded_rng_not_flagged(self):
        rules, _ = self.lint("sim::Rng rng{seed};\nauto v = rng.uniform();\n")
        self.assertEqual(rules, [])


class UnorderedIterRule(LintFixture):
    DECL = "std::unordered_map<int, int> table_;\n"

    def test_range_for_flagged(self):
        rules, _ = self.lint(self.DECL + "void f() { for (auto& [k, v] : table_) { use(k); } }\n")
        self.assertIn("unordered-iter", rules)

    def test_erase_if_flagged(self):
        rules, _ = self.lint(self.DECL + "void f() { std::erase_if(table_, pred); }\n")
        self.assertIn("unordered-iter", rules)

    def test_iterator_loop_flagged(self):
        rules, _ = self.lint(
            self.DECL + "void f() { for (auto it = table_.begin(); it != table_.end(); ++it) {} }\n"
        )
        self.assertIn("unordered-iter", rules)

    def test_lookup_not_flagged(self):
        rules, _ = self.lint(self.DECL + "bool f(int k) { return table_.find(k) != table_.end(); }\n")
        self.assertEqual(rules, [])

    def test_ordered_map_iteration_not_flagged(self):
        # Outside the hot-path dirs so the ordered-container rule stays quiet.
        rules, _ = self.lint(
            "std::map<int, int> sorted_;\nvoid f() { for (auto& [k, v] : sorted_) { use(k); } }\n",
            rel="experiment/fixture.cpp",
        )
        self.assertEqual(rules, [])

    def test_decl_in_other_file_still_flags_use(self):
        # Member declared in the header, iterated in the .cpp.
        rules, _ = self.lint(
            "void f() { for (auto& [k, v] : cross_file_) { use(k); } }\n",
            rel="core/impl.cpp",
            extra_files=[("core/impl.h", "std::unordered_set<int> cross_file_;\n")],
        )
        self.assertIn("unordered-iter", rules)


class RawNewRule(LintFixture):
    def test_new_flagged_in_hot_path(self):
        rules, _ = self.lint("auto* p = new Packet();\n", rel="net/alloc.cpp")
        self.assertIn("raw-new", rules)

    def test_delete_flagged_in_hot_path(self):
        rules, _ = self.lint("delete pkt;\n", rel="tcp/alloc.cpp")
        self.assertIn("raw-new", rules)

    def test_malloc_flagged_in_hot_path(self):
        rules, _ = self.lint("void* p = malloc(64);\n", rel="core/alloc.cpp")
        self.assertIn("raw-new", rules)

    def test_deleted_function_not_flagged(self):
        rules, _ = self.lint("Foo(const Foo&) = delete;\n", rel="net/alloc.cpp")
        self.assertEqual(rules, [])

    def test_new_outside_hot_path_not_flagged(self):
        rules, _ = self.lint("auto* p = new T();\n", rel="sim/registry.cpp")
        self.assertEqual(rules, [])

    def test_netem_is_not_net(self):
        # Path-fragment matching must not treat src/netem as src/net.
        rules, _ = self.lint("auto* p = new Thing();\n", rel="netem/faults.cpp")
        self.assertEqual(rules, [])


class PtrKeyRule(LintFixture):
    def test_ptr_keyed_map_flagged(self):
        rules, _ = self.lint("std::map<const Subflow*, int> order_;\n")
        self.assertIn("ptr-key", rules)

    def test_ptr_keyed_set_flagged(self):
        rules, _ = self.lint("std::set<Flow*> flows_;\n")
        self.assertIn("ptr-key", rules)

    def test_value_keyed_map_not_flagged(self):
        # Outside the hot-path dirs so the ordered-container rule stays quiet.
        rules, _ = self.lint("std::map<std::uint64_t, Seg*> segs_;\n", rel="experiment/fixture.cpp")
        self.assertEqual(rules, [])


class OrderedContainerRule(LintFixture):
    def test_map_flagged_in_tcp(self):
        rules, _ = self.lint("std::map<std::uint64_t, SegInfo> unacked_;\n", rel="tcp/ep.h")
        self.assertIn("ordered-container", rules)

    def test_set_flagged_in_sim(self):
        rules, _ = self.lint("std::set<int> pending_;\n", rel="sim/queue.h")
        self.assertIn("ordered-container", rules)

    def test_multimap_flagged_in_core(self):
        rules, _ = self.lint("std::multimap<int, int> m_;\n", rel="core/conn.h")
        self.assertIn("ordered-container", rules)

    def test_unordered_map_not_flagged_by_this_rule(self):
        rules, _ = self.lint("std::unordered_map<int, int> lookup_;\n", rel="net/host.h")
        self.assertNotIn("ordered-container", rules)

    def test_map_outside_hot_path_not_flagged(self):
        rules, _ = self.lint("std::map<int, int> results_;\n", rel="analysis/stats.h")
        self.assertEqual(rules, [])

    def test_allow_comment_suppresses(self):
        rules, _ = self.lint(
            "// mpr-lint: allow(ordered-container)\n"
            "std::map<std::uint64_t, Held> held_;\n",
            rel="core/reorder.h",
        )
        self.assertEqual(rules, [])


class HotStructOptionalRule(LintFixture):
    def test_optional_member_flagged_in_packet_h(self):
        rules, _ = self.lint("std::optional<DssOption> dss;\n", rel="net/packet.h")
        self.assertIn("hot-struct-optional", rules)

    def test_optional_member_with_initializer_flagged(self):
        rules, _ = self.lint("std::optional<std::uint64_t> cached_{};\n", rel="sim/flat_vec.h")
        self.assertIn("hot-struct-optional", rules)

    def test_optional_return_type_not_flagged(self):
        rules, _ = self.lint(
            "std::optional<DssOption> dss_opt() const {\n"
            "  return has_opt(kOptDss) ? std::optional<DssOption>(dss_) : std::nullopt;\n"
            "}\n",
            rel="net/packet.h",
        )
        self.assertEqual(rules, [])

    def test_optional_member_elsewhere_not_flagged(self):
        # Cold-path structs (trace records, reorder segments) may keep optionals.
        rules, _ = self.lint("std::optional<DssOption> dss;\n", rel="tcp/endpoint.h")
        self.assertEqual(rules, [])

    def test_allow_comment_suppresses(self):
        rules, _ = self.lint(
            "// mpr-lint: allow(hot-struct-optional)\n"
            "std::optional<DssOption> dss;\n",
            rel="net/packet.h",
        )
        self.assertEqual(rules, [])

    def test_real_hot_structs_are_clean(self):
        # The rule guards the actual repo files; they must lint clean today.
        repo = Path(__file__).resolve().parent.parent
        for rel in ("src/net/packet.h", "src/sim/flat_vec.h"):
            path = repo / rel
            findings = mpr_lint.lint_file(path, rel, [])
            self.assertEqual([str(f) for f in findings], [], rel)


class AllowEscapeHatch(LintFixture):
    def test_same_line_allow(self):
        rules, _ = self.lint("int r = rand();  // mpr-lint: allow(rand)\n")
        self.assertEqual(rules, [])

    def test_previous_line_allow(self):
        rules, _ = self.lint(
            "// mpr-lint: allow(wallclock)\nauto t = std::chrono::steady_clock::now();\n"
        )
        self.assertEqual(rules, [])

    def test_allow_list_multiple_rules(self):
        rules, _ = self.lint(
            "long t = time(NULL) + rand();  // mpr-lint: allow(wallclock, rand)\n"
        )
        self.assertEqual(rules, [])

    def test_allow_wrong_rule_does_not_suppress(self):
        rules, _ = self.lint("int r = rand();  // mpr-lint: allow(wallclock)\n")
        self.assertIn("rand", rules)


class TokenizerHardening(LintFixture):
    def test_digit_separator_does_not_open_char_literal(self):
        # A naive scanner treats the ' in 1'000'000 as a char-literal open and
        # blanks the rest of the line — hiding the rand() call.
        rules, _ = self.lint("int r = f(1'000'000) + rand();\n")
        self.assertIn("rand", rules)

    def test_digit_separator_in_hex_literal(self):
        rules, _ = self.lint("auto m = 0xFFFF'FFFFu; int r = rand();\n")
        self.assertIn("rand", rules)

    def test_digit_separator_does_not_leak_across_lines(self):
        # If the ' opened a char state, the next line's string close would
        # flip code/string parity and surface the literal's contents.
        rules, _ = self.lint(
            "constexpr int kNs = 16'000'000;\n"
            'const char* kMsg = "rand() inside a string";\n'
        )
        self.assertEqual(rules, [])

    def test_prefixed_char_literal_still_blanked(self):
        # u8'x' is a char literal, not a digit separator: its contents must
        # not reach the rules, and the line keeps scanning after it.
        rules, _ = self.lint("auto c = u8'('; int r = rand();\n")
        self.assertIn("rand", rules)

    def test_raw_string_contents_blanked(self):
        rules, _ = self.lint('const char* re = R"(rand\\(\\) new Packet)";\n')
        self.assertEqual(rules, [])

    def test_raw_string_with_delimiter_and_embedded_quote(self):
        # The )" inside must not close the literal; only )delim" does.
        rules, _ = self.lint(
            'const char* s = R"x(quote " and close )" still inside)x";\n'
            "int r = rand();\n"
        )
        self.assertEqual(sorted(set(rules)), ["rand"])

    def test_multiline_raw_string_blanked_with_layout_kept(self):
        _, findings = self.lint(
            'const char* kUsage = R"(line one\nrand() on line two\n)";\n'
            "int r = rand();\n"
        )
        self.assertEqual([(f.rule, f.line) for f in findings], [("rand", 4)])

    def test_identifier_ending_in_r_is_not_raw_prefix(self):
        # MACRO_R"..." is token-pasting soup, not a raw string: the quote
        # must open a plain string (and its rand() stays hidden).
        rules, _ = self.lint('auto s = MACRO_R"(rand())";\n')
        self.assertEqual(rules, [])


class MultiLineStatementAllow(LintFixture):
    def test_allow_trailing_multiline_statement(self):
        # The finding fires on the first physical line; the allow() rides the
        # statement's last line, after the closing brace-initializer.
        rules, _ = self.lint(
            "std::map<std::uint64_t,\n"
            "         SegInfo>\n"
            "    unacked_;  // mpr-lint: allow(ordered-container)\n",
            rel="tcp/ep.h",
        )
        self.assertEqual(rules, [])

    def test_allow_on_intermediate_continuation_line(self):
        rules, _ = self.lint(
            "std::map<std::uint64_t,  // mpr-lint: allow(ordered-container)\n"
            "         SegInfo> unacked_;\n",
            rel="tcp/ep.h",
        )
        self.assertEqual(rules, [])

    def test_forward_scan_stops_at_statement_end(self):
        # The allow() belongs to the *next* statement; the finding's own
        # statement ended on its line, so it must still fire.
        rules, _ = self.lint(
            "std::map<int, int> m_;\n"
            "int x_;  // mpr-lint: allow(ordered-container)\n",
            rel="tcp/ep.h",
        )
        self.assertIn("ordered-container", rules)


class CommentAndStringNoise(LintFixture):
    def test_comment_mentions_not_flagged(self):
        rules, _ = self.lint(
            "// a new connection may call malloc-free paths; rand() is banned\n"
            "/* delete the old mapping */\n"
            "int x = 0;\n",
            rel="net/comments.cpp",
        )
        self.assertEqual(rules, [])

    def test_string_literal_not_flagged(self):
        rules, _ = self.lint('const char* kMsg = "rand() and new Packet";\n', rel="net/s.cpp")
        self.assertEqual(rules, [])

    def test_finding_reports_line_number(self):
        _, findings = self.lint("int a;\nint r = rand();\n")
        self.assertEqual([(f.rule, f.line) for f in findings], [("rand", 2)])


if __name__ == "__main__":
    unittest.main()
