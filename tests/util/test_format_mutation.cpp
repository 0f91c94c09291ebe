// Deterministic mutation suite for the three ODN-* text formats (the shared
// record grammar of util/record_reader.h). A corpus of writer output —
// the golden ODN-TRACE, a generated ODN-FAULTS plan and a v1 and a v2
// ODN-INSTANCE — is mutated by seeded operators: truncation at every line,
// byte flips, token swaps, numeric substitutions, huge counts and
// duplicated or missing headers.
//
// Oracle: a mutant either reads, re-writes and re-reads to the same bytes,
// or throws a std::runtime_error whose message starts "<read_fn>: line ".
// Any other exception type fails the test. Every accepted instance is also
// solved with OffloadnnSolver and must pass check_dot_invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../core/invariant_check.h"
#include "../core/test_instances.h"
#include "core/instance_io.h"
#include "core/offloadnn_solver.h"
#include "core/scenarios.h"
#include "fault/fault_plan.h"
#include "runtime/workload.h"
#include "util/record_reader.h"
#include "util/rng.h"

namespace odn {
namespace {

struct Format {
  std::string name;
  const char* error_prefix;
  std::string corpus;
  // Reads `text` and returns what the writer makes of it; throws what the
  // reader throws.
  std::function<std::string(const std::string&)> rewrite;
};

// GoogleTest prints the parameter into every discovered ctest name; without
// this it dumps the struct's raw bytes, heap pointers included, so the names
// would change from one build to the next.
void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

template <typename Read, typename Write>
std::string rewrite_with(const std::string& text, Read read, Write write) {
  std::istringstream in(text);
  std::ostringstream out;
  write(read(in), out);
  return out.str();
}

std::string instance_rewrite(const std::string& text) {
  std::istringstream in(text);
  const core::DotInstance instance = core::read_instance(in);
  const core::DotSolution solution = core::OffloadnnSolver{}.solve(instance);
  odn::testing::check_dot_invariants(instance, solution.decisions,
                                     "accepted mutant");
  std::ostringstream out;
  core::write_instance(instance, out);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<Format> formats() {
  std::vector<Format> all;
  all.push_back(
      {"trace", "read_trace: line ",
       read_file(std::string(ODN_SOURCE_DIR) +
                 "/tests/runtime/golden_trace.odntrace"),
       [](const std::string& text) {
         return rewrite_with(
             text, [](std::istream& in) { return runtime::read_trace(in); },
             [](const runtime::WorkloadTrace& trace, std::ostream& out) {
               runtime::write_trace(trace, out);
             });
       }});
  fault::FaultPlanOptions fault_options;
  fault_options.seed = 7;
  std::ostringstream plan;
  fault::write_fault_plan(fault::generate_fault_plan(3, fault_options), plan);
  all.push_back(
      {"faults", "read_fault_plan: line ", plan.str(),
       [](const std::string& text) {
         return rewrite_with(
             text,
             [](std::istream& in) { return fault::read_fault_plan(in); },
             [](const fault::FaultPlan& p, std::ostream& out) {
               fault::write_fault_plan(p, out);
             });
       }});
  std::ostringstream v1;
  core::write_instance(core::testing::two_task_instance(), v1);
  all.push_back({"instance_v1", "read_instance: line ", v1.str(),
                 instance_rewrite});
  std::ostringstream v2;
  core::write_instance(
      core::make_mixed_scenario(2, core::RequestRate::kMedium), v2);
  all.push_back({"instance_v2", "read_instance: line ", v2.str(),
                 instance_rewrite});
  return all;
}

// Whitespace-separated tokens of `text` as (offset, length).
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> found;
  std::size_t at = 0;
  while ((at = text.find_first_not_of(" \n", at)) != std::string::npos) {
    const std::size_t end = std::min(text.find_first_of(" \n", at),
                                     text.size());
    found.emplace_back(at, end - at);
    at = end;
  }
  return found;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> found;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) found.push_back(line + '\n');
  return found;
}

class FormatMutation : public ::testing::TestWithParam<Format> {
 protected:
  // Applies the oracle to one mutant; returns whether it was accepted.
  bool check(const std::string& mutant, const std::string& label) {
    SCOPED_TRACE(label + " of " + GetParam().name + ":\n" + mutant);
    std::string first;
    try {
      first = GetParam().rewrite(mutant);
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind(GetParam().error_prefix, 0),
                0u)
          << error.what();
      return false;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "non-runtime_error escaped: " << error.what();
      return false;
    }
    try {
      EXPECT_EQ(GetParam().rewrite(first), first);
    } catch (const std::exception& error) {
      ADD_FAILURE() << "re-read of the writer's output threw: "
                    << error.what();
    }
    return true;
  }

  const std::string& corpus() const { return GetParam().corpus; }
};

TEST_P(FormatMutation, CorpusRoundTrips) {
  EXPECT_TRUE(check(corpus(), "corpus"));
}

TEST_P(FormatMutation, TruncationAtEveryLine) {
  const std::vector<std::string> all = lines(corpus());
  std::string prefix;
  for (std::size_t n = 0; n < all.size(); ++n) {
    // Only the complete file may read; a cut mid-line must fail too.
    EXPECT_FALSE(check(prefix, "truncation"));
    EXPECT_FALSE(check(prefix + all[n].substr(0, all[n].size() / 2),
                       "mid-line truncation"));
    prefix += all[n];
    if (HasFailure()) return;
  }
}

TEST_P(FormatMutation, ByteFlips) {
  util::Rng rng(101);
  for (int i = 0; i < 400 && !HasFailure(); ++i) {
    std::string mutant = corpus();
    const auto at = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutant.size()) - 1));
    mutant[at] = static_cast<char>(rng.uniform_int(0, 255));
    check(mutant, "byte flip");
  }
}

TEST_P(FormatMutation, TokenSwaps) {
  const auto spans = tokens(corpus());
  util::Rng rng(202);
  for (int i = 0; i < 400 && !HasFailure(); ++i) {
    auto a = spans[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spans.size()) - 1))];
    auto b = spans[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spans.size()) - 1))];
    if (a.first > b.first) std::swap(a, b);
    if (a.first == b.first) continue;
    const std::string& text = corpus();
    check(text.substr(0, a.first) + text.substr(b.first, b.second) +
              text.substr(a.first + a.second,
                          b.first - a.first - a.second) +
              text.substr(a.first, a.second) +
              text.substr(b.first + b.second),
          "token swap");
  }
}

TEST_P(FormatMutation, NumericSubstitutions) {
  const std::vector<std::string> substitutes = {
      "nan", "inf", "-0", "1e308", "1e400", "-1", "18446744073709551616",
      "+1"};
  std::size_t accepted = 0;
  for (const auto& [at, length] : tokens(corpus())) {
    const char lead = corpus()[at];
    if (!(std::isdigit(static_cast<unsigned char>(lead)) || lead == '-'))
      continue;
    for (const std::string& value : substitutes) {
      std::string mutant = corpus();
      mutant.replace(at, length, value);
      accepted += check(mutant, "numeric substitution '" + value + "'");
    }
    if (HasFailure()) return;
  }
  // The oracle is not vacuous: some substitutions (e.g. -0 for 0) read.
  EXPECT_GT(accepted, 0u);
}

TEST_P(FormatMutation, HugeCounts) {
  for (const auto& [at, length] : tokens(corpus())) {
    const std::string word = corpus().substr(at, length);
    // A huge record count runs out of input; a huge template or cell count
    // only has to satisfy the oracle.
    const bool counts_records =
        word == "events" || word == "blocks" || word == "tasks";
    if (!counts_records && word != "templates" && word != "cells") continue;
    const std::size_t value = at + length + 1;
    const std::size_t end = corpus().find('\n', value);
    for (const char* huge : {"99999999999999", "18446744073709551615",
                             "4611686018427387904"}) {
      std::string mutant = corpus();
      mutant.replace(value, end - value, huge);
      const bool accepted = check(mutant, "huge count");
      if (counts_records) {
        EXPECT_FALSE(accepted) << word << ' ' << huge;
      }
    }
  }
}

TEST_P(FormatMutation, DuplicatedOrMissingHeaders) {
  const std::string& text = corpus();
  const std::size_t body = text.find('\n') + 1;
  const std::string header = text.substr(0, body);
  EXPECT_FALSE(check(text.substr(body), "missing header"));
  EXPECT_FALSE(check(header + text, "duplicated header"));
  EXPECT_FALSE(check(text + header, "trailing header"));
  EXPECT_FALSE(check(header.substr(0, header.size() - 2) + "9\n" +
                         text.substr(body),
                     "unknown version"));
  EXPECT_TRUE(check("# leading comment\n\n" + text + "\n  \n# trailing\n",
                    "comments and blank lines"));
}

// The token rules under every ODN-* number and every command-line value
// (util::parse_finite, util::parse_count): the whole token must parse, a
// real must be finite, a count is unsigned and must not exceed its bound.
TEST(TokenRules, WholeFiniteTokensAndBoundedCounts) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const struct {
    const char* token;
    std::optional<double> real;
    std::optional<std::uint64_t> count;
  } rows[] = {
      {"0", 0.0, 0},
      {"42", 42.0, 42},
      {"1.5", 1.5, std::nullopt},
      {"-1", -1.0, std::nullopt},
      {"1e3", 1000.0, std::nullopt},
      {"18446744073709551615", 18446744073709551615.0, kMax},
      {"18446744073709551616", 18446744073709551616.0, std::nullopt},
      {"+1", std::nullopt, std::nullopt},
      {"nan", std::nullopt, std::nullopt},
      {"inf", std::nullopt, std::nullopt},
      {"-inf", std::nullopt, std::nullopt},
      {"1e400", std::nullopt, std::nullopt},
      {"30x", std::nullopt, std::nullopt},
      {"0x10", std::nullopt, std::nullopt},
      {"abc", std::nullopt, std::nullopt},
      {"", std::nullopt, std::nullopt},
      {" 1", std::nullopt, std::nullopt},
      {"1 ", std::nullopt, std::nullopt},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(util::parse_finite(row.token), row.real) << row.token;
    EXPECT_EQ(util::parse_count(row.token, kMax), row.count) << row.token;
  }
  EXPECT_EQ(util::parse_count("1024", 1024),
            std::optional<std::uint64_t>(1024));
  EXPECT_EQ(util::parse_count("1025", 1024), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FormatMutation, ::testing::ValuesIn(formats()),
    [](const ::testing::TestParamInfo<Format>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace odn
