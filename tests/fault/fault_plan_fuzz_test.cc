// Seeded mutation fuzzing of FaultPlan::Parse.  Chaos plans from
// FaultPlan::Generate are serialized and then mangled token by token
// and byte by byte: tokens dropped, duplicated, swapped or replaced by
// boundary numbers, lines truncated, bytes flipped.  Whatever the text,
// Parse must return (never abort or trip a sanitizer), and any plan it
// accepts must be a fixed point of serialization and must survive
// Validate() and, when valid, ExpandedSorted().
//
// gtest-driven rather than libFuzzer so it runs in every build,
// including the asan-ubsan job's full ctest.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "util/rng.h"
#include "util/units.h"

namespace stagger {
namespace {

constexpr int32_t kDisks = 12;

std::string GeneratedPlanText(uint64_t seed) {
  Rng rng(seed);
  ChaosParams params;
  params.horizon = SimTime::Hours(2);
  params.mtbf = SimTime::Hours(20);
  params.mttr = SimTime::Minutes(20);
  params.stall_mtbf = SimTime::Hours(15);
  params.mean_stall = SimTime::Seconds(30);
  params.degrade_mtbf = SimTime::Hours(15);
  params.mean_degrade = SimTime::Minutes(10);
  params.latent_mtbf = SimTime::Hours(10);
  params.subobject_space = 200;
  params.max_latent_run = 3;
  params.num_domains = static_cast<int32_t>(seed % 4);
  return FaultPlan::Generate(&rng, kDisks, params).ToString();
}

std::vector<std::vector<std::string>> Tokenize(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ls >> token) tokens.push_back(token);
    lines.push_back(std::move(tokens));
  }
  return lines;
}

std::string Join(const std::vector<std::vector<std::string>>& lines) {
  std::string out;
  for (const auto& tokens : lines) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) out += ' ';
      out += tokens[i];
    }
    out += '\n';
  }
  return out;
}

// Applies one to four token-level mutations, then serializes.
std::string MutateTokens(const std::string& text, Rng& rng) {
  static const char* const kReplacements[] = {
      "-1", "0", "9223372036854775807", "x", "-9223372036854775808",
      "9223372036854775808", "@0", "@-1", "@9223372036854775807", "fail",
      "stall", "degrade", "latent", "recover", "domain", "#", "",
  };
  auto lines = Tokenize(text);
  if (lines.empty()) return text;
  const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
  for (int m = 0; m < mutations; ++m) {
    auto& tokens = lines[rng.NextBounded(lines.size())];
    if (tokens.empty()) continue;
    const size_t i = rng.NextBounded(tokens.size());
    switch (rng.NextBounded(6)) {
      case 0:  // drop
        tokens.erase(tokens.begin() + static_cast<ptrdiff_t>(i));
        break;
      case 1: {  // duplicate
        const std::string copy = tokens[i];
        tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(i), copy);
        break;
      }
      case 2:  // swap with another token of the line
        std::swap(tokens[i], tokens[rng.NextBounded(tokens.size())]);
        break;
      case 3:  // replace with a boundary value or keyword
        tokens[i] = kReplacements[rng.NextBounded(std::size(kReplacements))];
        break;
      case 4:  // truncate the line
        tokens.resize(i);
        break;
      default: {  // duplicate the whole line
        const std::vector<std::string> copy = tokens;
        const size_t at = rng.NextBounded(lines.size());
        lines.insert(lines.begin() + static_cast<ptrdiff_t>(at), copy);
        break;
      }
    }
  }
  return Join(lines);
}

// Flips, overwrites or deletes one to eight random bytes.
std::string MutateBytes(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const int flips = 1 + static_cast<int>(rng.NextBounded(8));
  for (int f = 0; f < flips && !text.empty(); ++f) {
    const size_t i = rng.NextBounded(text.size());
    switch (rng.NextBounded(3)) {
      case 0:
        text[i] = static_cast<char>(text[i] ^ (1 << rng.NextBounded(8)));
        break;
      case 1:
        text[i] = static_cast<char>(rng.NextBounded(256));
        break;
      default:
        text.erase(i, 1);
        break;
    }
  }
  return text;
}

// Parses `text`; an accepted plan must re-serialize to a fixed point
// and be safe to validate and expand.  Returns whether it was accepted.
bool CheckParse(const std::string& text) {
  auto parsed = FaultPlan::Parse(text);
  if (!parsed.ok()) return false;
  const std::string once = parsed->ToString();
  auto reparsed = FaultPlan::Parse(once);
  EXPECT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  if (!reparsed.ok()) return true;
  EXPECT_EQ(reparsed->ToString(), once) << "input:\n" << text;
  if (parsed->Validate(kDisks).ok()) {
    EXPECT_GE(parsed->ExpandedSorted().size(), parsed->size());
  }
  return true;
}

TEST(FaultPlanFuzzTest, MutatedPlansNeverAbortAndAcceptedOnesRoundTrip) {
  int accepted = 0;
  int rejected = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string text = GeneratedPlanText(seed);
    ASSERT_TRUE(CheckParse(text)) << "seed " << seed;
    Rng rng(seed * 7919 + 17);
    for (int trial = 0; trial < 200; ++trial) {
      const std::string mutated = trial % 2 == 0 ? MutateTokens(text, rng)
                                                 : MutateBytes(text, rng);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " trial " << trial);
      (CheckParse(mutated) ? accepted : rejected) += 1;
      if (HasFailure()) return;
    }
  }
  // Both outcomes must be exercised, or the mutations are too weak (or
  // too strong) to test anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace stagger
