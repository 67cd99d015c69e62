#include "gate.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/plan/reference_eval.h"
#include "src/profile/flock.h"
#include "src/profile/rule_parser.h"
#include "src/tpq/tpq_parser.h"
#include "stats.h"

namespace pimbench {

namespace {

std::atomic<bool> g_corrupt_armed{false};

uint64_t MixAnswer(uint64_t h, int32_t node, double s, double k) {
  h = Fnv1a(&node, sizeof(node), h);
  h = Fnv1a(&s, sizeof(s), h);
  return Fnv1a(&k, sizeof(k), h);
}

}  // namespace

uint64_t AnswerKey(const std::vector<pimento::core::RankedAnswer>& answers) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const pimento::core::RankedAnswer& a : answers) {
    h = MixAnswer(h, a.node, a.s, a.k);
  }
  return h;
}

uint64_t AnswerKey(const std::vector<pimento::algebra::Answer>& answers) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const pimento::algebra::Answer& a : answers) {
    h = MixAnswer(h, a.node, a.s, a.k);
  }
  return h;
}

std::string CheckAgainstReference(
    const pimento::core::SearchEngine& engine, const RequestText& request,
    int k, const std::vector<pimento::core::RankedAnswer>& answers) {
  auto query = pimento::tpq::ParseTpq(request.query);
  if (!query.ok()) return "query: " + query.status().ToString();
  auto profile = pimento::profile::ParseProfile(request.profile);
  if (!profile.ok()) return "profile: " + profile.status().ToString();
  // The oracle evaluates the flock-encoded query, built by the rule scan
  // (the engine uses the compiled rule index for the same flock).
  auto flock = pimento::profile::BuildFlock(*query, profile->scoping_rules);
  if (!flock.ok()) return "flock: " + flock.status().ToString();
  const std::vector<pimento::algebra::Answer> expected =
      pimento::plan::ReferenceEvaluate(engine.collection(), engine.scorer(),
                                       flock->encoded, *profile, k);
  if (expected.size() != answers.size()) {
    return "answer count " + std::to_string(answers.size()) +
           " != reference " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].node != expected[i].node ||
        std::fabs(answers[i].s - expected[i].s) > 1e-9 ||
        std::fabs(answers[i].k - expected[i].k) > 1e-9) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: node %d S=%.12g K=%.12g, reference node %d "
                    "S=%.12g K=%.12g",
                    i + 1, answers[i].node, answers[i].s, answers[i].k,
                    expected[i].node, expected[i].s, expected[i].k);
      return buf;
    }
  }
  return "";
}

void SetCorruptOneAnswer(bool on) { g_corrupt_armed = on; }

std::vector<pimento::core::RankedAnswer> MaybeCorrupt(
    std::vector<pimento::core::RankedAnswer> answers) {
  if (!answers.empty() && g_corrupt_armed.exchange(false)) {
    answers.front().node += 1;
  }
  return answers;
}

}  // namespace pimbench
