#ifndef PIMBENCH_INPUTS_H_
#define PIMBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pimbench {

/// Sizes of one benchmark run. `Full()` is what BENCHMARK.json runs;
/// `Small()` is the self-test scale, which emits the same metrics fast.
struct Scale {
  size_t query_doc_bytes = 1u << 20;  ///< XMark text every workload serves
  int k = 10;
  int batch_size = 64;
  int returning_users = 512;  ///< 2x the ProfileCache's 256 entries
  int rules_per_user = 64;
  int applying_rules = 8;     ///< rules whose condition the query subsumes
  int new_user_every = 8;     ///< one request in this many is a new user
  int setup_repeats = 12;       ///< set-ups (and save/restarts) per run
  int heavy_setup_repeats = 4;  ///< the same for the costlier set-ups
  /// Closed-loop clients of fig5_warm and cold_users, each with its own
  /// document and engine; fewer when nproc is smaller.
  int clients = 4;
  /// Rounds of an untimed run: each round serves fresh documents with
  /// fresh clients for an equal share of the run.
  int rounds = 2;

  static Scale Full() { return Scale(); }
  static Scale Small() {
    Scale s;
    s.query_doc_bytes = 96u << 10;
    s.returning_users = 24;
    s.rules_per_user = 16;
    s.applying_rules = 2;
    s.batch_size = 16;
    s.setup_repeats = 2;
    s.heavy_setup_repeats = 2;
    s.clients = 2;
    s.rounds = 1;
    return s;
  }
};

/// A serialized XMark document: the text the engine ingests.
std::string XmarkText(size_t target_bytes, uint32_t seed);

/// One (query, profile) request, both as text.
struct RequestText {
  std::string query;
  std::string profile;
};

/// The Fig. 5 mix: the Fig. 5 query under 8 cached π1–π4 profiles (with
/// and without the VOR and the DOI weights); one request in four is the
/// selective Phoenix query (kXmarkSelectiveQuery, which every cold_users
/// request sends), half of those under a plain `rank S` profile.
/// `size` requests; the cycle length is 8.
std::vector<RequestText> Fig5Mix(int size);

/// A cold user: a profile of `rules_per_user` scoping rules of which
/// `applying_rules` have a condition the Phoenix query subsumes. `answer_class`
/// names the set of keywords the applying rules add: users of one class
/// must get identical answers, whatever their other rules say.
struct UserProfile {
  std::string text;
  uint32_t answer_class = 0;
};

/// User `id` of the population drawn from `seed`. Returning users are ids
/// [0, returning); new users are ids from `returning` upwards.
UserProfile MakeUser(uint64_t seed, int id, const Scale& scale);

}  // namespace pimbench

#endif  // PIMBENCH_INPUTS_H_
