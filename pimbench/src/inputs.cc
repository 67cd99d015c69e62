#include "inputs.h"

#include <algorithm>
#include <random>

#include "bench/xmark_workload.h"
#include "src/data/xmark_gen.h"
#include "src/xml/serializer.h"

namespace pimbench {

namespace {

/// Keywords the applying rules of a cold user add; all occur under
/// <person> in XMark, so each one changes scores.
const char* const kAddVocabulary[] = {
    "male",  "female",  "College", "Graduate",  "United States",
    "Japan", "Germany", "Yes",     "category1", "category3"};

const char* const kItemWords[] = {"gold",   "vintage", "rare",    "antique",
                                  "mint",   "signed",  "original", "limited",
                                  "estate", "classic", "pristine"};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string XmarkText(size_t target_bytes, uint32_t seed) {
  pimento::data::XmarkOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return pimento::xml::SerializeXml(pimento::data::GenerateXmark(options));
}

// The mix is bench_throughput's (MakeRequests there), built from the same
// shared definitions of the Fig. 5 query and profiles.
std::vector<RequestText> Fig5Mix(int size) {
  std::vector<std::string> profiles;
  for (int kors = 1; kors <= 4; ++kors) {
    profiles.push_back(pimento::bench::XmarkProfile(kors));
    profiles.push_back(pimento::bench::XmarkProfile(kors, /*with_vor=*/true,
                                                    /*weighted=*/true));
  }
  const std::string plain = "profile plain\nrank S\n";
  std::vector<RequestText> mix;
  mix.reserve(size);
  for (int i = 0; i < size; ++i) {
    if (i % 4 == 3) {
      mix.push_back({pimento::bench::kXmarkSelectiveQuery,
                     i % 8 == 3 ? plain : profiles[i % 8]});
    } else {
      mix.push_back({pimento::bench::kXmarkQuery, profiles[i % 8]});
    }
  }
  return mix;
}

UserProfile MakeUser(uint64_t seed, int id, const Scale& scale) {
  std::mt19937_64 rng(SplitMix(seed * 1000003ull + static_cast<uint64_t>(id)));
  const int n = scale.rules_per_user;
  const int applying = std::min(scale.applying_rules, n);
  const int vocab = std::min<int>(applying + 2, std::size(kAddVocabulary));

  // Which vocabulary words the applying rules add (the answer class), and
  // at which rule positions they sit. Words go to positions in vocabulary
  // order, and priority follows position, so every user of a class applies
  // them in the same order.
  std::vector<int> words(vocab);
  for (int i = 0; i < vocab; ++i) words[i] = i;
  std::shuffle(words.begin(), words.end(), rng);
  words.resize(applying);
  std::sort(words.begin(), words.end());
  std::vector<int> positions(n);
  for (int i = 0; i < n; ++i) positions[i] = i;
  std::shuffle(positions.begin(), positions.end(), rng);
  positions.resize(applying);
  std::sort(positions.begin(), positions.end());

  UserProfile user;
  for (int w : words) user.answer_class |= 1u << w;
  std::string& text = user.text;
  text = std::string("profile user") + std::to_string(id) + "\nrank K,V,S\n";
  size_t next_applying = 0;
  const std::string tag = std::string("u") + std::to_string(id) + "r";
  for (int r = 0; r < n; ++r) {
    text += std::string("sr s") + std::to_string(r) + " priority " +
            std::to_string(r) + ": if ";
    if (next_applying < positions.size() && positions[next_applying] == r) {
      text += rng() % 2 == 0 ? "//person"
                             : "//person[ftcontains(., \"Phoenix\")]";
      text += " then add ftcontains(person, \"" +
              std::string(kAddVocabulary[words[next_applying]]) + "\")\n";
      ++next_applying;
      continue;
    }
    // A rule the query never subsumes: either it names a keyword unique to
    // this user, or it scopes another element type.
    const std::string own = tag + std::to_string(r);
    switch (rng() % 3) {
      case 0:
        text += "//person[ftcontains(., \"" + own +
                "\")] then add ftcontains(person, \"" +
                kAddVocabulary[rng() % std::size(kAddVocabulary)] + "\")\n";
        break;
      case 1:
        text += "//person/profile[ftcontains(., \"" + own +
                "\")] then delete ftcontains(person, \"male\")\n";
        break;
      default:
        text += std::string("//item[ftcontains(., \"") +
                kItemWords[rng() % std::size(kItemWords)] +
                "\")] then add ftcontains(item, \"" + own + "\")\n";
        break;
    }
  }
  text += "kor k1: tag=person prefer ftcontains(\"College\") weight 2\n";
  text += "kor k2: tag=person prefer ftcontains(\"male\")\n";
  return user;
}

}  // namespace pimbench
