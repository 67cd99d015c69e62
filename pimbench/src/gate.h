#ifndef PIMBENCH_GATE_H_
#define PIMBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "src/algebra/answer.h"
#include "src/core/engine.h"

namespace pimbench {

/// Fingerprint of a ranked answer list: node ids plus bit-exact S and K
/// scores, in rank order. Two responses match iff their keys are equal.
uint64_t AnswerKey(const std::vector<pimento::core::RankedAnswer>& answers);
uint64_t AnswerKey(const std::vector<pimento::algebra::Answer>& answers);

/// Checks `answers` (the engine's response to `request`) against the
/// plan-free oracle plan::ReferenceEvaluate run on the flock-encoded query:
/// equal node order, S and K within 1e-9. Returns an empty string when the
/// answers agree, else what differed.
std::string CheckAgainstReference(
    const pimento::core::SearchEngine& engine, const RequestText& request,
    int k, const std::vector<pimento::core::RankedAnswer>& answers);

/// The self-test hook: when set, the gate is fed one deliberately wrong
/// answer (the first checked response has its top node changed), so a run
/// must report failure.
void SetCorruptOneAnswer(bool on);

/// Returns `answers`, corrupted once if the self-test hook is armed.
std::vector<pimento::core::RankedAnswer> MaybeCorrupt(
    std::vector<pimento::core::RankedAnswer> answers);

}  // namespace pimbench

#endif  // PIMBENCH_GATE_H_
