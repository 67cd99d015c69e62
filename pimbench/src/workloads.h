#ifndef PIMBENCH_WORKLOADS_H_
#define PIMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "inputs.h"
#include "report.h"

namespace pimbench {

/// The three workloads. All are closed loops driven from one process with
/// at most `nproc` working threads; the seed drives the XMark generator and
/// the user population, and the engine only ever sees the generated inputs.
///
/// Steadiness on the 4-vCPU development VM this benchmark was built on:
/// the same code runs at very different speeds over time, because other
/// tenants contend for the physical cores under the vCPUs. One client's
/// per-second mean Fig. 5 latency moved by a coefficient of variation of
/// 0.17-0.25 and swung 2x within seconds, in documents of 64 KB and 1 MB
/// alike (so the working set does not matter), while four clients on four
/// vCPUs moved independently of each other (pairwise correlation -0.3 to 0).
/// Separately, ten 1 MB documents of different seeds, timed interleaved in
/// one process, differed by 1.4x in their median Fig. 5 latency. So
/// fig5_warm and cold_users run one client per vCPU (up to four), each with
/// its own document from its own seed, in two rounds of fresh clients on
/// fresh documents, and pool every client's samples.
/// On top of that the whole VM drifts by up to 2x over minutes, so every
/// gated timing is scaled by the time of a fixed reference work timed in
/// the same run (see reference.h). Each timing metric reports its spread
/// across five sub-windows of its run, and set-up is repeated and reported
/// as a median.
struct WorkloadDef {
  const char* name;
  const char* why;
};

// XML parsing, index build and persistence have no workload of their own:
// every workload's set-up ingests its XML, and every 1.5 s of its timed
// loop one client takes its XML through ingest, save and restart again.
inline constexpr WorkloadDef kWorkloads[] = {
    // One client per vCPU (up to four) calls Execute back-to-back on its
    // own 1 MB XMark at k=10, the Fig. 5 mix; the clients share nothing.
    {"fig5_warm",
     "the paper's K,V,S regime with profiles cached: algebra and index do "
     "almost all the work, so every hot-path change shows here"},
    // One client sends the same mix through BatchSearch at nproc workers,
    // 64-request batches back-to-back, to one engine.
    {"fig5_batch",
     "per-request work equals fig5_warm, so any difference is the exec "
     "layer under concurrency: worker pool, shared caches, locks"},
    // One client per vCPU (up to four), each with its own document, engine
    // and store: the selective Phoenix query, each request a distinct 64-rule
    // profile, 512 returning users per client (2x the profile cache) from a
    // pre-populated ProfileStore, one request in eight a new user.
    {"cold_users",
     "every request misses the profile cache, so the profile and store "
     "layers dominate; the keep-or-delete call on the store is made here"},
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  int workers = 1;        ///< BatchSearch workers (nproc)
  std::string work_dir;   ///< scratch files (images, stores, spans)
};

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics), filling `report`. False on an unknown workload name.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace pimbench

#endif  // PIMBENCH_WORKLOADS_H_
