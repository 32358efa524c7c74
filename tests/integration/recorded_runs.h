// Recorded serial-engine runs of the randomized integration workload that
// event_queue_fuzz_test and layout_parity_test both build (same draws, same
// seed stream, no environment overrides): every scheduler kind, seeds 1-6.
//
// Each row was recorded from two reference drains of the engine: the
// binary-heap event queue and the per-event (unbatched) timing-wheel drain.
// Both produced these exact values, and both were asserted byte-identical to
// the batched timing-wheel drain on every row, before the reference drains
// were deleted.  The tests compare today's engine against these rows, so a
// change to event order shows up as a fingerprint or counter mismatch.
//
// Regenerate only if a deliberate schedule-affecting change lands, never to
// paper over an accidental one.

#ifndef SFS_TESTS_INTEGRATION_RECORDED_RUNS_H_
#define SFS_TESTS_INTEGRATION_RECORDED_RUNS_H_

#include <cstdint>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/time.h"
#include "src/sched/factory.h"

namespace sfs::eval {

struct RecordedRun {
  sched::SchedKind kind;
  std::uint64_t seed;
  std::uint64_t run_fingerprint;
  std::uint64_t lifecycle_fingerprint;
  std::uint64_t services_fingerprint;  // ServicesFingerprint() of per-task service
  std::int64_t events;
  std::int64_t dispatches;
  std::int64_t preemptions;
  Tick idle;
  Tick ctx_cost;
};

// Highest seed with a recorded row.
inline constexpr std::uint64_t kRecordedSeeds = 6;

// FNV-1a over the task count and each task's service, in ForEachTask order.
inline std::uint64_t ServicesFingerprint(const std::vector<Tick>& services) {
  common::Fnv1a fp;
  fp.Mix(services.size());
  for (const Tick service : services) {
    fp.Mix(static_cast<std::uint64_t>(service));
  }
  return fp.value();
}

// {kind, seed, run fp, lifecycle fp, services fp, events, dispatches,
//  preemptions, idle, context-switch cost}
inline constexpr RecordedRun kRecordedRuns[] = {
    {sched::SchedKind::kSfs, 1, 0x459d8a0cdb6aec1dULL, 0xde697eef39eb32cfULL,
     0xab35102ae1f2ab4eULL, 416, 350, 42, 347000, 55123},
    {sched::SchedKind::kSfs, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL,
     0xaf056491b8c65c2cULL, 1023, 690, 0, 19887466, 32364},
    {sched::SchedKind::kSfs, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL,
     0x013bd1800a6928aaULL, 86, 64, 7, 26000, 11264},
    {sched::SchedKind::kSfs, 4, 0x0054df1ea504759eULL, 0x55df4d20f52c710fULL,
     0x95e861f780b3e305ULL, 1667, 1015, 220, 7842819, 128173},
    {sched::SchedKind::kSfs, 5, 0xbeb0994225cbd9d2ULL, 0x220523e971b97953ULL,
     0x16076dc46e318e8bULL, 724, 466, 188, 1927134, 62477},
    {sched::SchedKind::kSfs, 6, 0x947f89a8b53c6ac9ULL, 0x7a775f0a65365d46ULL,
     0x09051885d90ffa81ULL, 1751, 1480, 193, 1196582, 157191},
    {sched::SchedKind::kHsfs, 1, 0x5a2009a9f9770094ULL, 0xea51daadf4ddfa30ULL,
     0x2f1788e2dfeb08a0ULL, 707, 481, 0, 142905, 169360},
    {sched::SchedKind::kHsfs, 2, 0x2acf2c74d2211eb8ULL, 0xc48680d51741ec15ULL,
     0x47e82ba04236ab7eULL, 576, 452, 0, 22532237, 16271},
    {sched::SchedKind::kHsfs, 3, 0xe6f57be466252ecfULL, 0xe7aab125a03dbda3ULL,
     0x76eba69e5053ae1bULL, 124, 80, 0, 0, 4636},
    {sched::SchedKind::kHsfs, 4, 0xe88dda0d2ca55646ULL, 0x1010f44094f3022fULL,
     0xcd0c7b138d2d9e41ULL, 536, 413, 0, 2646000, 0},
    {sched::SchedKind::kHsfs, 5, 0xeb0aee71927937bcULL, 0x51cc8ee15f2a92a5ULL,
     0x290d2ae1b248f347ULL, 435, 249, 0, 1582480, 31458},
    {sched::SchedKind::kHsfs, 6, 0x15d7c8dda2ce63abULL, 0x1c8d1ce0b3b3ee9eULL,
     0x4134432ba7650234ULL, 1206, 1179, 0, 1034000, 182040},
    {sched::SchedKind::kSfq, 1, 0xea4635f40c431408ULL, 0xfed8e417e8e09c8bULL,
     0xfe48fcf34a4dcffbULL, 410, 344, 27, 347000, 57339},
    {sched::SchedKind::kSfq, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL,
     0xaf056491b8c65c2cULL, 1023, 690, 0, 19887466, 32364},
    {sched::SchedKind::kSfq, 3, 0xb9cbf2a25768d830ULL, 0x26db4a41fca19b9aULL,
     0x013bd1800a6928aaULL, 86, 64, 7, 26000, 11264},
    {sched::SchedKind::kSfq, 4, 0x12ba8b143454ce8cULL, 0x91482a6c4b619128ULL,
     0x322b3b5c6b1b10f7ULL, 1643, 997, 196, 7554143, 120383},
    {sched::SchedKind::kSfq, 5, 0x9a7b60a42a4bfd18ULL, 0xaba9f0f54c1fa4f5ULL,
     0x0d2d6386ffa7b2b4ULL, 704, 451, 174, 1846321, 59771},
    {sched::SchedKind::kSfq, 6, 0xc40b2d72b20e84a5ULL, 0xbc2f37061339cdd5ULL,
     0xe9e9d6478924d54aULL, 1744, 1472, 183, 1180277, 156844},
    {sched::SchedKind::kWfq, 1, 0x9ab149dfe103c7cdULL, 0xbf71a08792a9aa0bULL,
     0x34e87223ec610a8eULL, 347, 310, 12, 347000, 38226},
    {sched::SchedKind::kWfq, 2, 0xf44cec169c4f2074ULL, 0xc415a427e93f43a8ULL,
     0xaf056491b8c65c2cULL, 1023, 690, 0, 19887466, 32364},
    {sched::SchedKind::kWfq, 3, 0x0caa8a1755df4651ULL, 0x54d9102ac5821c12ULL,
     0x2c429d8b492996d0ULL, 86, 62, 3, 26000, 10208},
    {sched::SchedKind::kWfq, 4, 0xe33feb698f12aa59ULL, 0xba7ab9d75e9c254eULL,
     0x62a1cc81ff9422d5ULL, 1572, 955, 182, 7474419, 108261},
    {sched::SchedKind::kWfq, 5, 0xd2bd7787c9f8ffd5ULL, 0xe5069bf1c9e2ba36ULL,
     0x986455343c2f5a70ULL, 363, 232, 42, 1516283, 19240},
    {sched::SchedKind::kWfq, 6, 0x064d3d089a594123ULL, 0x361dc690c535eb41ULL,
     0xb862a59d6a6e2e4bULL, 1580, 1370, 91, 1280029, 96119},
    {sched::SchedKind::kTimeshare, 1, 0xca386a1064bacb97ULL, 0x0d27f79ffc00d613ULL,
     0xc2741ae51ff506e4ULL, 1473, 1008, 427, 151635, 359065},
    {sched::SchedKind::kTimeshare, 2, 0xd609b3425f4b61daULL, 0xc48680d51741ec15ULL,
     0x47e82ba04236ab7eULL, 577, 453, 0, 22532237, 16271},
    {sched::SchedKind::kTimeshare, 3, 0x87a4953360b4299dULL, 0x1558fe0c82b042f4ULL,
     0x37522c9ba0f266d1ULL, 461, 308, 131, 0, 18727},
    {sched::SchedKind::kTimeshare, 4, 0x2a6995702e30f2a2ULL, 0x88c1f2252dd2b79fULL,
     0xa550da0799908e4aULL, 660, 535, 61, 2576000, 0},
    {sched::SchedKind::kTimeshare, 5, 0x41c193124e903720ULL, 0x06ef5762612674ecULL,
     0x987dc327137ddd56ULL, 733, 486, 181, 1257944, 60037},
    {sched::SchedKind::kTimeshare, 6, 0xd69020de5634efb2ULL, 0xe842186d80e8b5aaULL,
     0x8453d30d923c1e23ULL, 1237, 1197, 20, 1034000, 189810},
};

}  // namespace sfs::eval

#endif  // SFS_TESTS_INTEGRATION_RECORDED_RUNS_H_
