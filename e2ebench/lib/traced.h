#ifndef E2EBENCH_LIB_TRACED_H_
#define E2EBENCH_LIB_TRACED_H_

#include <cstdint>
#include <string>

#include "lib/workload.h"

namespace e2ebench {

/// The traced run: replays a fixed sample of the workload's operations as
/// chains of layer calls with spans, writes the span file under `out_dir`
/// and prints every per-layer metric. It replays fixed samples rather than
/// running for a duration. Returns the process exit code.
int RunTraced(const WorkloadInfo& info, uint64_t seed,
              const std::string& out_dir);

}  // namespace e2ebench

#endif  // E2EBENCH_LIB_TRACED_H_
