// The measurement loop: set-up, the untimed oracles, and the legs of
// one workload, in untraced mode (end-to-end metrics) or traced mode
// (per-layer metrics).
#pragma once

#include "harness.h"

namespace delbench {

/// Run the selected workload and mode; prints the header line, a human
/// summary, and the result JSON as the last line. Returns the exit code.
int run_benchmark(const Args& args);

}  // namespace delbench
