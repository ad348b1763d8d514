// Per-module metrics for the traced run. Each probe times the
// benchmark's own calls into one module's public functions, on the
// workload's deployment (quorum system, read rule, faults, key mix), and
// adds one metric named <module>.<what> to the result. README.md lists
// which end-to-end metric and workload each one should move.
#pragma once

#include "common.h"
#include "workloads.h"

namespace pqsbench {

void run_probes(const KvSpec& spec, const Args& args, RunResult& result);

}  // namespace pqsbench
