// Isolated per-layer micro-benchmarks: each times one layer's public functions on
// the paper's three messages, outside the deployment, from this program's
// own files (no instrumentation inside src/). The proxy/host dispatch
// layers have no micro-benchmark; their cost is what ledger.gap_us leaves.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using MetricList = std::vector<std::pair<std::string, double>>;

/// Run every micro-benchmark within roughly `budget_s` seconds; appends
/// `<layer>.<metric>` entries (ns or µs per operation, medians over
/// repetitions) to `out`. Returns false when a layer produced a wrong
/// result (its timing is then meaningless).
bool run_layers(double budget_s, uint64_t seed, MetricList& out);

}  // namespace perfbench
