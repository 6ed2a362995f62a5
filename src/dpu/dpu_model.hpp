// The DPU device model (hardware substitution — see DESIGN.md §1).
//
// There is no BlueField-3 in this environment. What the paper's evaluation
// actually uses the DPU for is (a) a pool of cores that run the very same
// deserialization code, each at a calibrated fraction of a host core's
// speed, and (b) a PCIe link whose byte counters Fig. 8b reports (those
// live in simverbs). This module supplies (a): the core pool description
// and the calibrated per-workload slowdown model, with the paper's own
// measured ratios as defaults (Fig. 7: 1.89× for varint-heavy int arrays,
// 2.51× for char arrays).
#pragma once

#include <cstdint>
#include <string>

namespace dpurpc::dpu {

/// Which side executes a piece of datapath work.
enum class Processor : uint8_t {
  kHostCpu,  ///< x86 host core (measured directly)
  kDpu,      ///< simulated BlueField-3 ARM core (measured × slowdown)
};

/// Workload class, chosen by dominant cost center; selects the slowdown
/// ratio because the paper shows the DPU/CPU gap differs by workload
/// (varint decode suits ARM better than SIMD UTF-8 validation does).
enum class WorkloadClass : uint8_t {
  kVarintDecode,   ///< x512 Ints: unaligned varint decoding
  kByteCopy,       ///< x8000 Chars: memcpy + UTF-8 validation
  kMixedSmall,     ///< Small: tag dispatch + scattered scalar stores
  kProtocol,       ///< block/credit bookkeeping (ISA-neutral)
};

/// Calibrated DPU-core slowdown relative to one host core.
struct CostModel {
  double varint_factor = 1.89;  ///< paper Fig. 7, int array
  double bytecopy_factor = 2.51;///< paper Fig. 7, char array
  double mixed_factor = 2.0;    ///< paper §VI.A: "two DPU cores ≈ one CPU core"
  double protocol_factor = 1.6; ///< pointer-chasing bookkeeping gap, conservative

  double factor(WorkloadClass w) const noexcept {
    switch (w) {
      case WorkloadClass::kVarintDecode: return varint_factor;
      case WorkloadClass::kByteCopy: return bytecopy_factor;
      case WorkloadClass::kMixedSmall: return mixed_factor;
      case WorkloadClass::kProtocol: return protocol_factor;
    }
    return mixed_factor;
  }

  /// Nanoseconds the work would take on `proc` given the host-measured
  /// cost. Identity for the host CPU.
  double scale_ns(Processor proc, WorkloadClass w, double host_ns) const noexcept {
    return proc == Processor::kHostCpu ? host_ns : host_ns * factor(w);
  }
};

/// Static description of a device's core pool (Table I).
struct DeviceSpec {
  std::string name;
  Processor processor = Processor::kHostCpu;
  int cores = 1;
  int threads = 1;  ///< datapath threads the configuration dedicates

  static DeviceSpec bluefield3() {
    return {.name = "BlueField-3 (simulated, Cortex-A78AE x16)",
            .processor = Processor::kDpu,
            .cores = 16,
            .threads = 16};
  }
  static DeviceSpec host_xeon() {
    return {.name = "PowerEdge R760 (simulated, 2x Xeon Gold 6430)",
            .processor = Processor::kHostCpu,
            .cores = 64,
            .threads = 8};  // Table I: 8 server threads
  }
};

/// What the running "device" actually offers — the knob the codec pool
/// sizes itself from. In this simulated environment it reports the
/// BlueField-3 core count capped at the machine's hardware threads
/// (workers beyond that only timeshare); DPURPC_DPU_CORES overrides it
/// (bench sweeps, CI runners with one host core).
struct DeviceInfo {
  int cores = 1;

  static DeviceInfo current() noexcept;
};

}  // namespace dpurpc::dpu
