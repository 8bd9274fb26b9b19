// Memory topology: the machine-model description of NUMA domains.
//
// The paper's §9.3 Butterfly experiments model remote references as a
// flat per-KiB charge between workers. This generalizes that into a
// MemoryTopology: workers are striped over NUMA domains, block pulls
// are charged per KiB at intra- or inter-domain rates, and migrating a
// block's home across a domain boundary pays a fixed cost on top.
// Topology is a *performance model only* — it may change makespans and
// scheduler counters, never values, faults, or deterministic traces.
// The §9.3 flat charge is the degenerate one-worker-per-domain case,
// `MemoryTopology::flat`.
#pragma once

#include <cstdint>
#include <string>

namespace delirium {

/// A NUMA-domain description consumed by both machine models.
///
/// `num_domains` selects the worker→domain map:
///   * 1  — one domain holding every worker (UMA; the default),
///   * 0  — one domain *per worker* (the degenerate flat model the old
///          per-KiB penalty described: every other worker is remote),
///   * N>1 — workers striped round-robin, domain_of(w) = w % N.
struct MemoryTopology {
  std::string name = "uma";
  int num_domains = 1;
  /// Per-KiB charge for pulling a block homed on another worker in the
  /// *same* domain (0 on real NUMA boxes: same socket, same memory).
  int64_t intra_kib_cost_ns = 0;
  /// Per-KiB charge for pulling a block homed in a *different* domain.
  int64_t inter_kib_cost_ns = 0;
  /// Flat surcharge for migrating a block's home across domains, paid
  /// once per cross-domain pull on top of the per-KiB transfer.
  int64_t migration_cost_ns = 0;

  /// Domain of `worker` under the striping rule above; -1 for an
  /// unplaced worker id (-1).
  int domain_of(int worker) const {
    if (worker < 0) return -1;
    if (num_domains <= 0) return worker;
    if (num_domains == 1) return 0;
    return worker % num_domains;
  }

  /// True when any charge is nonzero — the executors skip the pull
  /// accounting entirely otherwise (the UMA fast path).
  bool models_cost() const {
    return intra_kib_cost_ns > 0 || inter_kib_cost_ns > 0 || migration_cost_ns > 0;
  }

  /// True for the single-domain (UMA) map, under which every pull is
  /// intra-domain and the steal order has nothing to bias.
  bool single_domain() const { return num_domains == 1; }

  friend bool operator==(const MemoryTopology&, const MemoryTopology&) = default;

  /// Presets (also the spellings `parse_topology` accepts).
  static MemoryTopology uma() { return MemoryTopology{}; }
  static MemoryTopology numa2();
  static MemoryTopology numa4();
  static MemoryTopology cluster();
  /// The §9.3 flat model: one domain per worker, every other worker
  /// remote at `per_kib` ns/KiB, no migration surcharge.
  static MemoryTopology flat(int64_t per_kib);
};

/// Parse "preset" or "preset:key=value,..." (keys: domains, intra,
/// inter, migrate) into a MemoryTopology. Presets: uma, numa2, numa4,
/// cluster, flat. Malformed specs throw EnvError naming `what` (the
/// flag or environment variable being parsed) and the offending text.
MemoryTopology parse_topology(const std::string& spec, const std::string& what);

}  // namespace delirium
