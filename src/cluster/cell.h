// One cell of the edge cluster: a named OffloadnnController with its own
// resource envelope and ledger. The federation layer (ClusterDispatcher)
// places tasks across cells; each cell runs the paper's Fig. 4 controller
// unmodified against its private capacities, so every single-cell
// invariant (release-to-zero, ledger conservation, bit-identical
// re-admission) holds per cell by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "edge/resources.h"

namespace odn::cluster {

struct CellSpec {
  std::string name;
  edge::EdgeResources resources;
};

// Seeded heterogeneous cell capacities: each cell scales the base envelope
// by an independent uniform factor in [1 - spread, 1 + spread] per
// dimension (memory, inference compute, RBs; the training budget follows
// compute). spread = 0 yields `count` identical cells. Deterministic:
// equal (count, base, seed, spread) produce equal specs on every platform
// the Rng is deterministic on.
std::vector<CellSpec> make_cells(std::size_t count,
                                 const edge::EdgeResources& base,
                                 std::uint64_t seed, double spread = 0.35);

class EdgeCell {
 public:
  EdgeCell(CellSpec spec, edge::RadioModel radio,
           core::OffloadnnController::Options controller_options);

  const std::string& name() const noexcept { return spec_.name; }
  const edge::EdgeResources& resources() const noexcept {
    return spec_.resources;
  }
  core::OffloadnnController& controller() noexcept { return controller_; }
  const core::OffloadnnController& controller() const noexcept {
    return controller_;
  }

  // Normalized headroom: min over {memory, compute, RBs} of
  // free / capacity, in [0, 1]. The least_loaded policy maximizes this,
  // so the binding dimension of each cell drives placement.
  double normalized_headroom() const noexcept;

  // Effective radio (the base model scaled by the current derate) — what
  // admission solves against and what epoch measurement emulates with.
  const edge::RadioModel& radio() const noexcept {
    return controller_.radio();
  }

  // Fault injection: derates the cell radio by an absolute factor in
  // (0, 1] (1 restores the base model). Applies to future solves only; the
  // federation layer re-validates the cell's active tasks.
  void set_radio_derate(double factor);

 private:
  CellSpec spec_;
  edge::RadioModel base_radio_;
  core::OffloadnnController controller_;
};

}  // namespace odn::cluster
