#include "cluster/cell.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fmt.h"
#include "util/rng.h"

namespace odn::cluster {

std::vector<CellSpec> make_cells(std::size_t count,
                                 const edge::EdgeResources& base,
                                 std::uint64_t seed, double spread) {
  if (count == 0)
    throw std::invalid_argument("make_cells: need at least one cell");
  if (spread < 0.0 || spread >= 1.0)
    throw std::invalid_argument("make_cells: spread must be in [0, 1)");
  base.validate();

  util::Rng rng(seed);
  std::vector<CellSpec> cells;
  cells.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CellSpec cell;
    cell.name = util::fmt("cell-{}", i);
    cell.resources = base;
    const double memory_factor = rng.uniform(1.0 - spread, 1.0 + spread);
    const double compute_factor = rng.uniform(1.0 - spread, 1.0 + spread);
    const double rb_factor = rng.uniform(1.0 - spread, 1.0 + spread);
    cell.resources.memory_capacity_bytes =
        base.memory_capacity_bytes * memory_factor;
    cell.resources.compute_capacity_s =
        base.compute_capacity_s * compute_factor;
    cell.resources.training_budget_s =
        base.training_budget_s * compute_factor;
    cell.resources.total_rbs = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(base.total_rbs) * rb_factor)));
    cell.resources.validate();
    cells.push_back(std::move(cell));
  }
  return cells;
}

EdgeCell::EdgeCell(CellSpec spec, edge::RadioModel radio,
                   core::OffloadnnController::Options controller_options)
    : spec_(std::move(spec)),
      base_radio_(radio),
      controller_(spec_.resources, radio, controller_options) {
  spec_.resources.validate();
}

void EdgeCell::set_radio_derate(double factor) {
  if (factor <= 0.0 || factor > 1.0)
    throw std::invalid_argument(
        "EdgeCell: radio derate factor outside (0, 1]");
  controller_.set_radio(base_radio_.scaled(factor));
}

double EdgeCell::normalized_headroom() const noexcept {
  const edge::ResourceLedger& ledger = controller_.ledger();
  const edge::EdgeResources& cap = spec_.resources;
  const double memory_free =
      1.0 - ledger.memory_used_bytes() / cap.memory_capacity_bytes;
  const double compute_free =
      1.0 - ledger.compute_used_s() / cap.compute_capacity_s;
  const double rb_free =
      1.0 - static_cast<double>(ledger.rbs_used()) /
                static_cast<double>(cap.total_rbs);
  const double headroom =
      std::min(memory_free, std::min(compute_free, rb_free));
  return std::clamp(headroom, 0.0, 1.0);
}

}  // namespace odn::cluster
