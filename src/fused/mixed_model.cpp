#include "fused/mixed_model.hpp"

namespace dp::fused {

MixedFusedDP::MixedFusedDP(const tab::TabulatedDP& tabulated, MixedPrecision precision)
    : tab_(tabulated), precision_(precision) {
  for (const tab::TabulatedEmbedding& t : tabulated.tables()) {
    if (precision_ == MixedPrecision::Single)
      tables_sp_.emplace_back(t);
    else
      tables_hp_.emplace_back(t);
  }
}

std::size_t MixedFusedDP::table_bytes() const {
  std::size_t b = 0;
  for (const auto& t : tables_sp_) b += t.bytes();
  for (const auto& t : tables_hp_) b += t.bytes();
  return b;
}

md::ForceResult MixedFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                      const md::NeighborList& nlist, bool periodic) {
  if (precision_ == MixedPrecision::Single)
    return single_.compute(tab_.model(), tables_sp_, {}, box, atoms, nlist, periodic);
  return half_.compute(tab_.model(), tables_hp_, {}, box, atoms, nlist, periodic);
}

}  // namespace dp::fused
