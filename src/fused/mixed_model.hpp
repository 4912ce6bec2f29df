// Mixed-precision fused inference — the paper's stated future work ("the
// mixed-precision versions of code still has accuracy problems and will be
// our future work", Sec 7), following the split its baseline used for its
// Table 1 mixed rows:
//
//   single precision: the per-neighbor embedding work (table evaluation,
//     rank-1 contraction into A, the pass-2 gradient dots) — the 95%-of-
//     FLOPs part;
//   double precision: the descriptor, the fitting network, energies, and
//     all force/virial accumulations (the reductions where float error
//     compounds).
//
// It runs FusedDP's compute body (fused/fused_model.hpp) over float or half
// tables: the float stage rides the runtime SIMD dispatcher at twice the
// lane width of the double path (8 floats AVX2 / 16 floats AVX-512).
// DP_SIMD=scalar keeps the seed float expressions bit for bit.
#pragma once

#include <vector>

#include "fused/fused_model.hpp"
#include "tab/table.hpp"

namespace dp::fused {

/// Embedding-stage storage/arithmetic width of the mixed path.
enum class MixedPrecision { Single, Half };

class MixedFusedDP final : public md::ForceField {
 public:
  explicit MixedFusedDP(const tab::TabulatedDP& tabulated,
                        MixedPrecision precision = MixedPrecision::Single);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return tab_.model().config().rcut; }
  /// The mixed path evaluates its own reduced-precision tables, so the
  /// --health extrapolation-rate watchdog must read their counters (the
  /// shared double tables in tab_ never see these lookups).
  std::uint64_t extrapolations() const override {
    std::uint64_t n = 0;
    for (const auto& t : tables_sp_) n += t.extrapolations();
    for (const auto& t : tables_hp_) n += t.extrapolations();
    return n;
  }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const {
    return precision_ == MixedPrecision::Single ? single_.atom_energies()
                                                : half_.atom_energies();
  }
  /// Bytes of the reduced-precision tables (double/2 for Single, /4 for
  /// Half).
  std::size_t table_bytes() const;

 private:
  const tab::TabulatedDP& tab_;
  MixedPrecision precision_;
  // Only the kernel and tables of `precision_` are ever filled.
  std::vector<tab::TabulatedEmbeddingSP> tables_sp_;
  std::vector<tab::TabulatedEmbeddingHP> tables_hp_;
  FusedKernel<float> single_;
  FusedKernel<_Float16> half_;
};

}  // namespace dp::fused
