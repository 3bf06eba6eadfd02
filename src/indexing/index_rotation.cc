#include "indexing/index_rotation.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/error.h"

namespace pcal {

unsigned scrambler_width(unsigned bits) {
  return std::min(24u, std::max(2u, bits) + 8u);
}

void check_rotation_seed(IndexingKind kind, unsigned bits,
                         std::uint64_t seed) {
  if (kind != IndexingKind::kScrambling) return;
  const unsigned width = scrambler_width(bits);
  PCAL_CONFIG_CHECK((seed & low_mask(width)) != 0,
                    "seed " << seed << " is zero in its low " << width
                            << " bits: Scrambling over " << bits
                            << " index bits steps a " << width
                            << "-bit LFSR, whose seed must be nonzero "
                               "modulo 2^"
                            << width);
}

IndexRotation::IndexRotation(IndexingKind kind, unsigned bits,
                             std::uint64_t seed)
    : kind_(kind), mask_(low_mask(bits)) {
  if (kind_ == IndexingKind::kScrambling)
    scrambler_.emplace(scrambler_width(bits), seed);
}

void IndexRotation::update() {
  switch (kind_) {
    case IndexingKind::kStatic:
      break;
    case IndexingKind::kProbing:
      add_ = (add_ + 1) & mask_;
      break;
    case IndexingKind::kScrambling:
      pattern_ = scrambler_->step() & mask_;
      break;
  }
}

}  // namespace pcal
