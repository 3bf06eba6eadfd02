#include "indexing/index_rotation.h"

#include <algorithm>

#include "util/bitops.h"

namespace pcal {

IndexRotation::IndexRotation(IndexingKind kind, unsigned bits,
                             std::uint64_t seed)
    : kind_(kind), mask_(low_mask(bits)) {
  if (kind_ == IndexingKind::kScrambling)
    scrambler_.emplace(std::min(24u, std::max(2u, bits) + 8u), seed);
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
