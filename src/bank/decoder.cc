#include "bank/decoder.h"

namespace pcal {

BankDecoder::BankDecoder(const CacheConfig& cache,
                         const PartitionConfig& partition,
                         IndexingKind indexing, std::uint64_t seed)
    : index_bits_(cache.index_bits()),
      bank_bits_(partition.bank_bits()),
      line_bits_(index_bits_ - bank_bits_),
      num_banks_(partition.num_banks),
      f_(indexing, bank_bits_, seed) {
  cache.validate();
  partition.validate(cache);
  rebuild_table();
}

void BankDecoder::rebuild_table() {
  std::uint64_t seen = 0;
  for (std::uint64_t logical = 0; logical < num_banks_; ++logical) {
    const std::uint64_t physical = f_(logical);
    PCAL_ASSERT_MSG(physical < num_banks_ && !(seen >> physical & 1),
                    "f() is not a permutation of [0, "
                        << num_banks_ << "): bank " << logical << " -> "
                        << physical);
    seen |= std::uint64_t{1} << physical;
    physical_bank_[logical] = physical;
  }
}

}  // namespace pcal
