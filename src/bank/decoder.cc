#include "bank/decoder.h"

namespace pcal {

BankDecoder::BankDecoder(const CacheConfig& cache,
                         const PartitionConfig& partition,
                         std::unique_ptr<IndexingPolicy> policy)
    : index_bits_(cache.index_bits()),
      bank_bits_(partition.bank_bits()),
      line_bits_(index_bits_ - bank_bits_),
      line_mask_(low_mask(line_bits_)),
      num_banks_(partition.num_banks),
      policy_(std::move(policy)) {
  cache.validate();
  partition.validate(cache);
  PCAL_CONFIG_CHECK(policy_ != nullptr, "decoder needs an indexing policy");
  PCAL_CONFIG_CHECK(policy_->num_banks() == num_banks_,
                    "indexing policy bank count " << policy_->num_banks()
                                                  << " != partition "
                                                  << num_banks_);
  rebuild_table();
}

void BankDecoder::rebuild_table() {
  std::uint64_t seen = 0;
  for (std::uint64_t logical = 0; logical < num_banks_; ++logical) {
    const std::uint64_t physical = policy_->map_bank(logical);
    PCAL_ASSERT_MSG(physical < num_banks_ && !(seen >> physical & 1),
                    policy_->name() << " f() is not a permutation of [0, "
                                    << num_banks_ << ") after "
                                    << policy_->updates() << " updates: bank "
                                    << logical << " -> " << physical);
    seen |= std::uint64_t{1} << physical;
    physical_bank_[logical] = physical;
  }
}

}  // namespace pcal
