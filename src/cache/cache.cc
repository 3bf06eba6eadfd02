#include "cache/cache.h"

#include <sstream>

namespace pcal {

std::string CacheConfig::describe() const {
  std::ostringstream os;
  os << size_bytes / 1024 << "kB/" << line_bytes << "B";
  if (ways > 1)
    os << "/" << ways << "way";
  else
    os << "/DM";
  return os.str();
}

CacheModel::CacheModel(const CacheConfig& config) : config_(config) {
  config_.validate();
  num_sets_ = config_.num_sets();
  offset_bits_ = config_.offset_bits();
  tag_shift_ = offset_bits_ + config_.index_bits();
  ways_.resize(num_sets_ * config_.ways);
}

CacheAccessResult CacheModel::access_address(std::uint64_t address,
                                             bool is_write) {
  return access(config_.tag_of(address), config_.set_index_of(address),
                is_write);
}

CacheAccessResult CacheModel::probe(std::uint64_t tag, std::uint64_t set) {
  PCAL_ASSERT_MSG(set < num_sets_,
                  "set " << set << " out of range " << num_sets_);
  ++stats_.accesses;
  ++lru_clock_;
  Way* base = &ways_[set * config_.ways];
  for (std::uint64_t w = 0; w < config_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      ++stats_.hits;
      way.lru = lru_clock_;
      return {true, false, false, w, 0};
    }
  }
  ++stats_.misses;
  return {};
}

void CacheModel::set_alloc_way_mask(std::uint64_t mask) {
  const std::uint64_t usable =
      config_.ways >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << config_.ways) - 1;
  PCAL_ASSERT_MSG((mask & usable) != 0,
                  "allocation way mask selects none of the "
                      << config_.ways << " configured ways");
  alloc_mask_ = mask;
}

std::uint64_t CacheModel::flush() {
  std::uint64_t dirty = 0;
  for (Way& w : ways_) {
    if (w.valid && w.dirty) ++dirty;
    w = Way{};
  }
  ++stats_.flushes;
  stats_.flushed_dirty += dirty;
  return dirty;
}

bool CacheModel::invalidate(std::uint64_t tag, std::uint64_t set) {
  PCAL_ASSERT(set < num_sets_);
  Way* base = &ways_[set * config_.ways];
  for (std::uint64_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w] = Way{};
      return true;
    }
  }
  return false;
}

bool CacheModel::contains(std::uint64_t tag, std::uint64_t set) const {
  PCAL_ASSERT(set < num_sets_);
  const Way* base = &ways_[set * config_.ways];
  for (std::uint64_t w = 0; w < config_.ways; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

std::uint64_t CacheModel::valid_lines() const {
  std::uint64_t n = 0;
  for (const Way& w : ways_)
    if (w.valid) ++n;
  return n;
}

}  // namespace pcal
