#include "core/managed_cache.h"

#include <algorithm>
#include <sstream>

#include "core/enum_strings.h"
#include "util/error.h"

namespace pcal {

std::uint64_t CacheTopology::num_units() const {
  switch (granularity) {
    case Granularity::kMonolithic: return 1;
    case Granularity::kBank: return partition.num_banks;
    case Granularity::kLine: return cache.num_sets();
    case Granularity::kWay: return partition.num_banks * cache.ways;
  }
  return 1;
}

void CacheTopology::validate() const {
  cache.validate();
  // f() rotates the p bank bits at bank and way grain and all n index
  // bits at line grain; a monolithic cache has none.
  if (granularity == Granularity::kBank || granularity == Granularity::kWay) {
    partition.validate(cache);
    check_rotation_seed(indexing, partition.bank_bits(), indexing_seed);
  } else if (granularity == Granularity::kLine) {
    check_rotation_seed(indexing, cache.index_bits(), indexing_seed);
  }
  PCAL_CONFIG_CHECK(breakeven_cycles > 0, "breakeven time must be positive");
  PCAL_CONFIG_CHECK(gate_cycles() >= breakeven_cycles,
                    "gate threshold must not precede the drowsy threshold");
  latency.validate();
  contention.validate();
}

std::string CacheTopology::describe() const {
  std::ostringstream os;
  os << cache.describe() << " ";
  switch (granularity) {
    case Granularity::kMonolithic:
      os << "M=1";
      break;
    case Granularity::kBank:
      os << "M=" << partition.num_banks;
      break;
    case Granularity::kLine:
      os << "line-grain";
      break;
    case Granularity::kWay:
      os << "M=" << partition.num_banks << " way-grain";
      break;
  }
  os << " " << to_string(indexing);
  if (drowsy_active()) os << " drowsy+" << drowsy_window_cycles;
  // Timed levels carry their latency point; untimed labels are unchanged
  // (the zero-latency degeneracy extends to config labels).
  if (!latency.zero()) os << " lat=" << latency.describe();
  // Same rule for contention: an all-unlimited level's label is unchanged
  // (the contention-off degeneracy extends to config labels).
  if (contention.enabled()) os << " cont=" << contention.describe();
  return os.str();
}

// ---- Unit maps ----
//
// A unit map turns a logical set index (CacheConfig::set_index_of) into a
// Slot — the logical and physical unit bases — and refines a base with
// the way the tag store served into the power-managed unit.  Every map is
// a bijection on sets for a fixed mapping state, and every update
// flushes, so hit/miss behaviour is that of the unpartitioned cache: the
// tag store is indexed by the logical set, and only which unit pays for
// an access depends on the granularity.
//
// The maps are plain value types built once per call (access, probe,
// access_batch, power_batch); the power pass is instantiated once per
// map, so no per-access dispatch remains inside it.

// Monolithic: the whole array is one unit and never re-maps (an update
// is a plain flush).  Its single Block Control counter almost never
// saturates under real traffic — the paper's reference point: no useful
// idleness, nominal aging, zero savings.
struct ManagedCache::MonolithicMap {
  static Slot decode(std::uint64_t) { return {0, 0}; }
  static std::uint64_t unit(std::uint64_t, std::uint64_t) { return 0; }
};

// Bank (paper Fig. 1 + Fig. 2): the bank decoder D splits the n-bit index
// into p MSBs (the logical bank) and n-p LSBs (the line in the bank), and
// routes the logical bank through the time-varying f() (an IndexRotation
// over the p bank bits, read from the decoder's table).
// Each of the M uniform banks is one unit, with its own Block Control
// counter.  An update advances f() and flushes the cache, exactly as the
// paper requires ("every time the indexing is updated the entire cache
// content becomes unusable and a cache flush is required") — in
// deployment it piggybacks on flushes that happen anyway (context
// switches).
struct ManagedCache::BankMap {
  const BankDecoder& decoder;
  Slot decode(std::uint64_t set) const {
    const DecodedIndex d = decoder.decode(set);
    return {d.logical_bank, d.physical_bank};
  }
  static std::uint64_t unit(std::uint64_t bank, std::uint64_t) {
    return bank;
  }
};

// Way (per-way sleep within each bank): between the paper's banks and
// reference [7]'s lines for set-associative caches.  Bank selection and
// re-indexing are the bank map's; each of a bank's W way-columns is a
// unit (bank * W + way), where the way is whatever way the tag store
// served — the hitting way, or the LRU victim on a miss.  A working set
// that fits in a fraction of the associativity lets the remaining
// columns sleep without the per-line sleep transistors of the line map.
// Degeneracy: a direct-mapped cache (W = 1) has one way per set, so the
// unit is the physical bank and this map reproduces the bank map bit for
// bit (tests/way_grain_test.cc).
struct ManagedCache::WayMap {
  BankMap bank;
  std::uint64_t ways;
  Slot decode(std::uint64_t set) const { return bank.decode(set); }
  std::uint64_t unit(std::uint64_t bank_index, std::uint64_t way) const {
    return bank_index * ways + way;
  }
};

// Line (reference [7], "Dynamic Indexing: Concurrent Leakage and Aging
// Optimization for Caches", which the DATE'11 paper coarsens to banks):
// every set is a unit with its own breakeven counter, and re-indexing
// rotates the entire n-bit index, not just its p MSBs: the bank decoder's
// IndexRotation over n bits instead of p — a probing counter added mod L,
// or an n-bit LFSR pattern XORed in.  Idleness is harvested and balanced
// at the finest grain, which makes it the aging-optimal upper bound; but
// it needs per-line sleep transistors and control inside the SRAM array,
// which is exactly what the paper's bank-level scheme avoids.  The map
// computes the rotation's f() from by-value copies of its addend, pattern
// and mask, so the batched loop keeps them in registers.
struct ManagedCache::LineMap {
  std::uint64_t add, xr, mask;
  Slot decode(std::uint64_t set) const {
    return {set, ((set + add) & mask) ^ xr};
  }
  static std::uint64_t unit(std::uint64_t set, std::uint64_t) { return set; }
};

template <class F>
decltype(auto) ManagedCache::with_unit_map(F&& f) const {
  switch (topology_.granularity) {
    case Granularity::kMonolithic:
      break;
    case Granularity::kBank:
      return f(BankMap{*decoder_});
    case Granularity::kWay:
      return f(WayMap{BankMap{*decoder_}, topology_.cache.ways});
    case Granularity::kLine:
      return f(LineMap{line_f_->add(), line_f_->pattern(), line_f_->mask()});
  }
  return f(MonolithicMap{});
}

// The power step.  It reads the tag store's outcome only: the wakeup is
// classified after the tag step at every granularity, because the way map
// needs the served way to know which unit woke.  Block Control's records
// and thresholds, the latencies and the serving cycle live in this
// by-value struct, which the batched pass holds in a local for a whole
// chunk, so they stay in registers rather than being reloaded around
// every store through the records.
struct ManagedCache::PowerStep {
  BlockControl& control;  // the checked path's per-access asserts
  BlockControl::Recorder records;
  LatencyParams latency;
  std::uint64_t now;  // the cycle the next access is served at
  std::uint64_t stalls = 0;

  /// Serves one access at `now` and advances it by 1 + the access's
  /// stall; fills `o` only when it is non-null.  kChecked: Block
  /// Control's per-access asserts (access/probe).
  template <bool kChecked, class Map>
  void serve(const Map& map, const TagOutcome& t, AccessOutcome* o) {
    const Slot slot = map.decode(t.set);
    const std::uint64_t unit = map.unit(slot.physical, t.result.way);
    std::uint64_t gap;  // idle cycles before this access
    if constexpr (kChecked)
      gap = control.on_access(unit, now);
    else
      gap = records.record(unit, now);
    // A busy unit has gap 0, and the breakeven is positive, so it never
    // counts as woken (BlockControl::is_sleeping).
    const bool woke = gap >= records.breakeven();
    const WakeDepth wake = classify_wake(woke, gap, records.gate());
    const std::uint64_t stall = latency.event_stall(t.result.hit, wake);
    if (o != nullptr) {
      o->hit = t.result.hit;
      o->writeback = t.result.writeback;
      o->evicted = t.result.evicted;
      o->victim_address = t.result.victim_address;
      o->logical_unit = map.unit(slot.logical, t.result.way);
      o->physical_unit = unit;
      o->woke_unit = woke;
      o->wake = wake;
      o->stall_cycles = stall;
    }
    now += 1 + stall;
    stalls += stall;
  }
};

namespace {

const CacheTopology& validated(const CacheTopology& topology) {
  topology.validate();
  return topology;
}

/// Accesses per tag pass of access_batch(): the tag outcomes of one
/// chunk stay in the L1 data cache until the power pass reads them.
constexpr std::size_t kChunk = 256;

}  // namespace

ManagedCache::ManagedCache(const CacheTopology& topology,
                           const TimingModel* clock)
    : topology_(validated(topology)),
      tags_(std::make_shared<CacheModel>(topology.cache)),
      control_(topology.num_units(), topology.breakeven_cycles,
               topology.gate_cycles()),
      offset_bits_(topology.cache.offset_bits()),
      tag_shift_(offset_bits_ + topology.cache.index_bits()),
      index_mask_(low_mask(topology.cache.index_bits())),
      own_clock_(clock == nullptr ? std::make_unique<TimingModel>()
                                  : nullptr),
      clock_(clock == nullptr ? own_clock_.get() : clock) {
  switch (topology.granularity) {
    case Granularity::kMonolithic:
      break;
    case Granularity::kBank:
    case Granularity::kWay:
      decoder_.emplace(topology.cache, topology.partition, topology.indexing,
                       topology.indexing_seed);
      break;
    case Granularity::kLine:
      line_f_.emplace(topology.indexing, topology.cache.index_bits(),
                      topology.indexing_seed);
      break;
  }
}

AccessOutcome ManagedCache::serve_one(std::uint64_t address, bool is_write,
                                      bool allocate) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  const TagOutcome t = tag_step(address, is_write, allocate);
  AccessOutcome out;
  PowerStep p{control_, control_.recorder(), topology_.latency,
              clock_->total_cycles()};
  with_unit_map([&](const auto& map) { p.serve<true>(map, t, &out); });
  if (own_clock_) own_clock_->on_access(0);
  return out;
}

AccessOutcome ManagedCache::access(std::uint64_t address, bool is_write) {
  return serve_one(address, is_write, /*allocate=*/true);
}

AccessOutcome ManagedCache::probe(std::uint64_t address) {
  return serve_one(address, /*is_write=*/false, /*allocate=*/false);
}

// The batched path runs the two steps as two passes over each chunk:
// the tag pass walks the store for the whole chunk — the mapping only
// moves on an update, which the driver never fires mid-batch — then the
// power pass serves each access, with Block Control through the
// assert-free recorder.  One invariant check per batch.  The power pass
// starts at the clock's cycle and advances its local serving cycle by
// 1 + stall per access exactly as the clock's owner advances the clock
// between per-access calls, so every statistic matches the per-access
// path bit for bit.  Outcomes are written only when the caller asked for
// them.
void ManagedCache::tag_batch(const MemAccess* accesses, std::size_t n,
                             TagOutcome* tags) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  for (std::size_t j = 0; j < n; ++j)
    tags[j] = tag_step(accesses[j].address,
                       accesses[j].kind == AccessKind::kWrite,
                       /*allocate=*/true);
}

template <class Map>
std::uint64_t ManagedCache::power_pass(const Map& map, const TagOutcome* tags,
                                       std::size_t n, std::uint64_t* now,
                                       AccessOutcome* out) {
  PowerStep p{control_, control_.recorder(), topology_.latency, *now};
  for (std::size_t j = 0; j < n; ++j)
    p.serve<false>(map, tags[j], out != nullptr ? out + j : nullptr);
  *now = p.now;
  return p.stalls;
}

std::uint64_t ManagedCache::power_batch(const TagOutcome* tags, std::size_t n,
                                        AccessOutcome* out) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  std::uint64_t now = clock_->total_cycles();
  const std::uint64_t stalls = with_unit_map([&](const auto& map) {
    return power_pass(map, tags, n, &now, out);
  });
  if (own_clock_) own_clock_->on_batch(n, stalls);
  return stalls;
}

std::uint64_t ManagedCache::access_batch(const MemAccess* accesses,
                                         std::size_t n, AccessOutcome* out) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  TagOutcome tags[kChunk];
  std::uint64_t now = clock_->total_cycles();
  const std::uint64_t stalls = with_unit_map([&](const auto& map) {
    std::uint64_t sum = 0;
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = std::min(kChunk, n - base);
      tag_batch(accesses + base, m, tags);
      sum += power_pass(map, tags, m, &now,
                        out != nullptr ? out + base : nullptr);
    }
    return sum;
  });
  if (own_clock_) own_clock_->on_batch(n, stalls);
  return stalls;
}

void ManagedCache::share_tags(const ManagedCache& other) {
  PCAL_ASSERT_MSG(tags_->config() == other.tags_->config(),
                  "only caches of one geometry can share a tag store");
  PCAL_ASSERT_MSG(stats().accesses == 0 && other.stats().accesses == 0,
                  "a tag store is shared before either cache serves");
  tags_ = other.tags_;
}

bool ManagedCache::invalidate_line(std::uint64_t address) {
  return tags_->invalidate(tag_of(address), set_index_of(address));
}

bool ManagedCache::set_alloc_way_mask(std::uint64_t mask) {
  if (topology_.granularity == Granularity::kLine) return false;
  tags_->set_alloc_way_mask(mask);
  return true;
}

std::uint64_t ManagedCache::update_indexing() {
  rotate_indexing();
  return tags_->flush();
}

void ManagedCache::rotate_indexing() {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  switch (topology_.granularity) {
    case Granularity::kMonolithic:
      break;
    case Granularity::kBank:
    case Granularity::kWay:
      decoder_->update();
      break;
    case Granularity::kLine:
      line_f_->update();
      break;
  }
  ++updates_;
}

void ManagedCache::finish() {
  if (finished_at_) return;
  finished_at_ = clock_->total_cycles();
  control_.finish(*finished_at_);
}

double ManagedCache::unit_residency(std::uint64_t unit) const {
  PCAL_ASSERT_MSG(finished_at_, "call finish() first");
  return control_.sleep_residency(unit, *finished_at_);
}

double ManagedCache::avg_residency() const {
  const std::uint64_t n = num_units();
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) sum += unit_residency(i);
  return sum / static_cast<double>(n);
}

double ManagedCache::min_residency() const {
  const std::uint64_t n = num_units();
  double lo = unit_residency(0);
  for (std::uint64_t i = 1; i < n; ++i)
    lo = std::min(lo, unit_residency(i));
  return lo;
}

// Sleep is split at the gate threshold: of an idle interval of length
// len, min(len, gate) - breakeven cycles are drowsy (if len > breakeven)
// and len - gate are gated (if len > gate).  Under the gated policy the
// gate equals the breakeven, so drowsy_cycles == 0 and gated_episodes ==
// sleep_episodes exactly.
UnitActivity ManagedCache::unit_activity(std::uint64_t unit) const {
  PCAL_ASSERT_MSG(finished_at_, "call finish() first");
  UnitActivity a;
  a.accesses = control_.accesses(unit);
  a.sleep_cycles = control_.sleep_cycles(unit);
  a.sleep_episodes = control_.sleep_episodes(unit);
  a.useful_idleness_count = control_.useful_idleness_count(unit);
  const std::uint64_t gated = control_.gated_cycles(unit);
  PCAL_ASSERT(gated <= a.sleep_cycles);
  a.drowsy_cycles = a.sleep_cycles - gated;
  a.gated_episodes = control_.gated_episodes(unit);
  return a;
}

UnitPowerState ManagedCache::unit_state(std::uint64_t unit) const {
  const std::uint64_t gap = control_.idle_gap(unit, clock_->total_cycles());
  if (gap < control_.breakeven_cycles()) return UnitPowerState::kAwake;
  if (gap >= control_.gate_cycles()) return UnitPowerState::kGated;
  return UnitPowerState::kDrowsy;
}

std::unique_ptr<ManagedCache> make_managed_cache(
    const CacheTopology& topology, const TimingModel* clock) {
  return std::make_unique<ManagedCache>(topology, clock);
}

}  // namespace pcal
