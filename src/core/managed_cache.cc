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
  if (granularity == Granularity::kBank || granularity == Granularity::kWay)
    partition.validate(cache);
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
// Slot — the physical set the tag store serves plus the logical and
// physical unit bases — and refines a base with the way the tag store
// served into the power-managed unit.  Every map is a bijection on sets
// for a fixed mapping state, so hit/miss behaviour between two updates is
// that of the unpartitioned cache: only *where* a line lives, and so which
// unit pays for it, depends on the granularity.
//
// The maps are plain value types built once per call (access, probe,
// access_batch); the batched loop is instantiated once per map, so no
// per-access dispatch remains inside it.

// Monolithic: the whole array is one unit and never re-maps (an update
// is a plain flush).  Its single Block Control counter almost never
// saturates under real traffic — the paper's reference point: no useful
// idleness, nominal aging, zero savings.
struct ManagedCache::MonolithicMap {
  static Slot decode(std::uint64_t set) { return {set, 0, 0}; }
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
    return {d.physical_set, d.logical_bank, d.physical_bank};
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
    const std::uint64_t physical = ((set + add) & mask) ^ xr;
    return {physical, set, physical};
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

namespace {

const CacheTopology& validated(const CacheTopology& topology) {
  topology.validate();
  return topology;
}

}  // namespace

ManagedCache::ManagedCache(const CacheTopology& topology,
                           const TimingModel* clock)
    : topology_(validated(topology)),
      cache_(topology.cache),
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

// The one per-access body.  The wakeup is classified after the tag-store
// access at every granularity: the tag store never touches Block Control,
// and the way map needs the served way to know which unit woke.
template <bool kChecked, class Map>
inline std::uint64_t ManagedCache::serve(const Map& map, const Slot& slot,
                                         std::uint64_t tag,
                                         std::uint64_t address,
                                         bool is_write, bool allocate,
                                         std::uint64_t now,
                                         AccessOutcome* o) {
  const CacheAccessResult r =
      allocate ? cache_.access(tag, slot.set, is_write, address)
               : cache_.probe(tag, slot.set);
  const std::uint64_t unit = map.unit(slot.physical, r.way);
  std::uint64_t gap = 0;  // idle cycles before this access
  if constexpr (kChecked) {
    gap = control_.idle_gap(unit, now);
  } else {
    const std::uint64_t nf = control_.next_free(unit);
    gap = now >= nf ? now - nf : 0;
  }
  // A busy unit has gap 0, and the breakeven is positive, so it never
  // counts as woken (BlockControl::is_sleeping).
  const bool woke = gap >= control_.breakeven_cycles();
  const WakeDepth wake = classify_wake(woke, gap, control_.gate_cycles());
  const std::uint64_t stall = topology_.latency.event_stall(r.hit, wake);
  if (o != nullptr) {
    o->hit = r.hit;
    o->writeback = r.writeback;
    o->evicted = r.evicted;
    o->victim_address = r.victim_address;
    o->logical_unit = map.unit(slot.logical, r.way);
    o->physical_unit = unit;
    o->woke_unit = woke;
    o->wake = wake;
    o->stall_cycles = stall;
  }
  if constexpr (kChecked)
    control_.on_access(unit, now);
  else
    control_.record_access(unit, now);
  return stall;
}

AccessOutcome ManagedCache::serve_one(std::uint64_t address, bool is_write,
                                      bool allocate) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  AccessOutcome out;
  with_unit_map([&](const auto& map) {
    serve<true>(map, map.decode(set_index_of(address)), tag_of(address),
                address, is_write, allocate, clock_->total_cycles(), &out);
  });
  if (own_clock_) own_clock_->on_access(0);
  return out;
}

AccessOutcome ManagedCache::access(std::uint64_t address, bool is_write) {
  return serve_one(address, is_write, /*allocate=*/true);
}

AccessOutcome ManagedCache::probe(std::uint64_t address) {
  return serve_one(address, /*is_write=*/false, /*allocate=*/false);
}

// Batched hot loop, two stages per chunk: (1) tag extraction and the unit
// map's decode for the whole chunk — the mapping only moves on
// update_indexing(), which the driver never fires mid-batch — then (2)
// the shared per-access body per element, with Block Control via the
// assert-free record_access.  One invariant check per batch.  The loop
// reads the clock once and keeps the serving cycle in a local, advanced
// by 1 + stall per access exactly as the clock's owner advances the
// clock between per-access calls, so every statistic matches the
// per-access path bit for bit.  Outcomes are written only when the
// caller asked for them.
template <class Map>
std::uint64_t ManagedCache::run_batch(const Map& map,
                                      const MemAccess* accesses,
                                      std::size_t n, AccessOutcome* out) {
  constexpr std::size_t kChunk = 256;
  std::uint64_t tags[kChunk];
  Slot slots[kChunk];
  std::uint64_t now = clock_->total_cycles();
  std::uint64_t stalls = 0;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t address = accesses[base + j].address;
      tags[j] = tag_of(address);
      slots[j] = map.decode(set_index_of(address));
    }
    for (std::size_t j = 0; j < m; ++j) {
      const MemAccess& a = accesses[base + j];
      const std::uint64_t stall = serve<false>(
          map, slots[j], tags[j], a.address, a.kind == AccessKind::kWrite,
          /*allocate=*/true, now, out != nullptr ? out + base + j : nullptr);
      now += 1 + stall;
      stalls += stall;
    }
  }
  return stalls;
}

std::uint64_t ManagedCache::access_batch(const MemAccess* accesses,
                                         std::size_t n, AccessOutcome* out) {
  PCAL_ASSERT_MSG(!finished_at_, "cache already finished");
  const std::uint64_t stalls = with_unit_map([&](const auto& map) {
    return run_batch(map, accesses, n, out);
  });
  if (own_clock_) own_clock_->on_batch(n, stalls);
  return stalls;
}

bool ManagedCache::invalidate_line(std::uint64_t address) {
  const std::uint64_t set = with_unit_map([&](const auto& map) {
    return map.decode(set_index_of(address)).set;
  });
  return cache_.invalidate(tag_of(address), set);
}

bool ManagedCache::set_alloc_way_mask(std::uint64_t mask) {
  if (topology_.granularity == Granularity::kLine) return false;
  cache_.set_alloc_way_mask(mask);
  return true;
}

std::uint64_t ManagedCache::update_indexing() {
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
  return cache_.flush();
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
