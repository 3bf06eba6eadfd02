#include "aging/aging_lut.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.h"
#include "util/fingerprint.h"

namespace pcal {
namespace {

constexpr char kMagic[] = "pcal-aging-lut";

}  // namespace

std::vector<double> AgingLut::default_p0_axis() {
  // p0 is symmetric around 0.5; the lifetime surface is smooth in p0.
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

std::vector<double> AgingLut::default_sleep_axis() {
  // Convex in sleep: denser sampling near the end where 1/(1-s) bends.
  return {0.0, 0.1, 0.2, 0.3,  0.4, 0.5,  0.6,  0.7,
          0.8, 0.85, 0.9, 0.93, 0.96, 0.98, 0.99, 1.0};
}

AgingLut AgingLut::build(const CellAgingCharacterizer& characterizer) {
  return build(characterizer, default_p0_axis(), default_sleep_axis());
}

AgingLut AgingLut::build(const CellAgingCharacterizer& characterizer,
                         std::vector<double> p0_axis,
                         std::vector<double> sleep_axis) {
  const std::uint64_t fp =
      fingerprint(characterizer.params(), p0_axis, sleep_axis);
  return AgingLut(characterizer.build_lut(p0_axis, sleep_axis), fp);
}

AgingLut AgingLut::characterize(const AgingParams& params) {
  CellAgingCharacterizer characterizer(params);
  characterizer.calibrate();
  return build(characterizer);
}

std::uint64_t AgingLut::fingerprint(const AgingParams& params,
                                    const std::vector<double>& p0_axis,
                                    const std::vector<double>& sleep_axis) {
  const SramCellParams& c = params.cell;
  const NbtiParams& n = params.nbti;
  const double fields[] = {
      c.nmos_driver.vth, c.nmos_driver.alpha, c.nmos_driver.beta,
      c.pmos_load.vth,   c.pmos_load.alpha,   c.pmos_load.beta,
      c.nmos_access.vth, c.nmos_access.alpha, c.nmos_access.beta,
      c.vdd,
      n.n, n.kdc, n.tox_nm, n.e0_v_per_nm, n.ea_ev, n.temp_ref_c, n.vdd_ref,
      n.recoverable_fraction, n.recovery_tau_s,
      params.criterion.snm_degradation,
      params.temperature_c, params.vdd, params.vdd_retention,
      params.nominal_lifetime_years};
  // AgingParams is all doubles: a field added there changes its size and
  // must be added to the list above.
  static_assert(sizeof(fields) == sizeof(AgingParams),
                "AgingLut::fingerprint must hash every AgingParams field");
  Fingerprint h;
  h.add(kMagic);
  for (const double v : fields) h.add_double(v);
  for (const std::vector<double>* axis : {&p0_axis, &sleep_axis}) {
    h.add_u64(axis->size());
    for (const double v : *axis) h.add_double(v);
  }
  return h.value();
}

double AgingLut::lifetime_years(double p0, double sleep) const {
  return table_(std::clamp(p0, 0.0, 1.0), std::clamp(sleep, 0.0, 1.0));
}

void AgingLut::serialize(std::ostream& os) const {
  char stamp[17];
  std::snprintf(stamp, sizeof(stamp), "%016" PRIx64, fingerprint_);
  os << kMagic << ' ' << stamp << '\n';
  table_.serialize(os);
}

AgingLut AgingLut::deserialize(std::istream& is) {
  std::string magic, stamp;
  if (!(is >> magic) || magic != kMagic)
    throw ParseError("aging LUT: bad magic '" + magic + "' (want " +
                     kMagic + ")");
  if (!(is >> stamp) || stamp.size() != 16 ||
      stamp.find_first_not_of("0123456789abcdef") != std::string::npos)
    throw ParseError("aging LUT: fingerprint '" + stamp +
                     "' is not 16 lowercase hex digits");
  const std::uint64_t fp = std::strtoull(stamp.c_str(), nullptr, 16);
  return AgingLut(BilinearTable2D::deserialize(is), fp);
}

}  // namespace pcal
