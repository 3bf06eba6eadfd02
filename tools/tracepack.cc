// pcal-tracepack — convert between trace formats and the packed .pct
// layout the benches replay at memory speed.
//
//   pcal-tracepack pack   <in.trace> <out.pct>     text/PCALTRC1 -> .pct
//   pcal-tracepack unpack <in.pct> <out.trace>     .pct -> text
//   pcal-tracepack info   <file.pct>               header + decode stats
//   pcal-tracepack gen    <workload> <accesses> <out.pct>
//                                                  pack a synthetic workload
//                                                  (any MediaBench spec name)
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "trace/binary_trace.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/string_util.h"

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  pcal-tracepack pack   <in.trace> <out.pct>\n"
         "  pcal-tracepack unpack <in.pct> <out.trace>\n"
         "  pcal-tracepack info   <file.pct>\n"
         "  pcal-tracepack gen    <workload> <accesses> <out.pct>\n";
  return 2;
}

int cmd_pack(const std::string& in, const std::string& out) {
  const pcal::Trace trace = pcal::load_trace_file(in);
  pcal::write_pct_file(trace, out);
  std::cout << "packed " << trace.size() << " accesses -> " << out << " ("
            << pcal::kPctHeaderBytes +
                   trace.size() * pcal::kPctRecordBytes
            << " bytes)\n";
  return 0;
}

int cmd_unpack(const std::string& in, const std::string& out) {
  pcal::BinaryTraceSource source(in);
  const pcal::Trace trace = pcal::Trace::materialize(source);
  pcal::save_trace_file(trace, out, /*binary=*/false);
  std::cout << "unpacked " << trace.size() << " accesses -> " << out << "\n";
  return 0;
}

int cmd_info(const std::string& path) {
  const pcal::PctInfo info = pcal::pct_file_info(path);
  std::uint64_t reads = 0, writes = 0;
  pcal::BinaryTraceSource source(path);
  pcal::MemAccess batch[4096];
  for (;;) {
    const std::size_t n = source.next_batch(batch, 4096);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i)
      (batch[i].kind == pcal::AccessKind::kWrite ? writes : reads) += 1;
  }
  std::cout << path << ": pct v" << info.version << ", " << info.count
            << " records, " << info.file_bytes << " bytes\n"
            << "  reads " << reads << ", writes " << writes << "\n";
  return 0;
}

int cmd_gen(const std::string& workload, const std::string& accesses_str,
            const std::string& out) {
  const std::optional<std::uint64_t> n = pcal::parse_count(accesses_str);
  if (!n || *n == 0) {
    std::cerr << "pcal-tracepack: bad access count '" << accesses_str
              << "' (want a positive decimal count)\n";
    return 2;
  }
  const pcal::WorkloadSpec spec = pcal::make_mediabench_workload(workload);
  pcal::SyntheticTraceSource source(spec, *n);
  // Streamed, not materialized: constant memory for any access count.
  const std::uint64_t written = pcal::write_pct_stream(source, out);
  std::cout << "generated " << written << " accesses of '" << workload
            << "' -> " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "pack" && argc == 4) return cmd_pack(argv[2], argv[3]);
    if (cmd == "unpack" && argc == 4) return cmd_unpack(argv[2], argv[3]);
    if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
    if (cmd == "gen" && argc == 5)
      return cmd_gen(argv[2], argv[3], argv[4]);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "pcal-tracepack: " << e.what() << "\n";
    return 1;
  }
}
