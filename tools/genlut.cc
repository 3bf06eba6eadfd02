// pcal-genlut — characterize the st45 SRAM cell once, at build time.
//
//   pcal-genlut <out.cc>
//
// Calibrates the cell for AgingParams::st45(), builds the aging LUT on
// the default axes (AgingLut::characterize) and writes it, serialized
// through AgingLut::serialize, as a C++ source that defines
// pcal::embedded_st45_lut().  The build compiles that source into the
// pcal library, so AgingContext loads the table instead of
// re-characterizing the cell in every process.  This tool links the same
// cell-physics object files as the library, so the embedded table is bit
// for bit the one a runtime characterization would build with this
// toolchain and these flags.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "aging/aging_lut.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: pcal-genlut <out.cc>\n";
    return 2;
  }
  const std::string path = argv[1];
  try {
    std::ostringstream table;
    pcal::AgingLut::characterize(pcal::AgingParams::st45()).serialize(table);

    // Written to a temporary and renamed, so an interrupted run never
    // leaves a truncated source behind for the next build to compile.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << "// Generated at build time by pcal-genlut (tools/genlut.cc): "
             "the st45 aging LUT.\n"
             "// Do not edit; rebuilding regenerates it whenever the cell "
             "physics changes.\n"
             "#include \"aging/aging_lut.h\"\n\n"
             "namespace pcal {\n\n"
             "std::string_view embedded_st45_lut() {\n"
             "  return R\"pcal_lut(" << table.str() << ")pcal_lut\";\n"
             "}\n\n"
             "}  // namespace pcal\n";
      if (!out.flush()) {
        std::cerr << "pcal-genlut: cannot write " << tmp << "\n";
        return 1;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::cerr << "pcal-genlut: cannot rename " << tmp << " to " << path
                << "\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "pcal-genlut: error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
