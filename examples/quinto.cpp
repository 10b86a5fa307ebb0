// quinto: the module generator of Appendix B — "adds a new module to the
// library".  Reads a simple module description and emits the ESCHER-style
// library representation (Appendix C), validating the description the way
// the historical tool did (coordinates on the outline, pitch-aligned).
//
//   $ ./quinto [file]          reads stdin when no file is given
//   $ ./quinto -pitch 10 file  historical files with pitch-10 coordinates
#include <iostream>
#include <iterator>

#include "core/options.hpp"
#include "netlist/module_library.hpp"
#include "netlist/text_io.hpp"
#include "schematic/escher_writer.hpp"

int main(int argc, char** argv) {
  using namespace na;
  int pitch = 1;
  std::string path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "-pitch" && i + 1 < argc) {
        pitch = parse_int_arg(argv[++i], a, 1);
      } else {
        path = a;
      }
    }
    const std::string text =
        path.empty() ? std::string(std::istreambuf_iterator<char>(std::cin), {})
                     : read_file(path);
    const ModuleTemplate tmpl = parse_module_description(text, pitch);
    std::cout << to_escher_template(tmpl);
    std::cerr << "module '" << tmpl.name << "' (" << tmpl.size.x << "x"
              << tmpl.size.y << ", " << tmpl.terms.size()
              << " terminals) added to the library\n";
  } catch (const std::exception& e) {
    std::cerr << "quinto: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
