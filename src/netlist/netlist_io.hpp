// Appendix-A net-list file formats: call-file, io-file, net-list-file.
//
//   call-file:     <INSTANCE> <TEMPLATE>       one record per sub-network
//   io-file:       <TERMINAL> <in|out|inout>   one record per system terminal
//   net-list-file: <NET> <INSTANCE> <TERMINAL> one record per connection,
//                  INSTANCE == "root" for a system terminal of the network.
//
// Records are whitespace-separated fields on variable-length lines; blank
// lines are ignored and '#' starts a comment (a benign extension — the
// historical format had no comments).
#pragma once

#include <string>
#include <string_view>

#include "netlist/module_library.hpp"
#include "netlist/network.hpp"

namespace na {

/// The three Appendix-A files as text, for round-tripping and archival.
struct NetlistFiles {
  std::string call_file;
  std::string io_file;       ///< empty when the network has no system terminals
  std::string netlist_file;
};

/// Builds a Network from the three Appendix-A files.  Module shapes come
/// from `lib`.  The io-file may be empty (paper: "If no system terminal
/// appears in the network then the io-file may be omitted").
/// Throws std::runtime_error with file/line context on malformed input or
/// unknown template / instance / terminal names.
Network parse_network(const ModuleLibrary& lib, std::string_view call_file,
                      std::string_view io_file, std::string_view netlist_file);

/// Emits the Appendix-A files for a network (inverse of parse_network).
NetlistFiles write_network(const Network& net);

}  // namespace na
