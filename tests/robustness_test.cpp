// Malformed-input suite for the file parsers: a fuzz-ish corpus of
// truncated and corrupted ESCHER diagrams and module descriptions.  The
// contract under test: every corrupted input either parses or raises
// std::runtime_error with a line/token diagnostic — never a raw
// std::invalid_argument out of std::stoi, never a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/generator.hpp"
#include "gen/chain.hpp"
#include "netlist/module_library.hpp"
#include "schematic/escher_reader.hpp"
#include "schematic/escher_writer.hpp"

namespace na {
namespace {

/// Parsing must end in a value or a runtime_error; any other exception
/// (std::invalid_argument from an unguarded stoi, bad_alloc from a bogus
/// size, ...) fails the test.
template <typename Fn>
void expect_graceful(Fn&& parse, const std::string& what) {
  try {
    parse();
  } catch (const std::runtime_error&) {
    // diagnostic path: fine
  } catch (const std::exception& e) {
    FAIL() << what << ": escaped non-diagnostic exception " << e.what();
  }
}

const Network& chain() {
  static const Network net = gen::chain_network({});
  return net;
}

std::string routed_chain_escher() {
  static const std::string text = [] {
    GeneratorOptions opt;
    opt.placer.max_part_size = 7;
    opt.placer.max_box_size = 7;
    return to_escher_diagram(generate_diagram(chain(), opt), "chain");
  }();
  return text;
}

// ----- ESCHER diagrams --------------------------------------------------------

TEST(EscherRobustness, TruncatedAtEveryLineBoundary) {
  const std::string good = routed_chain_escher();
  std::vector<size_t> cuts;
  for (size_t i = 0; i < good.size(); ++i) {
    if (good[i] == '\n') cuts.push_back(i);
  }
  ASSERT_GT(cuts.size(), 10u);
  for (size_t cut : cuts) {
    const std::string text = good.substr(0, cut);
    expect_graceful([&] { parse_escher_diagram(chain(), text); },
                    "truncated at byte " + std::to_string(cut));
  }
}

TEST(EscherRobustness, TruncatedMidLine) {
  const std::string good = routed_chain_escher();
  for (size_t cut = 1; cut < good.size(); cut += 17) {
    expect_graceful([&] { parse_escher_diagram(chain(), good.substr(0, cut)); },
                    "truncated at byte " + std::to_string(cut));
  }
}

TEST(EscherRobustness, IntegerFieldsCorrupted) {
  const std::string good = routed_chain_escher();
  // Replace each digit (sampled) with garbage that stoi would have
  // partially accepted or crashed on.
  const std::vector<std::string> poisons = {"x", "12y", "-", "999999999999",
                                            "1.5", ""};
  int corrupted = 0;
  for (size_t i = 0; i < good.size(); i += 31) {
    if (!isdigit(static_cast<unsigned char>(good[i]))) continue;
    for (const std::string& poison : poisons) {
      std::string text = good;
      text.replace(i, 1, poison);
      expect_graceful([&] { parse_escher_diagram(chain(), text); },
                      "poison '" + poison + "' at byte " + std::to_string(i));
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 20);
}

TEST(EscherRobustness, TrailingGarbageIntegerIsADiagnosedError) {
  // "5x" must be a one-line diagnostic naming the line, not silently 5.
  const Network& net = chain();
  try {
    parse_escher_diagram(net,
                         "#TUE-ES-871\n"
                         "contact: 0 0 0 0 0 0 5x 3 0 0\n");
    FAIL() << "trailing garbage accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5x"), std::string::npos) << msg;
  }
}

TEST(EscherRobustness, CoordinatesBeyondTheBoundAreDiagnosed) {
  // Two vertices of one net at the ends of the int range: reassembling the
  // polyline would subtract them and overflow.  The coordinate bound must
  // reject the first one, naming its line.
  const Network& net = chain();
  const std::string name = net.net(0).name;
  auto node = [&](const char* x) {
    return std::string("node: 1 0 1 1 1 ") + x +
           " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0\n"
           "oname: " + name + "\ncname: " + name + "\n";
  };
  try {
    parse_escher_diagram(net, "#TUE-ES-871\n" + node("2147483647") +
                                  node("-2147483648"));
    FAIL() << "out-of-range coordinates accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2147483647"), std::string::npos) << msg;
  }
}

TEST(EscherRobustness, StrayAndShortRecords) {
  const Network& net = chain();
  const std::vector<std::string> corpus = {
      "#TUE-ES-871\nnode:\n",
      "#TUE-ES-871\nnode: 1 2 3\n",
      "#TUE-ES-871\ncname: foo\n",
      "#TUE-ES-871\noname: bar\n",
      "#TUE-ES-871\ninstname: baz\n",
      "#TUE-ES-871\nsubsys: a b c d e f g h i j k l m n\n",
      "#TUE-ES-871\ncontact: 0 0 0 0 0 0 1 1 0 0\ncname: nosuchterm\n",
      "#TUE-ES-871\ncontact: 0 0 0 0 0 0 1 1 0 0\n",  // pending contact at EOF
      "", "\n\n\n", "#TUE-ES-871",
  };
  for (const std::string& text : corpus) {
    expect_graceful([&] { parse_escher_diagram(net, text); }, text);
  }
}

// ----- module descriptions ----------------------------------------------------

TEST(ModuleLibraryRobustness, CorruptedDescriptions) {
  const std::vector<std::string> corpus = {
      "",                                    // empty
      "module\n",                            // short heading
      "module m\n",                          //
      "module m 4\n",                        //
      "module m 4x 4\n",                     // trailing garbage in size
      "module m 4 4x\n",                     //
      "module m foo bar\n",                  // non-numeric size
      "module m -4 4\n",                     // negative size
      "module m 0 0\n",                      // zero size
      "module m 99999999999999 4\n",         // overflow
      "module m 4 4\nin a\n",                // short terminal record
      "module m 4 4\nin a 0\n",              //
      "module m 4 4\nin a x y\n",            // non-numeric coordinates
      "module m 4 4\nin a 0x 1\n",           // trailing garbage coordinate
      "module m 4 4\nin a 2 2\n",            // terminal off the outline
      "module m 4 4\nbogus a 0 1\n",         // bad terminal type
      "module m 4 4\nin a 0 1 extra\n",      // long record
  };
  for (const std::string& text : corpus) {
    expect_graceful([&] { parse_module_description(text); }, text);
    EXPECT_THROW(parse_module_description(text), std::runtime_error) << text;
  }
}

TEST(ModuleLibraryRobustness, SizeBeyondTheCoordinateBoundIsRejected) {
  try {
    parse_module_description("module m 2147483647 4\n");
    FAIL() << "module width 2147483647 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

TEST(ModuleLibraryRobustness, PitchMisalignmentDiagnosed) {
  try {
    parse_module_description("module m 40 45\n", 10);
    FAIL() << "misaligned coordinate accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("pitch"), std::string::npos)
        << e.what();
  }
  // Pitch-corrupted coordinate with trailing garbage: still a diagnostic.
  EXPECT_THROW(parse_module_description("module m 40 4O\n", 10),
               std::runtime_error);
}

TEST(ModuleLibraryRobustness, ValidDescriptionStillParses) {
  const ModuleTemplate t =
      parse_module_description("module m 4 4\nin a 0 1\nout y 4 2\n");
  EXPECT_EQ(t.name, "m");
  ASSERT_EQ(t.terms.size(), 2u);
  EXPECT_EQ(t.terms[1].pos, (geom::Point{4, 2}));
}

}  // namespace
}  // namespace na
