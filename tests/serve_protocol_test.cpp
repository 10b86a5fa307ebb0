// Malformed-input corpus for the na_serve wire protocol: the JSON value
// parser and parse_request must reject garbage with structured errors (and
// the right error codes) instead of crashing or accepting nonsense.
#include <gtest/gtest.h>

#include <string>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/session_host.hpp"

using namespace na::serve;

// ----- JSON value parser -----------------------------------------------------

TEST(ServeJson, ParsesScalars) {
  EXPECT_EQ(parse_json("null").kind, JsonValue::kNull);
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("\"hi\"").text, "hi");
  EXPECT_EQ(parse_json("  42 ").text, "42");
  long long n = 0;
  EXPECT_TRUE(parse_json("-123").as_int(&n));
  EXPECT_EQ(n, -123);
}

TEST(ServeJson, ParsesContainers) {
  const JsonValue v = parse_json(R"({"a":[1,2,3],"b":{"c":"d"},"e":null})");
  ASSERT_EQ(v.kind, JsonValue::kObject);
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  ASSERT_NE(v.find("b"), nullptr);
  ASSERT_NE(v.find("b")->find("c"), nullptr);
  EXPECT_EQ(v.find("b")->find("c")->text, "d");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")").text, "a\"b\\c\nd");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").text, "A\u00e9");  // A, é
  EXPECT_EQ(parse_json(R"("\t\r\b\f\/")").text, "\t\r\b\f/");
}

TEST(ServeJson, PairsSurrogateEscapes) {
  // RFC 8259 section 7: non-BMP code points travel as \u-escaped
  // surrogate pairs.  U+1F600 = D83D DE00 -> 4-byte UTF-8.
  EXPECT_EQ(parse_json(R"("\uD83D\uDE00")").text, "\xF0\x9F\x98\x80");
  EXPECT_EQ(parse_json(R"("x\uD83D\uDE00y")").text, "x\xF0\x9F\x98\x80y");
  // U+10000 (first supplementary) and U+10FFFF (last).
  EXPECT_EQ(parse_json(R"("\uD800\uDC00")").text, "\xF0\x90\x80\x80");
  EXPECT_EQ(parse_json(R"("\uDBFF\uDFFF")").text, "\xF4\x8F\xBF\xBF");
  // BMP neighbours of the surrogate range still decode alone.
  EXPECT_EQ(parse_json(R"("\uD7FF\uE000")").text, "\xED\x9F\xBF\xEE\x80\x80");
}

TEST(ServeJson, RejectsUnpairedSurrogates) {
  const char* bad[] = {
      R"("\uD83D")",         // lone high at end of string
      R"("\uD83Dx")",        // high followed by a plain char
      R"("\uD83D\n")",       // high followed by a non-\u escape
      R"("\uD83D\u0041")",   // high followed by a non-surrogate \u
      R"("\uD83D\uD83D")",   // high followed by another high
      R"("\uDE00")",         // lone low
      R"("\uDE00\uD83D")",   // pair in the wrong order
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_json(text), std::runtime_error) << "input: " << text;
  }
}

TEST(ServeJson, SurrogateErrorsCarryByteOffset) {
  try {
    parse_json(R"({"a": "\uDE00"})");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // The cursor sits just past the 4 hex digits of the offending escape.
    EXPECT_NE(std::string(e.what()).find("byte 13"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("surrogate"), std::string::npos)
        << e.what();
  }
}

TEST(ServeJson, AsIntIsStrict) {
  long long n = 0;
  EXPECT_FALSE(parse_json("1.5").as_int(&n));
  EXPECT_FALSE(parse_json("1e3").as_int(&n));
  EXPECT_FALSE(parse_json("\"7\"").as_int(&n));   // strings are not numbers
  EXPECT_FALSE(parse_json("99999999999999999999").as_int(&n));  // overflow
  EXPECT_TRUE(parse_json("9223372036854775807").as_int(&n));
}

TEST(ServeJson, RejectsMalformed) {
  const char* bad[] = {
      "",
      "   ",
      "{",
      "[1,2",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "[1,]",
      "\"unterminated",
      "\"bad\\q escape\"",
      "\"\\u12g4\"",
      "tru",
      "nul",
      "+1",
      "01",
      "1.",
      "1e",
      "--3",
      "{} garbage",
      "[1] [2]",
      "\x01",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_json(text), std::runtime_error) << "input: " << text;
  }
}

TEST(ServeJson, RejectsRawControlCharInString) {
  EXPECT_THROW(parse_json(std::string("\"a\nb\"")), std::runtime_error);
  EXPECT_THROW(parse_json(std::string("\"a\x01b\"")), std::runtime_error);
}

TEST(ServeJson, DepthCapStopsStackExhaustion) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += '[';
  EXPECT_THROW(parse_json(deep), std::runtime_error);
  // At the cap exactly: fine.
  std::string ok(kMaxJsonDepth, '[');
  ok += std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW(parse_json(ok));
  std::string over(kMaxJsonDepth + 1, '[');
  over += std::string(kMaxJsonDepth + 1, ']');
  EXPECT_THROW(parse_json(over), std::runtime_error);
}

TEST(ServeJson, ReportsByteOffset) {
  try {
    parse_json("{\"a\": @}");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte 6"), std::string::npos)
        << e.what();
  }
}

// ----- request parsing -------------------------------------------------------

namespace {

const char* code_of(const std::string& line) {
  try {
    parse_request(line);
  } catch (const ProtocolError& e) {
    return e.code();
  }
  return nullptr;  // parsed fine
}

}  // namespace

TEST(ServeProtocol, ParsesEveryOp) {
  EXPECT_EQ(parse_request(R"({"op":"ping"})").op, Op::kPing);
  EXPECT_EQ(parse_request(R"({"op":"metrics"})").op, Op::kMetrics);
  // `metrics` is the only registry view; `stats` is not an op.
  EXPECT_STREQ(code_of(R"({"op":"stats"})"), err::kUnknownOp);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, Op::kShutdown);

  const Request open =
      parse_request(R"({"op":"open","id":7,"session":"s","design":"life"})");
  EXPECT_EQ(open.op, Op::kOpen);
  EXPECT_EQ(open.id, 7);
  EXPECT_EQ(open.session, "s");
  EXPECT_EQ(open.design, "life");
  EXPECT_FALSE(open.restore);

  const Request restore =
      parse_request(R"({"op":"open","session":"s","restore":true})");
  EXPECT_TRUE(restore.restore);

  const Request get = parse_request(R"({"op":"get","session":"s"})");
  EXPECT_EQ(get.format, "escher");  // default

  EXPECT_EQ(parse_request(R"({"op":"save","session":"s"})").op, Op::kSave);
  EXPECT_EQ(parse_request(R"({"op":"close","session":"s"})").op, Op::kClose);
}

TEST(ServeProtocol, ParsesEveryEditKind) {
  const Request req = parse_request(R"({"op":"edit","session":"s","edits":[
    {"kind":"add_module","name":"m","template":"AND2","w":6,"h":4},
    {"kind":"remove_module","name":"m"},
    {"kind":"resize_module","name":"m","w":8,"h":4},
    {"kind":"add_terminal","module":"m","name":"t","type":"in","x":0,"y":2},
    {"kind":"move_terminal","module":"m","term":"t","x":0,"y":3},
    {"kind":"connect","net":"n","module":"m","term":"t"},
    {"kind":"connect","net":"n","term":"sys"},
    {"kind":"disconnect","module":"m","term":"t"},
    {"kind":"remove_net","net":"n"},
    {"kind":"add_system_terminal","name":"clk","type":"in"},
    {"kind":"remove_system_terminal","name":"clk"}]})");
  ASSERT_EQ(req.edits.size(), 11u);
  EXPECT_EQ(req.edits[0].kind, EditCmd::Kind::kAddModule);
  EXPECT_EQ(req.edits[0].template_name, "AND2");
  EXPECT_EQ(req.edits[0].pos.x, 6);
  EXPECT_EQ(req.edits[3].type, na::TermType::In);
  EXPECT_EQ(req.edits[6].module, "");  // system-terminal connect
  EXPECT_EQ(req.edits[10].kind, EditCmd::Kind::kRemoveSystemTerminal);
}

TEST(ServeProtocol, ErrorCodesAreStable) {
  EXPECT_STREQ(code_of("{nope"), err::kBadJson);
  EXPECT_STREQ(code_of("[1,2,3]"), err::kBadJson);  // not an object
  EXPECT_STREQ(code_of(R"({"op":"frobnicate"})"), err::kUnknownOp);
  EXPECT_STREQ(code_of(R"({"op":42})"), err::kBadRequest);
  EXPECT_STREQ(code_of(R"({"session":"s"})"), err::kBadRequest);  // no op
  EXPECT_STREQ(code_of(R"({"op":"open","session":"s"})"),
               err::kBadRequest);  // neither design nor restore
  EXPECT_STREQ(code_of(R"({"op":"edit","session":"s"})"), err::kBadRequest);
  EXPECT_STREQ(code_of(R"({"op":"edit","session":"s","edits":[]})"),
               err::kBadRequest);
  EXPECT_STREQ(code_of(R"({"op":"edit","session":"s","edits":[5]})"),
               err::kBadEdit);
  EXPECT_STREQ(code_of(R"({"op":"edit","session":"s","edits":[{"kind":"warp"}]})"),
               err::kBadEdit);
  EXPECT_STREQ(
      code_of(R"({"op":"edit","session":"s","edits":[{"kind":"add_module"}]})"),
      err::kBadRequest);  // missing fields
  EXPECT_STREQ(code_of(R"({"op":"get","session":"s","format":"png"})"),
               err::kBadRequest);
  EXPECT_STREQ(code_of(R"({"op":"ping","id":-3})"), err::kBadRequest);
  EXPECT_STREQ(code_of(R"({"op":"ping","id":1.5})"), err::kBadRequest);
}

TEST(ServeProtocol, BoundsAreEnforced) {
  // Coordinates outside ±2^24 are rejected before they reach geometry.
  EXPECT_STREQ(
      code_of(R"({"op":"edit","session":"s","edits":[)"
              R"({"kind":"resize_module","name":"m","w":99999999,"h":4}]})"),
      err::kBadRequest);
  const std::string long_name(300, 'x');
  EXPECT_STREQ(
      code_of(R"({"op":"get","session":")" + long_name + R"("})"),
      err::kBadRequest);
  EXPECT_STREQ(
      code_of(R"({"op":"edit","session":"s","edits":[)"
              R"({"kind":"add_terminal","module":"m","name":"t",)"
              R"("type":"sideways","x":0,"y":0}]})"),
      err::kBadRequest);
}

TEST(ServeProtocol, ErrorResponseShape) {
  EXPECT_EQ(error_response(err::kBadJson, "broken"),
            R"({"ok":false,"error":{"code":"bad_json","message":"broken"}})");
  EXPECT_EQ(
      error_response(err::kNoSuchSession, "nope", 9),
      R"({"ok":false,"id":9,"error":{"code":"no_such_session","message":"nope"}})");
  // Messages with quotes/control chars stay valid JSON.
  const std::string resp = error_response(err::kBadJson, "say \"hi\"\n");
  EXPECT_NE(resp.find(R"(say \"hi\"\n)"), std::string::npos);
}

TEST(ServeProtocol, DesignNetworkValidation) {
  EXPECT_NO_THROW(design_network("life"));
  EXPECT_NO_THROW(design_network("datapath:8"));
  EXPECT_THROW(design_network("espresso"), ProtocolError);
  EXPECT_THROW(design_network("datapath:0"), ProtocolError);
  EXPECT_THROW(design_network("datapath:abc"), ProtocolError);
  EXPECT_THROW(design_network("datapath:9999"), ProtocolError);
}
