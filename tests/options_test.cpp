// Malformed-input tests for the PABLO/EUREKA flag parser: garbage values,
// trailing junk, negative sizes/spacings/margins, and missing values must
// all produce a one-line std::runtime_error naming the flag — never a raw
// std::invalid_argument out of std::stoi, and never a silently accepted
// wrong value.
#include <gtest/gtest.h>

#include "core/options.hpp"

namespace na {
namespace {

GeneratorOptions parse(std::initializer_list<const char*> args) {
  GeneratorOptions opt;
  parse_generator_args(std::vector<std::string>(args.begin(), args.end()), opt);
  return opt;
}

void expect_rejected(std::initializer_list<const char*> args,
                     const std::string& needle) {
  GeneratorOptions opt;
  try {
    parse_generator_args(std::vector<std::string>(args.begin(), args.end()), opt);
    FAIL() << "expected a runtime_error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << "wrong exception type: " << e.what();
  }
}

TEST(OptionsParse, ValidFlagsStillParse) {
  const GeneratorOptions opt =
      parse({"-p", "5", "-b", "3", "-c", "8", "-e", "2", "-i", "1", "-m", "12"});
  EXPECT_EQ(opt.placer.max_part_size, 5);
  EXPECT_EQ(opt.placer.max_box_size, 3);
  EXPECT_EQ(opt.placer.max_connections, 8);
  EXPECT_EQ(opt.placer.partition_spacing, 2);
  EXPECT_EQ(opt.placer.box_spacing, 1);
  EXPECT_EQ(opt.router.margin, 12);
}

TEST(OptionsParse, GarbageValueNamesTheFlag) {
  expect_rejected({"-p", "foo"}, "bad value 'foo' for -p");
  expect_rejected({"-b", "x"}, "bad value 'x' for -b");
  expect_rejected({"-m", "wide"}, "bad value 'wide' for -m");
}

TEST(OptionsParse, TrailingGarbageIsRejectedNotTruncated) {
  // std::stoi would silently accept "5x" as 5; the strict parser must not.
  expect_rejected({"-p", "5x"}, "bad value '5x' for -p");
  expect_rejected({"-c", "8 "}, "-c");
  expect_rejected({"-e", "2.5"}, "bad value '2.5' for -e");
}

TEST(OptionsParse, NegativeSizesSpacingsAndMarginsAreRejected) {
  expect_rejected({"-p", "-5"}, "bad value '-5' for -p");
  expect_rejected({"-b", "-1"}, "-b");
  expect_rejected({"-c", "-3"}, "-c");
  expect_rejected({"-e", "-2"}, "-e");
  expect_rejected({"-i", "-1"}, "-i");
  expect_rejected({"-m", "-4"}, "-m");
}

TEST(OptionsParse, OverflowIsRejected) {
  expect_rejected({"-p", "99999999999999999999"}, "-p");
}

TEST(OptionsParse, MissingValueIsStillDiagnosed) {
  expect_rejected({"-p"}, "missing value after -p");
}

TEST(OptionsParse, ModuleSpacingFormOfDashS) {
  // "-s 3" is module spacing; "-s" alone flips the cost order.  The
  // numeric form starts with a digit, so "-s -5" selects the cost-order
  // form and then rejects "-5" as an unknown flag rather than storing a
  // negative spacing.
  const GeneratorOptions spaced = parse({"-s", "3"});
  EXPECT_EQ(spaced.placer.module_spacing, 3);
  const GeneratorOptions order = parse({"-s"});
  EXPECT_EQ(order.router.order, CostOrder::BendsLengthCrossings);
  expect_rejected({"-s", "3x"}, "bad value '3x' for -s");
  expect_rejected({"-s", "-5"}, "unknown flag");
}

TEST(OptionsParse, ParseIntArgIsStrict) {
  EXPECT_EQ(parse_int_arg("42", "-x"), 42);
  EXPECT_EQ(parse_int_arg("-7", "-x"), -7);  // no floor: negatives allowed
  EXPECT_THROW(parse_int_arg("", "-x"), std::runtime_error);
  EXPECT_THROW(parse_int_arg("4 2", "-x"), std::runtime_error);
  EXPECT_THROW(parse_int_arg("+", "-x"), std::runtime_error);
  EXPECT_THROW(parse_int_arg("0x10", "-x"), std::runtime_error);
  EXPECT_THROW(parse_int_arg("7", "-x", 8), std::runtime_error);
  EXPECT_EQ(parse_int_arg("8", "-x", 8), 8);
}

}  // namespace
}  // namespace na
