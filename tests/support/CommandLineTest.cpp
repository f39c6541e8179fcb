//===- tests/support/CommandLineTest.cpp - FlagSet unit tests ------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace vbl;

namespace {

class FlagSetTest : public ::testing::Test {
protected:
  FlagSetTest() : Flags("test program") {
    Flags.addInt("count", 10, "a count");
    Flags.addBool("verbose", false, "be chatty");
    Flags.addString("algo", "vbl", "algorithm name");
    Flags.addUnsignedList("threads", {1, 2}, "thread sweep");
    Flags.addStringList("algos", {"vbl", "lazy"}, "algorithm sweep");
  }

  bool parse(std::vector<const char *> Args) {
    Args.insert(Args.begin(), "prog");
    return Flags.parse(static_cast<int>(Args.size()),
                       const_cast<char **>(Args.data()));
  }

  FlagSet Flags;
};

} // namespace

TEST_F(FlagSetTest, DefaultsApplyWithoutArgs) {
  EXPECT_TRUE(parse({}));
  EXPECT_EQ(Flags.getInt("count"), 10);
  EXPECT_FALSE(Flags.getBool("verbose"));
  EXPECT_EQ(Flags.getString("algo"), "vbl");
  EXPECT_EQ(Flags.getUnsignedList("threads"),
            (std::vector<unsigned>{1, 2}));
}

TEST_F(FlagSetTest, EqualsSyntax) {
  EXPECT_TRUE(parse({"--count=42", "--algo=lazy"}));
  EXPECT_EQ(Flags.getInt("count"), 42);
  EXPECT_EQ(Flags.getString("algo"), "lazy");
}

TEST_F(FlagSetTest, SpaceSyntax) {
  EXPECT_TRUE(parse({"--count", "7"}));
  EXPECT_EQ(Flags.getInt("count"), 7);
}

TEST_F(FlagSetTest, NegativeInt) {
  EXPECT_TRUE(parse({"--count=-3"}));
  EXPECT_EQ(Flags.getInt("count"), -3);
}

TEST_F(FlagSetTest, BareBoolSetsTrue) {
  EXPECT_TRUE(parse({"--verbose"}));
  EXPECT_TRUE(Flags.getBool("verbose"));
}

TEST_F(FlagSetTest, ExplicitBoolValues) {
  EXPECT_TRUE(parse({"--verbose=true"}));
  EXPECT_TRUE(Flags.getBool("verbose"));
  EXPECT_TRUE(parse({"--verbose=false"}));
  EXPECT_FALSE(Flags.getBool("verbose"));
}

TEST_F(FlagSetTest, UnsignedListParses) {
  EXPECT_TRUE(parse({"--threads=1,2,4,8"}));
  EXPECT_EQ(Flags.getUnsignedList("threads"),
            (std::vector<unsigned>{1, 2, 4, 8}));
}

TEST_F(FlagSetTest, SingleElementList) {
  EXPECT_TRUE(parse({"--threads=16"}));
  EXPECT_EQ(Flags.getUnsignedList("threads"), (std::vector<unsigned>{16}));
}

TEST_F(FlagSetTest, UnknownFlagFails) { EXPECT_FALSE(parse({"--nope=1"})); }

TEST_F(FlagSetTest, MalformedIntFails) {
  EXPECT_FALSE(parse({"--count=abc"}));
  EXPECT_FALSE(parse({"--count=12x"}));
}

TEST_F(FlagSetTest, MalformedListFails) {
  EXPECT_FALSE(parse({"--threads=1,,2"}));
  EXPECT_FALSE(parse({"--threads=1,-2"}));
}

TEST_F(FlagSetTest, MissingValueFails) { EXPECT_FALSE(parse({"--count"})); }

TEST_F(FlagSetTest, PositionalArgFails) { EXPECT_FALSE(parse({"stray"})); }

TEST_F(FlagSetTest, HelpReturnsFalse) { EXPECT_FALSE(parse({"--help"})); }

TEST_F(FlagSetTest, StringListDefault) {
  EXPECT_TRUE(parse({}));
  EXPECT_EQ(Flags.getStringList("algos"),
            (std::vector<std::string>{"vbl", "lazy"}));
}

TEST_F(FlagSetTest, StringListOverride) {
  EXPECT_TRUE(parse({"--algos=harris-michael,vbl-chunk"}));
  EXPECT_EQ(Flags.getStringList("algos"),
            (std::vector<std::string>{"harris-michael", "vbl-chunk"}));
}

TEST_F(FlagSetTest, StringListDropsEmptyParts) {
  EXPECT_TRUE(parse({"--algos", "a,,b,"}));
  EXPECT_EQ(Flags.getStringList("algos"),
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(FlagSetTest, HelpShowsStringListDefault) {
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--help"}));
  const std::string Help = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Help.find("algorithm sweep (default: vbl,lazy)"),
            std::string::npos)
      << Help;
}
