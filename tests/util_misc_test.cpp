#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace gridsched::util {
namespace {

// ---------------------------------------------------------------- Table ---

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RendersHeaderAndRule) {
  Table t({"a", "bb"});
  const std::string out = t.str();
  EXPECT_NE(out.find("a  bb"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("x").cell("1");
  t.row().cell("longer").cell("2");
  const std::string out = t.str();
  // Both data rows must place the second column at the same offset.
  const auto pos1 = out.find("x");
  const auto line1_end = out.find('\n', pos1);
  const std::string line1 = out.substr(pos1, line1_end - pos1);
  EXPECT_EQ(line1.find('1'), std::string("longer  ").size());
}

TEST(Table, NumericFormatting) {
  Table t({"v"});
  t.row().cell(3.14159, 2);
  t.row().cell(std::size_t{42});
  t.row().cell(static_cast<long long>(-7));
  EXPECT_EQ(t.at(0, 0), "3.14");
  EXPECT_EQ(t.at(1, 0), "42");
  EXPECT_EQ(t.at(2, 0), "-7");
}

TEST(Table, LargeNumbersUseScientific) {
  Table t({"v"});
  t.row().cell(1.5e9, 2);
  EXPECT_NE(t.at(0, 0).find('e'), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("overflow"), std::out_of_range);
}

TEST(Table, CellWithoutRowStartsOne) {
  Table t({"a"});
  t.cell("auto");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.at(0, 0), "auto");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"x", "y"});
  t.row().cell("a,b").cell("quote\"inside");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, CsvPlainCellsUnquoted) {
  Table t({"x"});
  t.row().cell("plain");
  EXPECT_NE(t.csv().find("plain\n"), std::string::npos);
  EXPECT_EQ(t.csv().find('"'), std::string::npos);
}

TEST(FormatSi, Tiers) {
  EXPECT_EQ(format_si(950.0), "950");
  EXPECT_EQ(format_si(1500.0), "1.5k");
  EXPECT_EQ(format_si(2.5e6, "s"), "2.5M s");
  EXPECT_EQ(format_si(3.0e9), "3G");
}

// ------------------------------------------------------------------ Cli ---

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args};
}

TEST(Cli, ParsesEqualsForm) {
  const auto argv = argv_of({"prog", "--jobs=100", "--name=minmin"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("jobs", std::int64_t{0}), 100);
  EXPECT_EQ(cli.get_or("name", std::string("x")), "minmin");
}

TEST(Cli, ParsesSpaceForm) {
  const auto argv = argv_of({"prog", "--f", "0.5"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(cli.get_or("f", 0.0), 0.5);
}

TEST(Cli, BooleanFlagWithoutValue) {
  const auto argv = argv_of({"prog", "--verbose"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_or("verbose", false));
  EXPECT_FALSE(cli.get_or("quiet", false));
}

TEST(Cli, BooleanSpellings) {
  const auto argv = argv_of({"prog", "--a=yes", "--b=0", "--c=on",
                             "--d=false"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.get_or("a", false));
  EXPECT_FALSE(cli.get_or("b", true));
  EXPECT_TRUE(cli.get_or("c", false));
  EXPECT_FALSE(cli.get_or("d", true));
}

TEST(Cli, MalformedBooleanThrowsNamingTheFlag) {
  const auto argv = argv_of({"prog", "--csv=ture", "--e=off", "--f=no"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(cli.get_or("e", true));
  EXPECT_FALSE(cli.get_or("f", true));
  try {
    static_cast<void>(cli.get_or("csv", false));
    ADD_FAILURE() << "--csv=ture parsed as a boolean";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--csv"), std::string::npos)
        << error.what();
  }
}

TEST(Cli, RequireKnownRejectsAnUnlistedFlagNamingIt) {
  const std::vector<std::string> known = {"seed", "quick", "out"};
  const auto ok = argv_of({"prog", "--seed=3", "--quick", "positional"});
  EXPECT_NO_THROW(Cli(static_cast<int>(ok.size()), ok.data())
                      .require_known(known));
  for (const char* flag : {"--help", "--sed=3", "--out-json=x.json"}) {
    const auto argv = argv_of({"prog", "--seed=3", flag});
    const Cli cli(static_cast<int>(argv.size()), argv.data());
    try {
      cli.require_known(known);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string text = error.what();
      const std::string given = flag;
      const std::string name = given.substr(0, given.find('='));
      EXPECT_NE(text.find("unknown flag " + name + " "), std::string::npos)
          << text;
      EXPECT_NE(text.find("--seed --quick --out"), std::string::npos) << text;
    }
  }
}

TEST(Cli, PositionalArguments) {
  const auto argv = argv_of({"prog", "input.trace", "--n=5", "output.csv"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.trace");
  EXPECT_EQ(cli.positional()[1], "output.csv");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, FallbacksWhenMissing) {
  const auto argv = argv_of({"prog"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("x", std::int64_t{7}), 7);
  EXPECT_DOUBLE_EQ(cli.get_or("y", 1.5), 1.5);
  EXPECT_FALSE(cli.get("z").has_value());
}

TEST(Cli, MalformedNumberThrows) {
  const auto argv = argv_of({"prog", "--n=abc"});
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(static_cast<void>(cli.get_or("n", std::int64_t{0})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cli.get_or("n", 0.0)), std::invalid_argument);
  // A numeric prefix is not a number, nor is an out-of-range value.
  const auto partial = argv_of(
      {"prog", "--n=12abc", "--f=0.5x", "--big=99999999999999999999"});
  Cli strict(static_cast<int>(partial.size()), partial.data());
  EXPECT_THROW(static_cast<void>(strict.get_or("n", std::int64_t{0})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(strict.get_or("f", 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(strict.get_or("big", std::int64_t{0})),
               std::invalid_argument);
}

// ----------------------------------------------------------- write_file ---

TEST(WriteFile, MissingDirectoryThrows) {
  EXPECT_THROW(write_file(testing::TempDir() + "no-such-dir/x.json", "{}"),
               std::runtime_error);
}

TEST(WriteFile, FullDeviceThrowsNamingThePath) {
  // A small write only fails when fclose flushes the stdio buffer.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  try {
    write_file("/dev/full", "{}\n");
    ADD_FAILURE() << "write to /dev/full succeeded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------------------------ Log ---

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Log, MacrosRespectThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  // Nothing observable to assert on stderr here; this exercises the macro
  // paths for coverage and must not crash.
  GS_LOG_DEBUG("debug %d", 1);
  GS_LOG_INFO("info %s", "x");
  GS_LOG_WARN("warn");
  GS_LOG_ERROR("error");
  set_log_level(before);
  SUCCEED();
}

}  // namespace
}  // namespace gridsched::util
