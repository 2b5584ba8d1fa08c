// The harness layer's shared plumbing: strict option parsing and the one
// BENCH_*.json emitter every timing harness writes through.
#include "common.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vs::benchutil {
namespace {

options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "harness");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, ParsesWholeDecimalNumbers) {
  const auto opt = parse({"--frames=12", "--seed=7", "--threads=0"});
  EXPECT_EQ(opt.frames, 12);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.threads, 0);
}

TEST(BenchOptions, RejectsNumbersThatAreNotTheWholeValue) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"--frames=12x", "--seed=abc", "--frames=-3",
                          "--injections=", "--threads=2.5"}) {
    EXPECT_EXIT((void)parse({bad}), testing::ExitedWithCode(2),
                "bad argument")
        << bad;
  }
}

TEST(BenchReport, RowsCarryNearestRankOrderStatisticsAndTheHost) {
  options opt;
  opt.out_dir = "/tmp/vs_bench_report_test_" + std::to_string(::getpid());
  bench_report report("unit");
  report.add({{"input", "Input2"}, {"metric", "ms"}},
             {10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  const std::string path = report.write(opt);
  EXPECT_EQ(path, opt.out_dir + "/BENCH_unit.json");

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::filesystem::remove_all(opt.out_dir);

  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  for (const char* key : {"\"cpus\": ", "\"simd\": ", "\"build_type\": ",
                          "\"commit\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("{\"params\": {\"input\": \"Input2\", \"metric\": "
                      "\"ms\"}, \"n\": 10, \"median\": 5, \"p10\": 1, "
                      "\"p90\": 9}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace vs::benchutil
