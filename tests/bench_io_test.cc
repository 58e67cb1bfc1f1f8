// Tests for the shared bench argument parser (bench/bench_util.h): every
// flag a bench accepts parses into BenchIo, and an unknown flag or a
// malformed number exits 2 instead of silently running the bench default.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace cki {
namespace {

BenchIo ParseArgs(std::initializer_list<const char*> flags) {
  std::vector<std::string> storage = {"bench"};
  storage.insert(storage.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& s : storage) {
    argv.push_back(s.data());
  }
  return BenchIo::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchIoTest, ParsesEveryFlag) {
  BenchIo io = ParseArgs({"--smoke", "--json-out=a.json", "--trace-out=t.json",
                          "--metrics-csv=m.csv", "--sample-every=8", "--shards=2",
                          "--threads=4", "--root-seed=18446744073709551615",
                          "--chaos-kinds=latency_inflation,packet_blackhole"});
  EXPECT_TRUE(io.smoke);
  EXPECT_EQ(io.json_out, "a.json");
  EXPECT_EQ(io.trace_out, "t.json");
  EXPECT_EQ(io.metrics_csv, "m.csv");
  EXPECT_EQ(io.sample_every, 8u);
  EXPECT_EQ(io.shards, 2u);
  EXPECT_EQ(io.threads, 4u);
  EXPECT_EQ(io.root_seed, ~0ull);
  ASSERT_TRUE(io.chaos_kinds.has_value());
  EXPECT_EQ(*io.chaos_kinds, "latency_inflation,packet_blackhole");
}

TEST(BenchIoTest, DefaultsWhenAbsent) {
  BenchIo io = ParseArgs({});
  EXPECT_FALSE(io.smoke);
  EXPECT_FALSE(io.chaos_kinds.has_value());
  EXPECT_EQ(io.sample_every, 1u);
  EXPECT_EQ(io.ShardsOr(6), 6u);
  EXPECT_EQ(io.ThreadsOr(3), 3u);
  EXPECT_EQ(io.root_seed, 1u);
  // An empty kind list is given (the chaos benches reject it), not absent.
  EXPECT_TRUE(ParseArgs({"--chaos-kinds="}).chaos_kinds.has_value());
}

TEST(BenchIoDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT(ParseArgs({"--thread=4"}), ::testing::ExitedWithCode(2),
              "unknown argument: --thread=4");
  EXPECT_EXIT(ParseArgs({"--smoke=1"}), ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchIoDeathTest, MalformedNumberExits2) {
  EXPECT_EXIT(ParseArgs({"--root-seed=1x"}), ::testing::ExitedWithCode(2),
              "bad number: --root-seed=1x");
  EXPECT_EXIT(ParseArgs({"--threads="}), ::testing::ExitedWithCode(2), "bad number");
  EXPECT_EXIT(ParseArgs({"--shards=-1"}), ::testing::ExitedWithCode(2), "bad number");
  EXPECT_EXIT(ParseArgs({"--threads=4294967296"}), ::testing::ExitedWithCode(2), "bad number");
}

}  // namespace
}  // namespace cki
