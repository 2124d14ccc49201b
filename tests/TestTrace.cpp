//===- tests/TestTrace.cpp - Trace export and platform mapping tests -------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "cluster/Platform.h"
#include "coll/Bcast.h"
#include "sim/Engine.h"
#include "sim/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace mpicsel;

namespace {

std::pair<Schedule, ExecutionResult> runSmallBcast() {
  ScheduleBuilder B(4);
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 16384;
  Config.SegmentBytes = 8192;
  appendBcast(B, Config);
  Schedule S = B.take();
  ExecutionResult R = runSchedule(S, makeTestPlatform(4));
  return {std::move(S), std::move(R)};
}

} // namespace

TEST(Trace, ContainsEveryExecutedOp) {
  auto [S, R] = runSmallBcast();
  ASSERT_TRUE(R.Completed);
  std::string Json = renderChromeTrace(S, R);
  // One metadata record per rank plus one X event per op.
  size_t XEvents = 0;
  for (size_t Pos = 0; (Pos = Json.find("\"ph\":\"X\"", Pos)) !=
                       std::string::npos;
       ++Pos)
    ++XEvents;
  EXPECT_EQ(XEvents, S.numOps());
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("send->"), std::string::npos);
  EXPECT_NE(Json.find("recv<-"), std::string::npos);
}

TEST(Trace, BalancedBracesAndQuotes) {
  auto [S, R] = runSmallBcast();
  std::string Json = renderChromeTrace(S, R);
  long Braces = 0, Brackets = 0, Quotes = 0;
  for (char C : Json) {
    Braces += C == '{';
    Braces -= C == '}';
    Brackets += C == '[';
    Brackets -= C == ']';
    Quotes += C == '"';
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  EXPECT_EQ(Quotes % 2, 0);
}

TEST(Trace, SkipsUnexecutedOpsOnDeadlock) {
  ScheduleBuilder B(2);
  B.addRecv(1, 0, 64, 0); // Never satisfied.
  B.addCompute(0, 1e-6);
  Schedule S = B.take();
  ExecutionResult R = runSchedule(S, makeTestPlatform(2));
  ASSERT_FALSE(R.Completed);
  std::string Json = renderChromeTrace(S, R);
  EXPECT_EQ(Json.find("recv<-"), std::string::npos);
  EXPECT_NE(Json.find("compute"), std::string::npos);
}

TEST(Trace, WritesAFile) {
  auto [S, R] = runSmallBcast();
  std::string Path = ::testing::TempDir() + "/mpicsel_trace_test.json";
  ASSERT_TRUE(writeChromeTrace(S, R, Path));
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  std::fseek(File, 0, SEEK_END);
  EXPECT_GT(std::ftell(File), 100);
  std::fclose(File);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Platform mapping
//===----------------------------------------------------------------------===//

TEST(Platform, BlockMappingPacksConsecutiveRanks) {
  Platform P = makeTestPlatform(4, 2);
  ASSERT_EQ(P.Mapping, MappingKind::Block);
  EXPECT_EQ(P.nodeOf(0), 0u);
  EXPECT_EQ(P.nodeOf(1), 0u);
  EXPECT_EQ(P.nodeOf(2), 1u);
  EXPECT_EQ(P.nodeOf(7), 3u);
  EXPECT_TRUE(P.sameNode(0, 1));
  EXPECT_FALSE(P.sameNode(1, 2));
}

TEST(Platform, CyclicMappingSpreadsConsecutiveRanks) {
  Platform P = makeTestPlatform(4, 2);
  P.Mapping = MappingKind::Cyclic;
  EXPECT_EQ(P.nodeOf(0), 0u);
  EXPECT_EQ(P.nodeOf(1), 1u);
  EXPECT_EQ(P.nodeOf(4), 0u);
  EXPECT_TRUE(P.sameNode(0, 4));
  EXPECT_FALSE(P.sameNode(0, 1));
}

TEST(Platform, OneRankPerNodeDerivation) {
  Platform P = makeGrisou();
  ASSERT_EQ(P.ProcsPerNode, 2u);
  Platform Micro = P.withOneRankPerNode();
  EXPECT_EQ(Micro.ProcsPerNode, 1u);
  EXPECT_EQ(Micro.NodeCount, P.NodeCount);
  EXPECT_EQ(Micro.maxProcs(), P.NodeCount);
  EXPECT_FALSE(Micro.sameNode(0, 1));
}

TEST(Platform, FactoriesAreSane) {
  for (const Platform &P : {makeGrisou(), makeGros()}) {
    EXPECT_GE(P.maxProcs(), 90u);
    EXPECT_GT(P.InterNode.Latency, P.IntraNode.Latency);
    EXPECT_GT(P.InterNode.TxGapPerByte, 0.0);
    EXPECT_GT(P.SendOverhead, 0.0);
    EXPECT_GE(P.NoiseSigma, 0.0);
    EXPECT_LT(P.NoiseSigma, 0.2);
  }
  EXPECT_EQ(platformByName("grisou").Name, "grisou");
  EXPECT_EQ(platformByName("gros").Name, "gros");
}

TEST(Platform, LinkOccupancyArithmetic) {
  LinkParams Link;
  Link.TxGapPerMessage = 2e-6;
  Link.TxGapPerByte = 1e-9;
  Link.RxGapPerMessage = 1e-6;
  Link.RxGapPerByte = 2e-9;
  EXPECT_DOUBLE_EQ(Link.txOccupancy(1000), 2e-6 + 1e-6);
  EXPECT_DOUBLE_EQ(Link.rxOccupancy(1000), 1e-6 + 2e-6);
  EXPECT_DOUBLE_EQ(Link.txOccupancy(0), 2e-6);
}
