//===- tests/sched/StateReconstructionTest.cpp - Replay-the-writes tests -===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the state reconstruction the paper's Theorem 3 proof
/// sketch relies on: "given a correct schedule, we can define the
/// contents of the list from the order of the schedule's write
/// operations ... we can reconstruct the state of the list by
/// iteratively traversing it, starting from the head."
///
//===----------------------------------------------------------------------===//

#include "sched/ScheduleChecker.h"

#include <gtest/gtest.h>

using namespace vbl;
using namespace vbl::sched;

namespace {

int Cells[8];
const void *head() { return &Cells[0]; }
const void *tail() { return &Cells[7]; }
const void *node(int I) { return &Cells[I]; }

uint64_t addr(const void *P) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(P));
}

Event write(const void *Node, uint64_t Value) {
  Event E;
  E.Kind = EventKind::Write;
  E.Field = MemField::Next;
  E.Node = Node;
  E.Value = Value;
  return E;
}

Event cas(const void *Node, uint64_t Value) {
  Event E;
  E.Kind = EventKind::Cas;
  E.Field = MemField::Next;
  E.Node = Node;
  E.Value = Value;
  E.Value2 = 1;
  return E;
}

Event newNode(const void *Node, SetKey Key) {
  Event E;
  E.Kind = EventKind::NewNode;
  E.Node = Node;
  E.Value = static_cast<uint64_t>(Key);
  return E;
}

Event valRead(const void *Node, SetKey Key) {
  Event E;
  E.Kind = EventKind::Read;
  E.Field = MemField::Val;
  E.Node = Node;
  E.Value = static_cast<uint64_t>(Key);
  return E;
}

std::vector<std::pair<const void *, SetKey>> chain123() {
  return {{head(), MinSentinel},
          {node(1), 1},
          {node(2), 2},
          {node(3), 3},
          {tail(), MaxSentinel}};
}

} // namespace

TEST(StateReconstruction, NoWritesYieldsInitialState) {
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(Schedule(), chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 2, 3}));
}

TEST(StateReconstruction, UnlinkRemovesKey) {
  // write next(n1) = n3: node 2 bypassed.
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({write(node(1), addr(node(3)))}), chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 3}));
}

TEST(StateReconstruction, LastWriteWins) {
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({write(node(1), addr(node(3))),
                write(node(1), addr(node(2)))}),
      chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 2, 3}));
}

TEST(StateReconstruction, InsertedNodeAppears) {
  // New node 4 (key 7) whose traversal ended at tail; linked from n3.
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({valRead(tail(), MaxSentinel), newNode(node(4), 7),
                write(node(3), addr(node(4)))}),
      chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 2, 3, 7}));
}

TEST(StateReconstruction, LostUpdateStillReconstructs) {
  // Two inserts both linking from n3: the second buries the first;
  // reconstruction reflects the surviving chain (the checker's
  // sigma-bar(v) phase is what flags the loss).
  Event New4 = newNode(node(4), 7);
  New4.Thread = 0;
  Event New5 = newNode(node(5), 8);
  New5.Thread = 1;
  Event Val4 = valRead(tail(), MaxSentinel);
  Val4.Thread = 0;
  Event Val5 = valRead(tail(), MaxSentinel);
  Val5.Thread = 1;
  Event W4 = write(node(3), addr(node(4)));
  W4.Thread = 0;
  Event W5 = write(node(3), addr(node(5)));
  W5.Thread = 1;
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({Val4, Val5, New4, New5, W4, W5}), chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 2, 3, 8}))
      << "the second write must bury key 7";
}

TEST(StateReconstruction, DanglingChainReported) {
  // Point n1 at a node the schedule never defined.
  std::vector<SetKey> Keys;
  EXPECT_FALSE(reconstructFinalState(
      Schedule({write(node(1), addr(node(6)))}), chain123(), Keys));
}

TEST(StateReconstruction, CycleReported) {
  std::vector<SetKey> Keys;
  EXPECT_FALSE(reconstructFinalState(
      Schedule({write(node(2), addr(node(1)))}), chain123(), Keys));
}

TEST(StateReconstructionMarked, MarkedNodeExcludedButTraversed) {
  // Mark node 2 (logical deletion) without unlinking: reachable but
  // not a member.
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({cas(node(2), addr(node(3)) | 1)}), chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 3}));
}

TEST(StateReconstructionMarked, UnlinkAfterMarkAlsoWorks) {
  std::vector<SetKey> Keys;
  ASSERT_TRUE(reconstructFinalState(
      Schedule({cas(node(2), addr(node(3)) | 1),
                cas(node(1), addr(node(3)))}),
      chain123(), Keys));
  EXPECT_EQ(Keys, (std::vector<SetKey>{1, 3}));
}
