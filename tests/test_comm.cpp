// Tests for the message-passing layer: point-to-point semantics,
// collectives, ordering with modeled latency, and the Cartesian topology.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>

#include "rshc/comm/cart_topology.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/common/error.hpp"

namespace {

using namespace rshc::comm;

TEST(Comm, SendRecvRoundTrip) {
  run_world(2, [](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0};
      c.send(1, 7, std::span<const double>(data));
    } else {
      std::vector<double> out(3);
      const int src = c.recv(0, 7, std::span<double>(out));
      EXPECT_EQ(src, 0);
      EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
    }
  });
}

TEST(Comm, RingSendRecvAllRanks) {
  constexpr int kN = 5;
  run_world(kN, [](Communicator& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<double> mine{static_cast<double>(c.rank())};
    std::vector<double> got(1);
    c.sendrecv(next, std::span<const double>(mine), prev,
               std::span<double>(got), 3);
    EXPECT_EQ(got[0], static_cast<double>(prev));
  });
}

TEST(Comm, SelfSendWorks) {
  run_world(1, [](Communicator& c) {
    c.send_value(0, 1, 3.5);
    EXPECT_EQ(c.recv_value<double>(0, 1), 3.5);
  });
}

TEST(Comm, WildcardSourceAndTag) {
  run_world(3, [](Communicator& c) {
    if (c.rank() != 0) {
      c.send_value(0, 100 + c.rank(), static_cast<double>(c.rank()));
    } else {
      double sum = 0.0;
      for (int i = 0; i < 2; ++i) {
        int src = -2;
        auto bytes = c.recv_any_bytes(kAnySource, kAnyTag, &src);
        EXPECT_EQ(bytes.size(), sizeof(double));
        double v;
        std::memcpy(&v, bytes.data(), sizeof(double));
        EXPECT_EQ(v, static_cast<double>(src));
        sum += v;
      }
      EXPECT_EQ(sum, 3.0);
    }
  });
}

TEST(Comm, RecvSizeMismatchThrows) {
  run_world(1, [](Communicator& c) {
    c.send_value(0, 1, 3.5);
    std::vector<double> too_big(2);
    EXPECT_THROW(c.recv(0, 1, std::span<double>(too_big)), rshc::Error);
  });
}

TEST(Comm, TagsKeepMessagesApart) {
  run_world(2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.send_value(1, 1, 10.0);
      c.send_value(1, 2, 20.0);
    } else {
      // Receive in reverse tag order; matching must be by tag, not FIFO.
      EXPECT_EQ(c.recv_value<double>(0, 2), 20.0);
      EXPECT_EQ(c.recv_value<double>(0, 1), 10.0);
    }
  });
}

TEST(Comm, SameTagIsFifoOrdered) {
  TransferModel model;
  model.latency_sec = 2e-3;
  run_world(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          for (int i = 0; i < 5; ++i) {
            c.send_value(1, 9, static_cast<double>(i));
          }
        } else {
          for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(c.recv_value<double>(0, 9), static_cast<double>(i));
          }
        }
      },
      model);
}

TEST(Comm, LatencyDelaysDelivery) {
  TransferModel model;
  model.latency_sec = 20e-3;
  // Measure from a pre-world epoch, not from the receiver's recv() call:
  // on a loaded machine the receiver thread can be scheduled late enough
  // that the (already-delivered) message makes its recv look instant.
  // Delivery still cannot complete before send + latency >= epoch +
  // latency, so the epoch-relative bound is immune to scheduling delay.
  const auto epoch = std::chrono::steady_clock::now();
  run_world(
      2,
      [&](Communicator& c) {
        if (c.rank() == 0) {
          c.send_value(1, 1, 1.0);
        } else {
          (void)c.recv_value<double>(0, 1);
          const double waited =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            epoch)
                  .count();
          EXPECT_GE(waited, 0.015);
        }
      },
      model);
}

// --- delivery contract: never before send + flight time ------------------

using Clock = std::chrono::steady_clock;

// The payload is the sender's clock reading taken just before send, so
// ready_at >= stamp + flight_time: an exact bound, however late either
// thread is scheduled.
std::int64_t stamp_now() { return Clock::now().time_since_epoch().count(); }
Clock::time_point from_stamp(std::int64_t s) {
  return Clock::time_point(Clock::duration(s));
}

enum class RecvPath { kRecv, kIrecvWait, kWaitAny, kTestPoll };

struct DeliveryCase {
  RecvPath path;
  double latency_sec;
};

class EveryReceivePath : public ::testing::TestWithParam<DeliveryCase> {};

std::string delivery_case_name(
    const ::testing::TestParamInfo<DeliveryCase>& info) {
  static constexpr const char* kNames[] = {"Recv", "IrecvWait", "WaitAny",
                                           "TestPoll"};
  return std::string(kNames[static_cast<int>(info.param.path)]) + "_" +
         std::to_string(std::lround(info.param.latency_sec * 1e6)) + "us";
}

// Latencies below, across and well above the poll window, so the receive
// polls from the start, parks then polls, or parks for most of the flight.
TEST_P(EveryReceivePath, NeverCompletesBeforeSendPlusFlightTime) {
  const DeliveryCase dc = GetParam();
  TransferModel model;
  model.latency_sec = dc.latency_sec;
  const auto flight = model.flight_time(sizeof(std::int64_t));
  constexpr int kMessages = 6;
  run_world(
      2,
      [&](Communicator& c) {
        if (c.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            // Tags 0/1 alternate so wait_any has two patterns to race.
            c.send_value(1, i % 2, stamp_now());
          }
          return;
        }
        std::int64_t got[2] = {0, 0};
        for (int i = 0; i < kMessages; i += 2) {
          Clock::time_point done[2];
          switch (dc.path) {
            case RecvPath::kRecv:
              for (int t = 0; t < 2; ++t) {
                got[t] = c.recv_value<std::int64_t>(0, t);
                done[t] = Clock::now();
              }
              break;
            case RecvPath::kIrecvWait:
            case RecvPath::kTestPoll:
              for (int t = 0; t < 2; ++t) {
                CommFuture f =
                    c.irecv(0, t, std::span<std::int64_t>(&got[t], 1));
                if (dc.path == RecvPath::kTestPoll) {
                  while (!f.test()) std::this_thread::yield();
                } else {
                  f.wait();
                }
                done[t] = Clock::now();
              }
              break;
            case RecvPath::kWaitAny: {
              CommFuture f0 =
                  c.irecv(0, 0, std::span<std::int64_t>(&got[0], 1));
              CommFuture f1 =
                  c.irecv(0, 1, std::span<std::int64_t>(&got[1], 1));
              CommFuture* fs[] = {&f0, &f1};
              const std::size_t first = CommFuture::wait_any(fs);
              done[first] = Clock::now();
              CommFuture::wait_any(std::span<CommFuture* const>(
                  &fs[1 - first], 1));
              done[1 - first] = Clock::now();
              break;
            }
          }
          for (int t = 0; t < 2; ++t) {
            EXPECT_GE(done[t], from_stamp(got[t]) + flight)
                << "message " << i + t << " taken before its flight time";
          }
        }
      },
      model);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, EveryReceivePath,
    ::testing::Values(DeliveryCase{RecvPath::kRecv, 40e-6},
                      DeliveryCase{RecvPath::kRecv, 150e-6},
                      DeliveryCase{RecvPath::kRecv, 2e-3},
                      DeliveryCase{RecvPath::kIrecvWait, 40e-6},
                      DeliveryCase{RecvPath::kIrecvWait, 150e-6},
                      DeliveryCase{RecvPath::kIrecvWait, 2e-3},
                      DeliveryCase{RecvPath::kWaitAny, 40e-6},
                      DeliveryCase{RecvPath::kWaitAny, 150e-6},
                      DeliveryCase{RecvPath::kWaitAny, 2e-3},
                      DeliveryCase{RecvPath::kTestPoll, 40e-6},
                      DeliveryCase{RecvPath::kTestPoll, 150e-6},
                      DeliveryCase{RecvPath::kTestPoll, 2e-3}),
    delivery_case_name);

class SameTagUnderJitter : public ::testing::TestWithParam<double> {};

// Same-tag FIFO order survives per-message jitter: a later message whose
// jittered flight is shorter is ready first, yet must wait behind the
// head. A jitter window below the receive's poll window puts every such
// overtaking chance inside the poll phase; a wide one inside the park.
TEST_P(SameTagUnderJitter, LaterShorterFlightNeverOvertakesTheHead) {
  TransferModel model;
  model.latency_sec = 100e-6;
  model.jitter_sec = GetParam();
  constexpr int kMessages = 24;
  // The send sequence of a fresh World starts at 0: check up front that
  // the jitter really hands some later message a shorter flight.
  bool inverted = false;
  for (int i = 1; i < kMessages; ++i) {
    inverted =
        inverted || model.flight_time(8, i) < model.flight_time(8, i - 1);
  }
  ASSERT_TRUE(inverted);
  run_world(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          for (int i = 0; i < kMessages; ++i) {
            c.send_value(1, 9, static_cast<double>(i));
          }
          return;
        }
        for (int i = 0; i < kMessages; ++i) {
          // Alternate the blocking and the polling receive paths.
          double v = -1.0;
          if (i % 2 == 0) {
            v = c.recv_value<double>(0, 9);
          } else {
            CommFuture f = c.irecv(0, 9, std::span<double>(&v, 1));
            while (!f.test()) std::this_thread::yield();
          }
          EXPECT_EQ(v, static_cast<double>(i));
        }
      },
      model);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SameTagUnderJitter, ::testing::Values(60e-6, 3e-3),
    [](const ::testing::TestParamInfo<double>& info) {
      return "Jitter_" + std::to_string(std::lround(info.param * 1e6)) + "us";
    });

TEST(Comm, BarrierSeparatesPhases) {
  constexpr int kN = 4;
  std::atomic<int> phase1{0};
  run_world(kN, [&](Communicator& c) {
    phase1.fetch_add(1);
    c.barrier();
    EXPECT_EQ(phase1.load(), kN);
    c.barrier();  // reusable
  });
}

class AllreduceOps : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(AllreduceOps, ScalarAgreesOnAllRanks) {
  const ReduceOp op = GetParam();
  constexpr int kN = 4;
  run_world(kN, [op](Communicator& c) {
    const double mine = static_cast<double>(c.rank() + 1);
    const double got = c.allreduce(mine, op);
    double expect = 0.0;
    switch (op) {
      case ReduceOp::kSum: expect = 10.0; break;
      case ReduceOp::kMin: expect = 1.0; break;
      case ReduceOp::kMax: expect = 4.0; break;
    }
    EXPECT_DOUBLE_EQ(got, expect);
  });
}

INSTANTIATE_TEST_SUITE_P(Ops, AllreduceOps,
                         ::testing::Values(ReduceOp::kSum, ReduceOp::kMin,
                                           ReduceOp::kMax));

TEST(Comm, VectorAllreduceAndRepetition) {
  run_world(3, [](Communicator& c) {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> v{static_cast<double>(c.rank()),
                            static_cast<double>(round)};
      c.allreduce(std::span<double>(v), ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(v[0], 3.0);
      EXPECT_DOUBLE_EQ(v[1], 3.0 * round);
    }
  });
}

TEST(Comm, BcastFromEveryRoot) {
  constexpr int kN = 3;
  for (int root = 0; root < kN; ++root) {
    run_world(kN, [root](Communicator& c) {
      std::vector<double> data(2, c.rank() == root ? 5.5 : 0.0);
      c.bcast(std::span<double>(data), root);
      EXPECT_DOUBLE_EQ(data[0], 5.5);
      EXPECT_DOUBLE_EQ(data[1], 5.5);
    });
  }
}

TEST(Comm, GatherCollectsInRankOrder) {
  run_world(4, [](Communicator& c) {
    const auto all = c.gather(static_cast<double>(c.rank() * 10), 0);
    if (c.rank() == 0) {
      EXPECT_EQ(all, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, WorldCountsTraffic) {
  World world(2);
  auto c0 = world.communicator(0);
  auto c1 = world.communicator(1);
  std::vector<double> payload(10, 1.0);
  c0.send(1, 1, std::span<const double>(payload));
  std::vector<double> out(10);
  c1.recv(0, 1, std::span<double>(out));
  EXPECT_EQ(world.total_messages(), 1u);
  EXPECT_EQ(world.total_bytes(), 10 * sizeof(double));
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(run_world(1, [](Communicator&) {
                 throw std::runtime_error("rank failed");
               }),
               std::runtime_error);
}

TEST(CartTopology, BalancedFactorization2d) {
  const CartTopology t(6, 2);
  EXPECT_EQ(t.dims()[0] * t.dims()[1], 6);
  EXPECT_GE(t.dims()[0], 2);  // 3x2 or 2x3, never 6x1
}

TEST(CartTopology, CoordsRoundTrip) {
  const CartTopology t(12, 3);
  for (int r = 0; r < 12; ++r) {
    EXPECT_EQ(t.rank_of(t.coords(r)), r);
  }
}

TEST(CartTopology, RequestedDimsHonoured) {
  const CartTopology t(8, 2, {4, 0, 0});
  EXPECT_EQ(t.dims()[0], 4);
  EXPECT_EQ(t.dims()[1], 2);
  EXPECT_THROW(CartTopology(8, 2, {3, 0, 0}), rshc::Error);
}

TEST(CartTopology, PeriodicNeighborsWrap) {
  const CartTopology t(4, 1);
  EXPECT_EQ(t.neighbor(0, 0, -1).value(), 3);
  EXPECT_EQ(t.neighbor(3, 0, +1).value(), 0);
}

TEST(CartTopology, NonPeriodicEdgeHasNoNeighbor) {
  const CartTopology t(4, 1, {0, 0, 0}, {false, false, false});
  EXPECT_FALSE(t.neighbor(0, 0, -1).has_value());
  EXPECT_TRUE(t.neighbor(0, 0, +1).has_value());
  EXPECT_FALSE(t.neighbor(3, 0, +1).has_value());
}

TEST(CartTopology, SingleRankSelfNeighborWhenPeriodic) {
  const CartTopology t(1, 2);
  EXPECT_EQ(t.neighbor(0, 0, +1).value(), 0);
  EXPECT_EQ(t.neighbor(0, 1, -1).value(), 0);
}

}  // namespace
