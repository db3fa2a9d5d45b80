// Tests for the in-process message-passing substrate: nonblocking p2p with
// tag matching, probe, collectives, Cartesian topology.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace mpi = vpic::mpi;

TEST(MiniMpi, SingleRankRuns) {
  mpi::run(1, [](mpi::Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    c.barrier();
  });
}

TEST(MiniMpi, PingPong) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      const int msg = 42;
      c.isend(1, 7, msg).wait();
      int reply = 0;
      c.irecv(1, 8, reply).wait();
      EXPECT_EQ(reply, 43);
    } else {
      int got = 0;
      c.irecv(0, 7, got).wait();
      EXPECT_EQ(got, 42);
      const int reply = got + 1;
      c.isend(0, 8, reply).wait();
    }
  });
}

TEST(MiniMpi, VectorPayload) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> data(100);
      std::iota(data.begin(), data.end(), 0.0);
      c.isend(1, 0, std::span<const double>(data)).wait();
    } else {
      std::vector<double> buf(100, -1.0);
      c.irecv(0, 0, std::span<double>(buf)).wait();
      for (int i = 0; i < 100; ++i) EXPECT_EQ(buf[i], i);
    }
  });
}

TEST(MiniMpi, TagMatching) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.isend(1, /*tag=*/2, 222);
      c.isend(1, /*tag=*/1, 111);
    } else {
      int a = 0, b = 0;
      // Receive in the opposite order of sending: tags must match.
      c.irecv(0, 1, a).wait();
      c.irecv(0, 2, b).wait();
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

TEST(MiniMpi, MessageOrderPreservedPerTag) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.isend(1, 0, i);
    } else {
      for (int i = 0; i < 10; ++i) {
        int got = -1;
        c.irecv(0, 0, got).wait();
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(MiniMpi, ProbeReportsSize) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> data(17, 5);
      c.isend(1, 3, std::span<const int>(data));
    } else {
      const std::size_t bytes = c.probe_bytes(0, 3);
      EXPECT_EQ(bytes, 17 * sizeof(int));
      std::vector<int> buf(17);
      c.irecv(0, 3, std::span<int>(buf)).wait();
      EXPECT_EQ(buf[16], 5);
    }
  });
}

TEST(MiniMpi, TestNonBlocking) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 1) {
      int got = 0;
      auto req = c.irecv(0, 0, got);
      // Nothing sent yet is allowed; eventually test() must succeed.
      c.barrier();  // rank 0 sends before the barrier
      while (!req.test()) {
      }
      EXPECT_EQ(got, 9);
    } else {
      c.isend(1, 0, 9);
      c.barrier();
    }
  });
}

TEST(MiniMpi, EmptyMessageRoundTrips) {
  // An empty span has a null data pointer on both sides. The distributed
  // step posts empty exit batches, so a zero-length message must complete
  // through the blocking recv and through test() alike, and must not
  // disturb the next message on the same tag.
  mpi::run(2, [](mpi::Comm& c) {
    std::vector<int> none;
    if (c.rank() == 0) {
      c.isend(1, 60, std::span<const int>(none)).wait();
      c.isend(1, 61, std::span<const int>(none)).wait();
      c.isend(1, 60, 7).wait();
    } else {
      EXPECT_EQ(c.probe_bytes(0, 60), 0u);
      c.irecv(0, 60, std::span<int>(none)).wait();
      auto req = c.irecv(0, 61, std::span<int>(none));
      while (!req.test()) std::this_thread::yield();
      int after = 0;
      c.irecv(0, 60, after).wait();
      EXPECT_EQ(after, 7);
    }
  });
}

TEST(MiniMpi, OversizedMessageThrows) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& c) {
                          if (c.rank() == 0) {
                            std::vector<int> big(10, 1);
                            c.isend(1, 0, std::span<const int>(big));
                          } else {
                            int small = 0;
                            c.irecv(0, 0, small).wait();
                          }
                        }),
               std::length_error);
}

TEST(MiniMpi, AllreduceSum) {
  for (int nranks : {1, 2, 4, 7}) {
    mpi::run(nranks, [nranks](mpi::Comm& c) {
      double v[3] = {static_cast<double>(c.rank()), 1.0,
                     static_cast<double>(c.rank() * c.rank())};
      c.allreduce(v, 3, mpi::ReduceOp::Sum);
      double s0 = 0, s2 = 0;
      for (int r = 0; r < nranks; ++r) {
        s0 += r;
        s2 += r * r;
      }
      EXPECT_DOUBLE_EQ(v[0], s0);
      EXPECT_DOUBLE_EQ(v[1], nranks);
      EXPECT_DOUBLE_EQ(v[2], s2);
    });
  }
}

TEST(MiniMpi, AllreduceMinMax) {
  mpi::run(4, [](mpi::Comm& c) {
    const int lo = c.allreduce(10 - c.rank(), mpi::ReduceOp::Min);
    const int hi = c.allreduce(10 - c.rank(), mpi::ReduceOp::Max);
    EXPECT_EQ(lo, 7);
    EXPECT_EQ(hi, 10);
  });
}

TEST(MiniMpi, RepeatedCollectives) {
  mpi::run(3, [](mpi::Comm& c) {
    for (int iter = 0; iter < 20; ++iter) {
      const int sum = c.allreduce(1, mpi::ReduceOp::Sum);
      EXPECT_EQ(sum, 3);
      c.barrier();
    }
  });
}

TEST(MiniMpi, ExceptionPropagates) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& c) {
                          if (c.rank() == 1)
                            throw std::runtime_error("rank 1 boom");
                        }),
               std::runtime_error);
}

TEST(MiniMpi, InvalidRankCount) {
  EXPECT_THROW(mpi::run(0, [](mpi::Comm&) {}), std::invalid_argument);
}

TEST(CartTopology, DimsProductAndCoords) {
  for (int n : {1, 2, 4, 6, 8, 12, 27, 64, 100}) {
    const auto t = mpi::make_cart(n);
    EXPECT_EQ(t.nranks(), n) << n;
    for (int r = 0; r < n; ++r) {
      int x, y, z;
      t.coords_of(r, x, y, z);
      EXPECT_EQ(t.rank_of(x, y, z), r);
    }
  }
}

TEST(CartTopology, NearCubicFactorization) {
  const auto t = mpi::make_cart(64);
  EXPECT_EQ(t.dims[0] * t.dims[1] * t.dims[2], 64);
  EXPECT_LE(t.dims[0], 4);  // 4x4x4 expected
}

TEST(CartTopology, PeriodicNeighbors) {
  const auto t = mpi::make_cart(8);  // 2x2x2
  // Every rank has 6 neighbors; wrap means neighbor(+1 twice) = self.
  for (int r = 0; r < 8; ++r) {
    for (int ax = 0; ax < 3; ++ax) {
      const int plus = t.neighbor(r, ax, +1);
      ASSERT_GE(plus, 0);
      const int back = t.neighbor(plus, ax, -1);
      EXPECT_EQ(back, r);
    }
  }
}

TEST(CartTopology, NonPeriodicEdges) {
  auto t = mpi::make_cart(4, /*periodic=*/false);
  // Find a rank on the low face of the longest axis and check -1.
  int longest = 0;
  for (int ax = 1; ax < 3; ++ax)
    if (t.dims[ax] > t.dims[longest]) longest = ax;
  EXPECT_EQ(t.neighbor(0, longest, -1), -1);
}

TEST(MiniMpi, HaloExchangePattern) {
  // The 6-neighbor nonblocking exchange the PIC code uses, on a 2x2x1
  // periodic topology: each rank sends its rank id to all 6 neighbors and
  // must receive the right ids back.
  const auto topo = mpi::make_cart(4);
  mpi::run(4, [topo](mpi::Comm& c) {
    const int me = c.rank();
    std::vector<mpi::Request> reqs;
    int recv_buf[3][2];
    for (int ax = 0; ax < 3; ++ax)
      for (int dir = 0; dir < 2; ++dir) {
        const int nb = topo.neighbor(me, ax, dir ? +1 : -1);
        ASSERT_GE(nb, 0);
        reqs.push_back(c.irecv(nb, 100 + ax * 2 + (1 - dir), recv_buf[ax][dir]));
      }
    for (int ax = 0; ax < 3; ++ax)
      for (int dir = 0; dir < 2; ++dir) {
        const int nb = topo.neighbor(me, ax, dir ? +1 : -1);
        c.isend(nb, 100 + ax * 2 + dir, me);
      }
    for (auto& r : reqs) r.wait();
    for (int ax = 0; ax < 3; ++ax)
      for (int dir = 0; dir < 2; ++dir) {
        const int nb = topo.neighbor(me, ax, dir ? +1 : -1);
        EXPECT_EQ(recv_buf[ax][dir], nb);
      }
  });
}

TEST(MiniMpi, BcastFromEveryRoot) {
  mpi::run(4, [](mpi::Comm& c) {
    for (int root = 0; root < 4; ++root) {
      int payload[3] = {0, 0, 0};
      if (c.rank() == root) {
        payload[0] = root * 10;
        payload[1] = root * 10 + 1;
        payload[2] = root * 10 + 2;
      }
      c.bcast(payload, 3, root);
      EXPECT_EQ(payload[0], root * 10);
      EXPECT_EQ(payload[2], root * 10 + 2);
    }
  });
}

TEST(MiniMpi, GatherInRankOrder) {
  mpi::run(3, [](mpi::Comm& c) {
    const double mine[2] = {static_cast<double>(c.rank()),
                            static_cast<double>(c.rank() * c.rank())};
    const auto all = c.gather(mine, 2, /*root=*/1);
    if (c.rank() == 1) {
      ASSERT_EQ(all.size(), 6u);
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(all[2 * r], r);
        EXPECT_EQ(all[2 * r + 1], r * r);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(MiniMpi, CollectivesComposeWithP2p) {
  mpi::run(2, [](mpi::Comm& c) {
    // Interleave p2p and collectives to check tag isolation.
    c.isend(1 - c.rank(), 5, c.rank());
    int v = c.rank() == 0 ? 99 : 0;
    c.bcast(&v, 1, 0);
    EXPECT_EQ(v, 99);
    int got = -1;
    c.irecv(1 - c.rank(), 5, got).wait();
    EXPECT_EQ(got, 1 - c.rank());
  });
}

// ----------------------------------------------------------------------
// Request::test() / wait_any: nonblocking completion probing
// (docs/ASYNC.md). WorldOptions::latency_us injects a modeled delivery
// delay so "not yet complete" is an observable state in-process.
// ----------------------------------------------------------------------

TEST(MiniMpiTest, SendRequestTestsTrueImmediately) {
  mpi::run(2, [](mpi::Comm& c) {
    // Buffered isend: the payload is copied at post time, so the send
    // request is complete as soon as it exists, and stays complete.
    if (c.rank() == 0) {
      const int msg = 5;
      auto req = c.isend(1, 30, msg);
      EXPECT_TRUE(req.test());
      EXPECT_TRUE(req.test());
      req.wait();  // wait() after test()=true must be a no-op
    } else {
      int got = 0;
      c.irecv(0, 30, got).wait();
      EXPECT_EQ(got, 5);
    }
  });
}

TEST(MiniMpiTest, RecvTestFalseBeforeArrivalTrueAfter) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int got = 0;
      auto req = c.irecv(1, 31, got);
      // Nothing was sent yet (rank 1 is parked on the barrier below), so
      // the receive cannot be complete.
      EXPECT_FALSE(req.test());
      c.barrier();  // release rank 1's send
      req.wait();
      EXPECT_EQ(got, 77);
      // Repeated test() after completion stays true and keeps the value.
      EXPECT_TRUE(req.test());
      EXPECT_TRUE(req.test());
      EXPECT_EQ(got, 77);
    } else {
      c.barrier();
      const int msg = 77;
      c.isend(0, 31, msg).wait();
    }
  });
}

TEST(MiniMpiTest, LatencyDelaysCompletion) {
  mpi::WorldOptions opts;
  opts.latency_us = 20'000;  // 20 ms: far above scheduling noise
  mpi::run(2, opts, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int got = 0;
      auto req = c.irecv(1, 32, got);
      c.barrier();  // sender has posted by the time barrier releases
      // The message exists but its modeled delivery time is ~20ms out.
      EXPECT_FALSE(req.test());
      req.wait();
      EXPECT_EQ(got, 9);
      EXPECT_TRUE(req.test());
    } else {
      const int msg = 9;
      c.isend(0, 32, msg);
      c.barrier();
    }
  });
}

TEST(MiniMpiTest, WaitAnyReturnsInCompletionOrder) {
  mpi::WorldOptions opts;
  opts.latency_us = 15'000;
  mpi::run(2, opts, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int fast = 0, slow = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(c.irecv(1, 40, slow));  // index 0: sent second
      reqs.push_back(c.irecv(1, 41, fast));  // index 1: sent first
      c.barrier();
      // The tag-41 message was isent ~30ms before the tag-40 one, so its
      // modeled delivery time is earlier: wait_any must pick index 1.
      const std::size_t first = mpi::wait_any(std::span<mpi::Request>(reqs));
      EXPECT_EQ(first, 1u);
      EXPECT_EQ(fast, 1);
      reqs.erase(reqs.begin() + static_cast<std::ptrdiff_t>(first));
      const std::size_t second = mpi::wait_any(std::span<mpi::Request>(reqs));
      EXPECT_EQ(second, 0u);
      EXPECT_EQ(slow, 2);
    } else {
      const int first_msg = 1, second_msg = 2;
      c.isend(0, 41, first_msg);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      c.isend(0, 40, second_msg);
      c.barrier();
    }
  });
}

TEST(MiniMpiTest, WaitAnyDrainLoopCompletesEveryRequest) {
  // wait_any returns *some* complete index each call; the caller's drain
  // contract is to erase the returned request before calling again (as
  // DistributedSimulation::complete_field_halo does).
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int a = 0, b = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(c.irecv(1, 50, a));
      reqs.push_back(c.irecv(1, 51, b));
      c.barrier();
      while (!reqs.empty()) {
        const std::size_t i = mpi::wait_any(std::span<mpi::Request>(reqs));
        ASSERT_LT(i, reqs.size());
        reqs.erase(reqs.begin() + static_cast<std::ptrdiff_t>(i));
      }
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 11);
    } else {
      const int a = 10, b = 11;
      c.isend(0, 50, a);
      c.isend(0, 51, b);
      c.barrier();
    }
  });
}

TEST(MiniMpiTest, WaitAnyEmptySpanThrows) {
  mpi::run(1, [](mpi::Comm&) {
    std::vector<mpi::Request> none;
    EXPECT_THROW(mpi::wait_any(std::span<mpi::Request>(none)),
                 std::invalid_argument);
  });
}
