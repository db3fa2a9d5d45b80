// Tests for vpic::farm (src/farm, docs/FARM.md):
//
//   * wire framing: encode/decode round trips, incomplete buffers,
//     oversize-header rejection, socketpair transport,
//   * scheduler lifecycle: submit validation, run-to-completion,
//     weighted fair interleaving, priority preemption,
//   * THE acceptance property: a job preempted (checkpoint + engine
//     release) and resumed mid-run finishes bit-identical to an
//     uninterrupted run of the same deck,
//   * steering: pause/resume/cancel (with ring purge), resume across
//     Scheduler instances (crash recovery via a surviving ring),
//   * StatusBus: command surface and the vpic-bench-v1 status envelope
//     over a live localhost socket,
//   * per-job prof counter scoping ("job.<name>.*").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "ckpt/ring.hpp"
#include "core/core.hpp"
#include "farm/farm.hpp"
#include "prof/prof.hpp"

namespace core = vpic::core;
namespace farm = vpic::farm;
namespace pk = vpic::pk;
namespace prof = vpic::prof;
namespace wire = vpic::farm::wire;
namespace fs = std::filesystem;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: the bit-identity test compares checkpoint bytes,
  // and float-atomic deposits are nondeterministic with wider teams. Farm
  // worker threads are independent of this setting.
  void SetUp() override { pk::initialize(1); }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_farm_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Small LPI deck, cheap enough for many-job farm runs.
core::Simulation make_lpi_small(std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  p.sort_interval = 10;
  p.seed = seed;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  return sim;
}

/// make_lpi_small, Standard-sorted when built: every push is then in
/// exact cell order, whose bits do not depend on the kernel thread count.
core::Simulation make_lpi_small_sorted() {
  auto sim = make_lpi_small();
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    core::sort_particles(sim.species(s), vpic::sort::SortOrder::Standard, 0,
                         0, sim.grid().nv());
  return sim;
}

farm::JobSpec lpi_job(const std::string& name, std::int64_t steps,
                      std::uint64_t seed = 42) {
  farm::JobSpec spec;
  spec.name = name;
  spec.make = [seed] { return make_lpi_small(seed); };
  spec.total_steps = steps;
  return spec;
}

std::vector<char> read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Poll a job's status until `pred` holds or ~5 s elapse.
template <class Pred>
bool poll_status(farm::Scheduler& s, const std::string& name, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    const auto st = s.status(name);
    if (st && pred(*st)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

}  // namespace

// ---- wire framing ---------------------------------------------------

TEST(FarmWire, EncodeDecodeRoundTrip) {
  const std::string payload = "status please\n\twith bytes \x01\x02";
  const std::string framed = wire::encode_frame(payload);
  ASSERT_EQ(framed.size(), payload.size() + 4);
  std::string out;
  EXPECT_EQ(wire::decode_frame(framed, out), framed.size());
  EXPECT_EQ(out, payload);

  // Two concatenated frames decode one at a time.
  const std::string two = framed + wire::encode_frame("second");
  std::string first;
  const std::size_t used = wire::decode_frame(two, first);
  ASSERT_EQ(used, framed.size());
  EXPECT_EQ(first, payload);
  std::string second;
  EXPECT_EQ(wire::decode_frame(std::string_view(two).substr(used), second),
            4 + 6u);
  EXPECT_EQ(second, "second");
}

TEST(FarmWire, EmptyAndIncompleteFrames) {
  std::string out;
  EXPECT_EQ(wire::decode_frame("", out), 0u);          // no header yet
  EXPECT_EQ(wire::decode_frame("\x02\x00\x00", out), 0u);  // short header
  const std::string framed = wire::encode_frame("abcd");
  EXPECT_EQ(wire::decode_frame(framed.substr(0, 6), out), 0u);  // short body
  EXPECT_EQ(wire::decode_frame(wire::encode_frame(""), out), 4u);
  EXPECT_TRUE(out.empty());
}

TEST(FarmWire, OversizeHeaderRejected) {
  std::string hdr = "\xff\xff\xff\x7f";  // ~2 GiB announced
  std::string out;
  EXPECT_THROW((void)wire::decode_frame(hdr, out), std::length_error);
  // The socket reader refuses instead of throwing.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(wire::send_frame(sv[0], "x"));  // sane frame first
  std::string got;
  EXPECT_TRUE(wire::recv_frame(sv[1], got));
  EXPECT_EQ(got, "x");
  ::send(sv[0], hdr.data(), 4, 0);
  EXPECT_FALSE(wire::recv_frame(sv[1], got));
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(FarmWire, SocketpairTransport) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string big(100000, 'q');
  ASSERT_TRUE(wire::send_frame(sv[0], big));
  ASSERT_TRUE(wire::send_frame(sv[0], ""));
  std::string got;
  ASSERT_TRUE(wire::recv_frame(sv[1], got));
  EXPECT_EQ(got, big);
  ASSERT_TRUE(wire::recv_frame(sv[1], got));
  EXPECT_TRUE(got.empty());
  ::close(sv[0]);
  EXPECT_FALSE(wire::recv_frame(sv[1], got));  // EOF
  ::close(sv[1]);
}

// ---- scheduler basics -----------------------------------------------

TEST(FarmScheduler, SubmitValidation) {
  const auto dir = scratch("validate");
  farm::Scheduler::Options opt;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  EXPECT_THROW(s.submit(farm::JobSpec{}), std::invalid_argument);  // no name
  auto no_factory = lpi_job("a", 10);
  no_factory.make = nullptr;
  EXPECT_THROW(s.submit(no_factory), std::invalid_argument);
  auto no_steps = lpi_job("a", 0);
  EXPECT_THROW(s.submit(no_steps), std::invalid_argument);
  s.submit(lpi_job("a", 4));
  EXPECT_THROW(s.submit(lpi_job("a", 4)), std::invalid_argument);  // dup
  EXPECT_FALSE(s.pause("nope"));
  EXPECT_FALSE(s.resume("nope"));
  EXPECT_FALSE(s.cancel("nope"));
  EXPECT_FALSE(s.status("nope").has_value());
  EXPECT_FALSE(s.wait("nope").has_value());
  s.wait_idle();
}

TEST(FarmScheduler, RunsJobsToCompletion) {
  const auto dir = scratch("complete");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 2;
  opt.slice_steps = 8;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  std::atomic<int> completions{0};
  for (int i = 0; i < 3; ++i) {
    auto spec = lpi_job("job" + std::to_string(i), 20, 42 + i);
    spec.on_complete = [&completions](core::Simulation& sim) {
      EXPECT_EQ(sim.step_count(), 20);
      ++completions;
    };
    s.submit(spec);
  }
  for (int i = 0; i < 3; ++i) {
    const auto st = s.wait("job" + std::to_string(i));
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, farm::JobState::Completed);
    EXPECT_EQ(st->step, 20);
    EXPECT_GE(st->slices, 3);  // 20 steps / 8-step quantum
    EXPECT_GT(st->latency_s, 0.0);
    EXPECT_GT(st->field_energy, 0.0);
    EXPECT_FALSE(st->kinetic.empty());
  }
  EXPECT_EQ(completions.load(), 3);
  s.wait_idle();
}

TEST(FarmScheduler, WeightedFairShares) {
  const auto dir = scratch("wfq");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;  // force the two jobs to share one worker
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  std::mutex mu;
  std::vector<std::string> completion_order;
  auto track = [&](const std::string& name) {
    return [&, name](core::Simulation&) {
      std::lock_guard lk(mu);
      completion_order.push_back(name);
    };
  };
  auto light = lpi_job("light", 32);
  light.weight = 1;
  light.on_complete = track("light");
  auto heavy = lpi_job("heavy", 32);
  heavy.weight = 3;  // entitled to 3x the steps of `light` under contention
  heavy.on_complete = track("heavy");
  s.submit(light);
  s.submit(heavy);
  ASSERT_TRUE(s.wait("light").has_value());
  ASSERT_TRUE(s.wait("heavy").has_value());
  // Equal step totals, 3x the weight: the heavy job must finish first
  // (it is scheduled ~3 slices for every light slice).
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order.front(), "heavy");
  const auto lst = s.status("light");
  const auto hst = s.status("heavy");
  ASSERT_TRUE(lst && hst);
  // vtime normalizes service by weight — both ran 32 steps, so the
  // weighted virtual clocks end at 32/1 vs 32/3.
  EXPECT_NEAR(lst->vtime, 32.0, 1e-9);
  EXPECT_NEAR(hst->vtime, 32.0 / 3.0, 1e-9);
}

TEST(FarmScheduler, PriorityPreemptsRunningJob) {
  const auto dir = scratch("prio");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  s.submit(lpi_job("low", 200));
  ASSERT_TRUE(poll_status(s, "low", [](const farm::JobStatus& st) {
    return st.step > 0;
  }));
  auto high = lpi_job("high", 8);
  high.priority = 10;
  s.submit(high);
  const auto hst = s.wait("high");
  ASSERT_TRUE(hst.has_value());
  EXPECT_EQ(hst->state, farm::JobState::Completed);
  // The low job must have yielded the only worker: checkpointed to its
  // ring, released, and (by now or later) restored.
  const auto lst = s.status("low");
  ASSERT_TRUE(lst.has_value());
  EXPECT_LT(lst->step, 200);
  EXPECT_GE(lst->preemptions, 1);
  EXPECT_GE(lst->checkpoints, 1);
  ASSERT_TRUE(s.cancel("low"));
  ASSERT_TRUE(poll_status(s, "low", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Cancelled;
  }));
}

// ---- THE acceptance property: preempt + resume is bit-identical ------

TEST(FarmScheduler, PreemptResumeBitIdentical) {
  const auto dir = scratch("bit_identical");
  constexpr std::int64_t kSteps = 60;

  // Reference: the same deck, uninterrupted, checkpointed at the end.
  const fs::path ref_ckpt = dir / "ref.ckpt";
  {
    auto ref = make_lpi_small();
    ref.run(static_cast<int>(kSteps));
    ref.checkpoint(ref_ckpt.string());
  }

  // Farm run: force several checkpoint-and-release preemptions mid-run.
  const fs::path farm_ckpt = dir / "farm.ckpt";
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 8;
  opt.ring_dir = (dir / "rings").string();
  {
    farm::Scheduler s(opt);
    auto spec = lpi_job("victim", kSteps);
    spec.on_complete = [&farm_ckpt](core::Simulation& sim) {
      sim.checkpoint(farm_ckpt.string());
    };
    // The first slice waits at its end until the first preempt is asked
    // for, so the job parks at least once however fast the host steps.
    std::promise<void> entered, release;
    spec.on_slice = [&entered, released = release.get_future().share(),
                     first = true](const core::Simulation&) mutable {
      if (!std::exchange(first, false)) return;
      entered.set_value();
      released.wait();
    };
    s.submit(spec);
    const bool in_slice =
        entered.get_future().wait_for(std::chrono::seconds(30)) ==
        std::future_status::ready;
    const bool preempted = in_slice && s.preempt("victim");
    release.set_value();
    ASSERT_TRUE(preempted);
    // Keep preempting until the job has been parked at least twice (each
    // park is a full checkpoint + engine teardown + factory rebuild +
    // ring restore on the next slice).
    for (int i = 0; i < 500; ++i) {
      const auto st = s.status("victim");
      ASSERT_TRUE(st.has_value());
      if (st->state == farm::JobState::Completed || st->preemptions >= 2)
        break;
      s.preempt("victim");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto st = s.wait("victim");
    ASSERT_TRUE(st.has_value());
    ASSERT_EQ(st->state, farm::JobState::Completed)
        << "error: " << st->error;
    EXPECT_GE(st->preemptions, 1);
    EXPECT_EQ(st->restores, st->preemptions);
    EXPECT_EQ(st->step, kSteps);
  }

  // The checkpoint format is memcmp-reproducible, so byte equality means
  // the full simulation state (fields, particles, RNG, history) matches.
  const auto ref_bytes = read_bytes(ref_ckpt);
  const auto farm_bytes = read_bytes(farm_ckpt);
  ASSERT_FALSE(ref_bytes.empty());
  ASSERT_EQ(ref_bytes.size(), farm_bytes.size());
  EXPECT_TRUE(ref_bytes == farm_bytes)
      << "preempted+resumed state diverged from the uninterrupted run";
}

// ---- steering -------------------------------------------------------

TEST(FarmScheduler, PauseFreezesAndResumeContinues) {
  const auto dir = scratch("pause");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  s.submit(lpi_job("job", 400));
  ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
    return st.step > 0;
  }));
  ASSERT_TRUE(s.pause("job"));
  ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Paused;
  }));
  // wait_idle returns with the job paused (paused jobs don't hold it
  // open), and the step count stays frozen.
  s.wait_idle();
  const auto frozen = s.status("job");
  ASSERT_TRUE(frozen.has_value());
  const std::int64_t at = frozen->step;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(s.status("job")->step, at);
  EXPECT_FALSE(s.resume("nope"));
  ASSERT_TRUE(s.resume("job"));
  const auto st = s.wait("job");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, farm::JobState::Completed);
  EXPECT_EQ(st->step, 400);
  EXPECT_GE(st->checkpoints, 1);  // the pause parked to the ring
}

TEST(FarmScheduler, CancelDropPurgesRing) {
  const auto dir = scratch("cancel");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  s.submit(lpi_job("keep", 400));
  s.submit(lpi_job("drop", 400));
  // Park both at least once so both rings have generations.
  for (const char* name : {"keep", "drop"}) {
    ASSERT_TRUE(poll_status(s, name, [](const farm::JobStatus& st) {
      return st.step > 0;
    }));
    s.preempt(name);
    ASSERT_TRUE(poll_status(s, name, [&](const farm::JobStatus& st) {
      return st.checkpoints >= 1;
    }));
  }
  ASSERT_TRUE(s.cancel("keep"));
  ASSERT_TRUE(s.cancel("drop", /*drop_checkpoints=*/true));
  for (const char* name : {"keep", "drop"})
    ASSERT_TRUE(poll_status(s, name, [](const farm::JobStatus& st) {
      return st.state == farm::JobState::Cancelled;
    }));
  const auto keep_gens =
      vpic::ckpt::GenerationRing((fs::path(opt.ring_dir) / "keep").string())
          .generations();
  const auto drop_gens =
      vpic::ckpt::GenerationRing((fs::path(opt.ring_dir) / "drop").string())
          .generations();
  EXPECT_FALSE(keep_gens.empty());  // plain cancel keeps the ring
  EXPECT_TRUE(drop_gens.empty());   // drop purges it
  // Cancelling a terminal job is a no-op.
  EXPECT_FALSE(s.cancel("drop"));
}

TEST(FarmScheduler, ResumeAcrossSchedulerInstances) {
  const auto dir = scratch("across");
  constexpr std::int64_t kSteps = 200;
  const fs::path ref_ckpt = dir / "ref.ckpt";
  {
    auto ref = make_lpi_small();
    ref.run(static_cast<int>(kSteps));
    ref.checkpoint(ref_ckpt.string());
  }
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  {  // Farm #1: make progress, pause (parks to ring), shut down. The
     // huge step budget guarantees the pause lands before completion;
     // the parked step is a handful of slices, far below kSteps.
    farm::Scheduler s(opt);
    s.submit(lpi_job("job", 1000000));
    ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
      return st.step >= 4;
    }));
    ASSERT_TRUE(s.pause("job"));
    ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
      return st.state == farm::JobState::Paused;
    }));
  }
  const fs::path farm_ckpt = dir / "farm.ckpt";
  {  // Farm #2: same job name ⇒ same ring ⇒ restores and finishes.
    farm::Scheduler s(opt);
    auto spec = lpi_job("job", kSteps);
    spec.on_complete = [&farm_ckpt](core::Simulation& sim) {
      sim.checkpoint(farm_ckpt.string());
    };
    s.submit(spec);
    const auto st = s.wait("job");
    ASSERT_TRUE(st.has_value());
    ASSERT_EQ(st->state, farm::JobState::Completed) << st->error;
    EXPECT_GE(st->restores, 1);  // picked the ring up at submit
  }
  EXPECT_TRUE(read_bytes(ref_ckpt) == read_bytes(farm_ckpt));
}

// ---- elastic rescale ------------------------------------------------

TEST(FarmScheduler, RescaleMidRunResumesAtNewShape) {
  const auto dir = scratch("rescale");
  constexpr std::int64_t kSteps = 200;

  // The first slice waits at its end until the pause is asked for, so the
  // job parks at a step boundary mid-run however fast the host steps.
  // Every slice records the kernel width it ran at.
  std::promise<void> entered, release;
  std::mutex widths_mu;
  std::vector<int> widths;
  farm::JobSpec spec = lpi_job("scale", kSteps);
  spec.make = [] { return make_lpi_small_sorted(); };
  spec.on_slice = [&entered, &widths_mu, &widths,
                   released = release.get_future().share(),
                   first = true](const core::Simulation&) mutable {
    {
      const std::lock_guard lk(widths_mu);
      widths.push_back(pk::concurrency());
    }
    if (!std::exchange(first, false)) return;
    entered.set_value();
    released.wait();
  };
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 6;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  s.submit(std::move(spec));

  EXPECT_FALSE(s.rescale("ghost", 2));  // unknown job
  EXPECT_FALSE(s.rescale("scale", 0));  // bad thread count
  EXPECT_FALSE(s.rescale("scale", 257));  // above kMaxRescaleWorkers
  const bool in_slice =
      entered.get_future().wait_for(std::chrono::seconds(30)) ==
      std::future_status::ready;
  const bool paused = in_slice && s.pause("scale");
  release.set_value();
  ASSERT_TRUE(paused);
  ASSERT_TRUE(poll_status(s, "scale", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Paused;
  }));

  // A rescale of the parked job only records the new width; resume
  // restores the engine from the ring, at a step the test knows, and runs
  // its kernels on two threads.
  const std::int64_t at = s.status("scale")->step;
  ASSERT_GT(at, 0);
  ASSERT_LT(at, kSteps);
  ASSERT_TRUE(s.rescale("scale", 2));
  const auto parked = s.status("scale");
  EXPECT_EQ(parked->state, farm::JobState::Paused);
  EXPECT_EQ(parked->step, at);
  EXPECT_EQ(parked->restores, 0);
  ASSERT_TRUE(s.resume("scale"));

  const auto st = s.wait("scale");
  ASSERT_TRUE(st.has_value());
  ASSERT_EQ(st->state, farm::JobState::Completed) << st->error;
  EXPECT_EQ(st->step, kSteps);
  EXPECT_EQ(st->rescales, 1);
  EXPECT_EQ(st->rescale_workers, 2);
  EXPECT_EQ(st->checkpoints, 1);
  EXPECT_EQ(st->restores, 1);

  // The new width took effect: the first slice ran at the process's
  // kernel thread count, every slice after the rescale at two.
  {
    const std::lock_guard lk(widths_mu);
    ASSERT_GE(widths.size(), 2u);
    EXPECT_EQ(widths.front(), pk::concurrency());
    for (std::size_t k = 1; k < widths.size(); ++k)
      EXPECT_EQ(widths[k], 2) << "slice " << k;
  }

  // Reference: the same deck run to that step, checkpointed, and restored
  // into a fresh deck that runs to the end, all at one kernel thread. The
  // deck was Standard-sorted when built, so every push is in exact cell
  // order and the energies are summed in fixed blocks: bit for bit.
  const std::string path = (dir / "ref.ckpt").string();
  auto before = make_lpi_small_sorted();
  before.run(static_cast<int>(at));
  before.checkpoint(path);
  auto after = make_lpi_small_sorted();
  after.restore(path);
  after.run(static_cast<int>(kSteps - at));
  const auto ref = after.energies();
  EXPECT_EQ(st->field_energy, ref.field);
  EXPECT_EQ(st->kinetic, ref.species);

  // Terminal jobs refuse further rescales.
  EXPECT_FALSE(s.rescale("scale", 4));
}

TEST(FarmStatusBus, RescaleCommandSteersAndReports) {
  const auto dir = scratch("rescale_bus");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  farm::StatusBus bus(s, 0);

  EXPECT_NE(bus.handle_command("rescale").find("usage"), std::string::npos);
  EXPECT_NE(bus.handle_command("rescale ghost 2").find("\"ok\":false"),
            std::string::npos);

  s.submit(lpi_job("job", 400));
  ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
    return st.step > 0;
  }));
  EXPECT_NE(bus.handle_command("rescale job 0").find("\"ok\":false"),
            std::string::npos);
  // A kernel opens one thread per count: the socket may not ask for a
  // million.
  EXPECT_NE(bus.handle_command("rescale job 1000000").find("\"ok\":false"),
            std::string::npos);
  // The retired tiles argument is a usage error.
  EXPECT_NE(bus.handle_command("rescale job 2 4").find("usage"),
            std::string::npos);
  EXPECT_EQ(bus.handle_command("rescale job 2"), "{\"ok\":true}");
  // The running job parks at a step boundary and is restored from its
  // ring at the new width.
  ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
    return st.rescales >= 1 && st.restores >= 1;
  }));

  const std::string status = bus.handle_command("status");
  EXPECT_NE(status.find("\"rescales\":"), std::string::npos);
  EXPECT_NE(status.find("\"rescale_workers\":2"), std::string::npos);

  ASSERT_TRUE(s.cancel("job"));
  ASSERT_TRUE(poll_status(s, "job", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Cancelled;
  }));
}

// ---- per-job prof counter scoping -----------------------------------

TEST(FarmProf, CounterScopePrefixesThisThreadOnly) {
  prof::counter_add("farm_test.plain");
  {
    prof::CounterScope scope("job.t1.");
    prof::counter_add("farm_test.scoped");
    EXPECT_EQ(prof::counter_prefix(), "job.t1.");
    std::thread([] {
      // Sibling threads are unaffected by this thread's scope.
      EXPECT_TRUE(prof::counter_prefix().empty());
      prof::counter_add("farm_test.other");
    }).join();
  }
  EXPECT_TRUE(prof::counter_prefix().empty());
  EXPECT_GE(prof::counter_value("farm_test.plain"), 1u);
  EXPECT_GE(prof::counter_value("job.t1.farm_test.scoped"), 1u);
  EXPECT_EQ(prof::counter_value("farm_test.scoped"), 0u);
  EXPECT_GE(prof::counter_value("farm_test.other"), 1u);
}

TEST(FarmProf, JobsRecordScopedSliceCounters) {
  const auto dir = scratch("counters");
  farm::Scheduler::Options opt;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  s.submit(lpi_job("ctrjob", 12));
  const auto st = s.wait("ctrjob");
  ASSERT_TRUE(st.has_value());
  ASSERT_EQ(st->state, farm::JobState::Completed);
  EXPECT_GE(prof::counter_value("job.ctrjob.farm.slice"),
            static_cast<std::uint64_t>(st->slices));
  // The step runs its phases on the job's worker thread, inside
  // the slice's CounterScope, so the push dispatch counters are the job's.
  EXPECT_GE(prof::counter_value("job.ctrjob.push.dispatch.generic") +
                prof::counter_value("job.ctrjob.push.dispatch.run_aware"),
            1u);
}

TEST(FarmProf, StatusPayloadCarriesTheJobsCounters) {
  const auto dir = scratch("jobctrs");
  farm::Scheduler::Options opt;
  opt.ring_dir = (dir / "rings").string();
  opt.slice_steps = 6;
  farm::Scheduler s(opt);
  s.submit(lpi_job("ctrjob2", 12, 7));
  const auto st = s.wait("ctrjob2");
  ASSERT_TRUE(st.has_value());
  ASSERT_EQ(st->state, farm::JobState::Completed) << st->error;
  // The status envelope carries the job's counters, prefix stripped.
  farm::StatusBus bus(s, 0);
  const std::string payload = bus.handle_command("status");
  EXPECT_NE(payload.find("\"farm.slice\":"), std::string::npos);
  EXPECT_NE(payload.find("\"push.dispatch."), std::string::npos);
}

// ---- status bus -----------------------------------------------------

TEST(FarmStatusBus, CommandsAndStatusOverSocket) {
  const auto dir = scratch("bus");
  farm::Scheduler::Options opt;
  opt.max_concurrent = 1;
  opt.slice_steps = 4;
  opt.ring_dir = (dir / "rings").string();
  farm::Scheduler s(opt);
  farm::StatusBus bus(s, 0);
  ASSERT_GT(bus.port(), 0);

  farm::WireClient cli(bus.port());
  EXPECT_EQ(cli.request("ping"), "{\"ok\":true,\"pong\":true}");
  EXPECT_NE(cli.request("bogus").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(cli.request("pause").find("missing job name"),
            std::string::npos);
  EXPECT_NE(cli.request("pause ghost").find("\"ok\":false"),
            std::string::npos);

  s.submit(lpi_job("steer\"me", 600));  // exercises JSON escaping too
  ASSERT_TRUE(poll_status(s, "steer\"me", [](const farm::JobStatus& st) {
    return st.step > 0;
  }));
  EXPECT_EQ(cli.request("pause steer\"me"), "{\"ok\":true}");
  ASSERT_TRUE(poll_status(s, "steer\"me", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Paused;
  }));
  EXPECT_EQ(cli.request("prio steer\"me 7"), "{\"ok\":true}");
  EXPECT_EQ(s.status("steer\"me")->priority, 7);

  const std::string status = cli.request("status");
  EXPECT_NE(status.find("\"schema\":\"vpic-bench-v1\""), std::string::npos);
  EXPECT_NE(status.find("\"bench\":\"farm_status\""), std::string::npos);
  EXPECT_NE(status.find("\"job\":\"steer\\\"me\""), std::string::npos);
  EXPECT_NE(status.find("\"state\":\"paused\""), std::string::npos);
  EXPECT_NE(status.find("\"counters\":{"), std::string::npos);

  EXPECT_EQ(cli.request("resume steer\"me"), "{\"ok\":true}");
  EXPECT_EQ(cli.request("cancel steer\"me drop"), "{\"ok\":true}");
  ASSERT_TRUE(poll_status(s, "steer\"me", [](const farm::JobStatus& st) {
    return st.state == farm::JobState::Cancelled;
  }));

  // A second concurrent client works (thread-per-connection server).
  farm::WireClient cli2(bus.port());
  EXPECT_EQ(cli2.request("ping"), "{\"ok\":true,\"pong\":true}");
}

TEST(FarmStatusBus, HandleCommandWithoutSocket) {
  farm::Scheduler s;
  farm::StatusBus bus(s, 0);
  EXPECT_EQ(bus.handle_command("cancel x what"),
            "{\"ok\":false,\"error\":\"cancel: unknown flag 'what'\"}");
  EXPECT_NE(bus.handle_command("prio x").find("missing integer"),
            std::string::npos);
  EXPECT_NE(bus.handle_command("status").find("\"records\":[]"),
            std::string::npos);
}
