#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stochastic/rng.hpp"

// Every allocation in the process goes through these, so the traced run can
// count allocations per replication and per policy decision. Plain counting
// only: the cost is one thread-local increment per operator new.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

constexpr int kRounds = 5;

/// Keeps replayed results observable so the timed work cannot be elided.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

const char* hook_name(Hook hook) noexcept {
  switch (hook) {
    case Hook::kStart: return "on_start";
    case Hook::kFailure: return "on_failure";
    case Hook::kRecovery: return "on_recovery";
    case Hook::kPeriodic: return "on_periodic";
  }
  return "on_start";
}

}  // namespace

std::uint64_t thread_allocations() noexcept { return t_allocations; }

double host_speed() {
  constexpr std::uint64_t kIterations = 3000000;
  const Clock::time_point begin = Clock::now();
  std::uint64_t state = 1;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += std::log(static_cast<double>(state >> 11) * 0x1p-53 + 1e-300);
  }
  const double seconds = seconds_since(begin);
  g_sink = static_cast<std::uint64_t>(-acc);
  return static_cast<double>(kIterations) / seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() + static_cast<std::ptrdiff_t>(mid)));
}

void SpanLog::write_csv(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "w"),
                                                       &std::fclose);
  if (!file) throw std::runtime_error("cannot write spans to '" + path + "'");
  std::fprintf(file.get(), "kind,rep,begin_ns,end_ns,allocs,moved\n");
  for (const RepSpan& s : reps) {
    std::fprintf(file.get(), "rep,%u,%lld,%lld,%llu,\n", s.rep,
                 static_cast<long long>(s.begin_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  for (const HookSpan& s : hooks) {
    std::fprintf(file.get(), "%s,%u,%lld,%lld,%llu,%llu\n", hook_name(s.hook), s.rep,
                 static_cast<long long>(s.begin_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.moved));
  }
  if (std::fflush(file.get()) != 0) {
    throw std::runtime_error("cannot write spans to '" + path + "'");
  }
}

TimingPolicy::TimingPolicy(lbsim::core::PolicyPtr inner, SpanLog& log, bool drop_one_directive)
    : inner_(std::move(inner)), log_(&log), drop_pending_(drop_one_directive) {}

template <typename Call>
std::vector<lbsim::core::TransferDirective> TimingPolicy::timed(Hook hook, Call&& call) {
  const std::uint64_t allocs_before = thread_allocations();
  const Clock::time_point begin = Clock::now();
  std::vector<lbsim::core::TransferDirective> directives = call();
  const Clock::time_point end = Clock::now();
  const std::uint64_t allocs = thread_allocations() - allocs_before;
  if (log_->hooks.size() == log_->hooks.capacity()) ++log_->own_allocs;
  log_->hooks.push_back(
      HookSpan{log_->current_rep, hook, log_->ns(begin), log_->ns(end), allocs, 0});
  if (drop_pending_ && !directives.empty()) {
    directives.erase(directives.begin());
    drop_pending_ = false;
  }
  return directives;
}

std::vector<lbsim::core::TransferDirective> TimingPolicy::on_start(
    const lbsim::core::SystemView& view) {
  return timed(Hook::kStart, [&] { return inner_->on_start(view); });
}

std::vector<lbsim::core::TransferDirective> TimingPolicy::on_failure(
    int node, const lbsim::core::SystemView& view) {
  return timed(Hook::kFailure, [&] { return inner_->on_failure(node, view); });
}

std::vector<lbsim::core::TransferDirective> TimingPolicy::on_recovery(
    int node, const lbsim::core::SystemView& view) {
  return timed(Hook::kRecovery, [&] { return inner_->on_recovery(node, view); });
}

std::vector<lbsim::core::TransferDirective> TimingPolicy::on_periodic(
    const lbsim::core::SystemView& view) {
  return timed(Hook::kPeriodic, [&] { return inner_->on_periodic(view); });
}

lbsim::core::PolicyPtr TimingPolicy::clone() const {
  return std::make_unique<TimingPolicy>(inner_->clone(), *log_, drop_pending_);
}

double replay_streams_us(std::uint64_t seed, std::uint64_t first, std::uint64_t count) {
  std::vector<double> rounds;
  std::uint64_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point begin = Clock::now();
    for (std::uint64_t id = first; id < first + count; ++id) {
      lbsim::stoch::RngStream stream(seed, id);
      sink ^= stream.next_u64();
    }
    rounds.push_back(seconds_since(begin) * 1e6 / static_cast<double>(count));
  }
  g_sink = sink;
  return median(rounds);
}

double replay_hold_ns(std::size_t depth, std::uint64_t events) {
  // The classic hold model: the queue stays at `depth` pending events while
  // every pop pushes one replacement at an exponential offset.
  struct Hold {
    lbsim::des::Simulator* sim;
    lbsim::stoch::RngStream* rng;
    void operator()() const { sim->schedule_in(rng->exponential(1.0), Hold{*this}); }
  };
  lbsim::des::Simulator sim;
  lbsim::stoch::RngStream rng(0x401d, 0);
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    sim.schedule_in(rng.exponential(1.0), Hold{&sim, &rng});
  }
  for (std::uint64_t i = 0; i < events; ++i) sim.step();  // warm the slab and heap
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point begin = Clock::now();
    for (std::uint64_t i = 0; i < events; ++i) sim.step();
    rounds.push_back(seconds_since(begin) * 1e9 / static_cast<double>(events));
  }
  return median(rounds);
}

double replay_broadcast_ns(const lbsim::testbed::TestbedConfig& config, std::size_t calls) {
  const int nodes = static_cast<int>(config.params.nodes.size());
  lbsim::des::Simulator sim;
  lbsim::stoch::RngStream data_rng(0xb0ad, 0);
  lbsim::stoch::RngStream state_rng(0xb0ad, 1);
  lbsim::net::Network::Config net_config;
  net_config.data_delay = std::make_unique<lbsim::net::ErlangPerTaskDelay>(
      config.params.per_task_delay_mean, config.transfer_setup_shift);
  net_config.state_latency = config.state_latency;
  net_config.state_loss_probability = config.state_loss_probability;
  net_config.channel = config.channel;
  lbsim::net::Network network(sim, config.params.nodes.size(), std::move(net_config), data_rng,
                              state_rng);
  std::uint64_t received = 0;
  std::vector<double> rounds;
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      lbsim::net::StateInfoPacket packet;
      packet.sender = static_cast<int>(i % static_cast<std::size_t>(nodes));
      packet.timestamp = sim.now();
      network.broadcast_state(packet, [&received](int, const lbsim::net::StateInfoPacket&) {
        ++received;
      });
      if (packet.sender == nodes - 1) sim.run();  // deliver one round of broadcasts
    }
    sim.run();
    rounds.push_back(seconds_since(begin) * 1e9 / static_cast<double>(calls));
  }
  g_sink = received;
  return median(rounds);
}

double replay_topology_us(const lbsim::net::TopologySpec& spec, std::size_t nodes,
                          std::size_t builds) {
  std::vector<double> rounds;
  std::uint64_t edges = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < builds; ++i) {
      edges += lbsim::net::Topology::build(spec, nodes).edge_count();
    }
    rounds.push_back(seconds_since(begin) * 1e6 / static_cast<double>(builds));
  }
  g_sink = edges;
  return median(rounds);
}

}  // namespace perfbench
