// Ablation: what the run-time specializer buys over the reference
// interpreter on the audio router ASP.
//
//   interpreter -> JIT : typed register templates with patched constants,
//                        primitive pointers and in-place arguments (DESIGN.md)
//
// plus the code shape: bytecode instructions in, templates out.
#include <benchmark/benchmark.h>

#include "apps/asp_sources.hpp"
#include "bench/harness.hpp"
#include "net/network.hpp"
#include "planp/compile.hpp"
#include "planp/interp.hpp"
#include "planp/jit.hpp"
#include "planp/parser.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace asp;
using planp::Value;

struct Fixture {
  Fixture() {
    checked = planp::typecheck(planp::parse(apps::asp_source("audio_router")));
    compiled = planp::compile(checked);
    env.load_percent = 95;
    net::IpHeader ip;
    ip.src = net::ip("10.0.1.1");
    ip.dst = net::ip("224.1.1.1");
    ip.proto = net::IpProto::kUdp;
    packet = Value::of_tuple({Value::of_ip(ip),
                              Value::of_udp(net::UdpHeader{5004, 5004}),
                              Value::of_blob(std::vector<std::uint8_t>(440))});
    ps = Value::of_int(0);
    ss = Value::unit();
  }

  void pump(benchmark::State& state, planp::Engine& engine) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(engine.run_channel(0, ps, ss, packet));
      env.sends.clear();
    }
    state.SetItemsProcessed(state.iterations());
  }

  planp::NullEnv env;
  planp::CheckedProgram checked;
  planp::CompiledProgram compiled;
  Value packet, ps, ss;
};

void BM_Ablation_Interp(benchmark::State& state) {
  Fixture fx;
  planp::Interp engine(fx.checked, fx.env);
  fx.pump(state, engine);
}
BENCHMARK(BM_Ablation_Interp);

void BM_Ablation_Jit(benchmark::State& state) {
  Fixture fx;
  planp::JitEngine engine(fx.compiled, fx.env);
  fx.pump(state, engine);
}
BENCHMARK(BM_Ablation_Jit);

// Code shape: the stack bytecode against the register templates it becomes
// (loads and stores fold into their users; reported once as counters).
void BM_Ablation_TemplateCounts(benchmark::State& state) {
  Fixture fx;
  planp::JitEngine engine(fx.compiled, fx.env);
  std::size_t bytecode = 0, templates = 0;
  for (std::size_t i = 0; i < fx.compiled.channel_bodies.size(); ++i) {
    bytecode += fx.compiled.channel_bodies[i].code.size();
    templates += engine.channel_block(static_cast<int>(i)).code.size();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(templates);
  }
  state.counters["bytecode_instrs"] = static_cast<double>(bytecode);
  state.counters["templates"] = static_cast<double>(templates);
}
BENCHMARK(BM_Ablation_TemplateCounts)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  asp::bench::parse_and_strip_options(argc, argv);  // shared flags first
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  asp::obs::write_bench_json("ablation_jit");
  return 0;
}
