// efrb_bench: runs one benchmark workload and prints its metrics.
//
//   efrb_bench --workload NAME --seed N --seconds S [--trace DIR]
//
// Untraced, it prints the end-to-end metrics. With --trace it runs the
// workload untraced and then traced (S/2 seconds each), prints the per-layer
// metrics and writes DIR/<workload>-seed<N>.trace.json. The last line of
// stdout is the result JSON; the exit code is nonzero if any output check
// failed. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "efrb_bench.hpp"

namespace {

using namespace efrb_bench;

int usage() {
  std::fprintf(stderr,
               "usage: efrb_bench --workload NAME --seed N --seconds S "
               "[--trace DIR]\nworkloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

template <typename Tree>
int run(const Spec& spec, std::uint64_t seed, double seconds,
        const std::string& trace_dir) {
  const Plan plan = make_plan(spec, seed);
  const bool traced = !trace_dir.empty();
  const std::string provenance = provenance_json(spec, seed, seconds, traced);
  std::printf("provenance %s\n", provenance.c_str());
  if (!traced) {
    return report(end_to_end(run_phase<Tree, false>(plan, seconds, true)));
  }
  const PhaseResult plain = run_phase<Tree, false>(plan, seconds / 2, false);
  const PhaseResult traced_run =
      run_phase<typename Counting<Tree>::type, true>(plan, seconds / 2, false);
  Outcome out = per_layer(spec, plain, traced_run);
  std::filesystem::create_directories(trace_dir);
  const std::filesystem::path path = std::filesystem::path(trace_dir) /
                                     (std::string(spec.name) + "-seed" +
                                      std::to_string(seed) + ".trace.json");
  if (!write_chrome_trace(path, traced_run.kept_spans, provenance)) {
    std::fprintf(stderr, "efrb_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trace %s\n", path.c_str());
  return report(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 == argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      spec = find_spec(val);
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0') return usage();
    } else if (arg == "--trace") {
      trace_dir = val;
    } else {
      return usage();
    }
  }
  if (spec == nullptr || !(seconds > 0 && seconds <= 120)) return usage();
  try {
    return spec->chromatic ? run<ChromaticTree>(*spec, seed, seconds, trace_dir)
                           : run<EfrbTree>(*spec, seed, seconds, trace_dir);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "efrb_bench: %s\n", ex.what());
    return 1;
  }
}
