// Snapshot comparator: diff two efrb-metrics documents (BENCH_*.json or any
// --json output with schema >= 2) and flag perf regressions.
//
// Usage: efrb_perfdiff [options] <baseline.json> <candidate.json>
//   --threshold PCT      relative regression gate in percent (default 15)
//   --allow-cross-host   compare snapshots from different hosts anyway
//   --verbose            also print metrics inside the noise band
//
// Exit codes: 0 = compared, no regression; 1 = at least one regression;
// 2 = usage / IO / parse / schema error; 3 = cross-host refusal.
//
// The comparison engine lives in src/obs/perfdiff.hpp (unit-tested); this
// file is only argument handling and file IO.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/perfdiff.hpp"

namespace {

std::optional<std::string> slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold PCT] [--allow-cross-host] [--verbose] "
               "<baseline.json> <candidate.json>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  efrb::obs::PerfDiffOptions opts;
  bool verbose = false;
  const char* path_a = nullptr;
  const char* path_b = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threshold") == 0 && i + 1 < argc) {
      opts.rel_threshold = std::atof(argv[++i]) / 100.0;
      if (opts.rel_threshold <= 0) {
        std::fprintf(stderr, "efrb_perfdiff: bad --threshold value\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--allow-cross-host") == 0) {
      opts.allow_cross_host = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (path_a == nullptr) {
      path_a = arg;
    } else if (path_b == nullptr) {
      path_b = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path_a == nullptr || path_b == nullptr) return usage(argv[0]);

  efrb::obs::JsonValue docs[2];
  const char* paths[2] = {path_a, path_b};
  for (int i = 0; i < 2; ++i) {
    std::optional<std::string> text = slurp(paths[i]);
    if (!text) {
      std::fprintf(stderr, "efrb_perfdiff: cannot read %s\n", paths[i]);
      return 2;
    }
    std::string err;
    std::optional<efrb::obs::JsonValue> parsed =
        efrb::obs::parse_json(*text, &err);
    if (!parsed) {
      std::fprintf(stderr, "efrb_perfdiff: %s: %s\n", paths[i], err.c_str());
      return 2;
    }
    docs[i] = std::move(*parsed);
  }

  const efrb::obs::PerfDiffReport rep =
      efrb::obs::perfdiff(docs[0], docs[1], opts);
  if (!rep.ok) {
    std::fprintf(stderr, "efrb_perfdiff: %s\n", rep.error.c_str());
    return rep.cross_host_refused ? 3 : 2;
  }
  std::fputs(efrb::obs::render_perfdiff(rep, verbose).c_str(), stdout);
  return rep.regressions() > 0 ? 1 : 0;
}
