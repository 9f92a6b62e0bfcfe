// Checks that the benchmark's output checks catch a broken set: a wrapper
// that drops every 1000th insert while still returning true must yield
// failed operations and a nonzero exit code, on both tree types.
#include <cstdio>
#include <utility>

#include "efrb_bench.hpp"

namespace {

using namespace efrb_bench;

template <typename Base>
class DroppingTree : public Base {
 public:
  class Handle : public Base::Handle {
   public:
    explicit Handle(typename Base::Handle&& h) : Base::Handle(std::move(h)) {}

    bool insert(const Key& k, Value v) {
      if (++inserts_ % 1000 == 0) return true;
      return Base::Handle::insert(k, v);
    }

   private:
    std::uint64_t inserts_ = 0;
  };

  Handle handle() { return Handle(Base::handle()); }
};

template <typename Tree>
bool caught(const char* workload) {
  const Plan plan = make_plan(*find_spec(workload), 7);
  const Outcome out = end_to_end(run_phase<Tree, false>(plan, 0.3, false));
  const int code = report(out);
  const bool ok = out.failed > 0 && code != 0;
  std::fprintf(stderr, "%s: %s (failed=%llu of %llu, exit %d)\n", workload,
               ok ? "caught" : "NOT CAUGHT",
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.attempted), code);
  return ok;
}

}  // namespace

int main() {
  const bool churn = caught<DroppingTree<EfrbTree>>("churn-64k");
  const bool timeseries = caught<DroppingTree<ChromaticTree>>("timeseries");
  return churn && timeseries ? 0 : 1;
}
