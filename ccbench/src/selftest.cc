// ccbench_selftest: shows that every checker the benchmark relies on
// catches a planted error, and that BENCHMARK.json declares exactly the
// metrics ccbench prints.
//
//   ccbench_selftest <path to BENCHMARK.json>
//
// Each case first checks a right answer (must pass), then the same answer
// with one planted error (must fail): a dropped record, a count off by
// one, a limit-k record outside the predicate, an owned entry missing from
// a read-your-writes range, and an acknowledged update missing after
// recovery. Exits 0 when every case behaves, 1 otherwise.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "metric_names.h"
#include "reference.h"

namespace ccbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// A right answer passes; the planted one is rejected.
void Case(const std::string& name, const std::string& right,
          const std::string& planted) {
  Expect(right.empty(), name + ": right answer passes" +
                            (right.empty() ? "" : " (" + right + ")"));
  Expect(!planted.empty(), name + ": planted error caught" +
                               (planted.empty() ? "" : " (" + planted + ")"));
}

void CheckerCases() {
  Rng rng(7);
  std::vector<Rec> pts;
  for (uint64_t i = 0; i < 2000; ++i) {
    int64_t x = rng.Between(0, 100000);
    pts.push_back(MakeRec(x, x + rng.Between(0, 5000), i));
  }
  StabRef stab(pts);
  // A stab point with a few dozen answers.
  const Coord a = 50000;
  std::vector<Rec> truth;
  stab.Collect(a, &truth);
  Expect(truth.size() > 16, "fixture: the stab has answers");

  // Records mode: a dropped record.
  std::vector<Rec> dropped(truth.begin() + 1, truth.end());
  Case("records / dropped record",
       CheckAnswer(stab, a, Mode::kRecords, 0, truth, truth.size()),
       CheckAnswer(stab, a, Mode::kRecords, 0, dropped, dropped.size()));

  // Count mode: off by one.
  Case("count / off by one",
       CheckAnswer(stab, a, Mode::kCount, 0, {}, truth.size()),
       CheckAnswer(stab, a, Mode::kCount, 0, {}, truth.size() + 1));

  // Exists mode: wrong bit.
  Case("exists / wrong bit", CheckAnswer(stab, a, Mode::kExists, 0, {}, 1),
       CheckAnswer(stab, a, Mode::kExists, 0, {}, 0));

  // Limit-k: one of the k records does not satisfy the predicate (a
  // stored point that does not contain a).
  const uint32_t k = 8;
  std::vector<Rec> first_k(truth.begin(), truth.begin() + k);
  std::vector<Rec> outside = first_k;
  for (const Rec& p : pts) {
    if (!(W0(p) <= a && W1(p) >= a)) {
      outside[3] = p;
      break;
    }
  }
  Case("limit / record outside the predicate",
       CheckAnswer(stab, a, Mode::kLimit, k, first_k, k),
       CheckAnswer(stab, a, Mode::kLimit, k, outside, k));

  // Limit-k: a duplicate in place of a distinct record.
  std::vector<Rec> dup = first_k;
  dup[1] = dup[0];
  Case("limit / duplicate record",
       CheckAnswer(stab, a, Mode::kLimit, k, first_k, k),
       CheckAnswer(stab, a, Mode::kLimit, k, dup, k));

  // 3-sided and class references, one planted error each.
  std::vector<Rec> plane;
  for (uint64_t i = 0; i < 2000; ++i) {
    plane.push_back(MakeRec(rng.Between(0, 1000), rng.Between(0, 1000), i));
  }
  ThreeSidedRef ts(plane);
  ThreeSidedQ tq{100, 400, 500};
  std::vector<Rec> ts_truth;
  ts.Collect(tq, &ts_truth);
  std::vector<Rec> ts_dropped(ts_truth.begin(), ts_truth.end() - 1);
  Case("3-sided / dropped record",
       CheckAnswer(ts, tq, Mode::kRecords, 0, ts_truth, ts_truth.size()),
       CheckAnswer(ts, tq, Mode::kRecords, 0, ts_dropped, ts_dropped.size()));

  Forest forest;
  forest.parent = {-1, 0, 0, 1, 1, 2};
  forest.Number();
  std::vector<Rec> objs;
  for (uint64_t i = 0; i < 600; ++i) {
    objs.push_back({i, rng.Below(6), static_cast<uint64_t>(rng.Between(0, 999))});
  }
  ClassRef cls(&forest, objs);
  ClassQ cq{1, 0, 999};  // class 1's full extent: classes 1, 3, 4
  const uint64_t n = cls.Count(cq);
  Case("class / count off by one",
       CheckAnswer(cls, cq, Mode::kCount, 0, {}, n),
       CheckAnswer(cls, cq, Mode::kCount, 0, {}, n - 1));

  // Read-your-writes: an owned entry missing from the range.
  std::vector<Rec> range = {MakeRec(100, 1, 0), MakeRec(101, 2, 0),
                            MakeRec(104, 3, 0), MakeRec(105, 4, 0)};
  std::vector<Rec> owned = {MakeRec(100, 1, 0), MakeRec(104, 3, 0)};  // % 4 == 0
  std::vector<Rec> missing = {range[1], range[2], range[3]};
  Case("read-your-writes / own entry missing",
       CheckOwnedRange(range, 100, 107, 0, 4, owned),
       CheckOwnedRange(missing, 100, 107, 0, 4, owned));

  // Recovery: an acknowledged update missing from the recovered scan.
  std::vector<Rec> model;
  for (int64_t i = 0; i < 100; ++i) model.push_back(MakeRec(i, i * 3, 0));
  std::vector<Rec> lost(model.begin(), model.end() - 1);
  Case("recovery / acknowledged update missing",
       CheckRecoveredScan(model, model), CheckRecoveredScan(lost, model));
}

// BENCHMARK.json must declare exactly the metrics ccbench prints.
void DeclarationCases(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  Expect(!json.empty(), "BENCHMARK.json readable at " + path);
  auto section = [&](const std::string& key) {
    size_t at = json.find("\"" + key + "\"");
    if (at == std::string::npos) return std::string();
    size_t open = json.find('[', at), close = json.find(']', open);
    return json.substr(open, close - open);
  };
  auto declared = [](const std::string& text) {
    std::map<std::string, std::string> out;  // name -> unit
    size_t at = 0;
    while ((at = text.find("\"name\"", at)) != std::string::npos) {
      size_t q1 = text.find('"', text.find(':', at) + 1);
      size_t q2 = text.find('"', q1 + 1);
      std::string name = text.substr(q1 + 1, q2 - q1 - 1);
      size_t u = text.find("\"unit\"", q2);
      size_t u1 = text.find('"', text.find(':', u) + 1);
      size_t u2 = text.find('"', u1 + 1);
      out[name] = text.substr(u1 + 1, u2 - u1 - 1);
      at = u2;
    }
    return out;
  };
  auto compare = [&](const std::string& key,
                     const std::vector<MetricName>& printed) {
    std::map<std::string, std::string> want = declared(section(key));
    std::map<std::string, std::string> got;
    for (const MetricName& m : printed) got[m.name] = m.unit;
    Expect(want == got, key + ": BENCHMARK.json matches the printed metrics (" +
                            std::to_string(want.size()) + " declared, " +
                            std::to_string(got.size()) + " printed)");
  };
  compare("end_to_end", EndToEndMetrics());
  compare("per_layer", PerLayerMetrics());
}

}  // namespace
}  // namespace ccbench

int main(int argc, char** argv) {
  ccbench::CheckerCases();
  if (argc > 1) ccbench::DeclarationCases(argv[1]);
  std::printf("%s\n", ccbench::g_failures == 0 ? "selftest: all cases pass"
                                               : "selftest: FAILED");
  return ccbench::g_failures == 0 ? 0 : 1;
}
