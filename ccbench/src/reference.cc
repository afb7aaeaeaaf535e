#include "reference.h"

namespace ccbench {

namespace {

std::vector<Rec> IndexById(const std::vector<Rec>& recs, size_t id_word) {
  std::vector<Rec> by_id(recs.size());
  for (const Rec& r : recs) by_id.at(r[id_word]) = r;
  return by_id;
}

bool SameAt(const std::vector<Rec>& by_id, const Rec& r, size_t id_word) {
  return r[id_word] < by_id.size() && by_id[r[id_word]] == r;
}

bool LessByX(const Rec& a, const Rec& b) {
  return std::make_tuple(W0(a), W1(a), a[2]) <
         std::make_tuple(W0(b), W1(b), b[2]);
}

}  // namespace

// --- StabRef ---------------------------------------------------------------

StabRef::StabRef(std::vector<Rec> recs) : by_x_(std::move(recs)) {
  std::sort(by_x_.begin(), by_x_.end(), LessByX);
  for (const Rec& r : by_x_) {
    xs_.push_back(W0(r));
    ys_.push_back(W1(r));
    max_len_ = std::max(max_len_, W1(r) - W0(r));
  }
  std::sort(ys_.begin(), ys_.end());
  by_id_ = IndexById(by_x_, 2);
}

uint64_t StabRef::Count(Coord a) const {
  // Every point with y < a also has x <= y < a, so the answer is
  // #(x <= a) - #(y < a).
  size_t x_le = std::upper_bound(xs_.begin(), xs_.end(), a) - xs_.begin();
  size_t y_lt = std::lower_bound(ys_.begin(), ys_.end(), a) - ys_.begin();
  return x_le - y_lt;
}

void StabRef::Collect(Coord a, std::vector<Rec>* out) const {
  size_t i = std::lower_bound(xs_.begin(), xs_.end(), a - max_len_) -
             xs_.begin();
  for (; i < by_x_.size() && xs_[i] <= a; ++i) {
    if (W1(by_x_[i]) >= a) out->push_back(by_x_[i]);
  }
}

bool StabRef::Matches(Coord a, const Rec& r) const {
  return SameAt(by_id_, r, 2) && W0(r) <= a && W1(r) >= a;
}

// --- ThreeSidedRef ---------------------------------------------------------

ThreeSidedRef::ThreeSidedRef(std::vector<Rec> recs) : by_x_(std::move(recs)) {
  std::sort(by_x_.begin(), by_x_.end(), LessByX);
  for (const Rec& r : by_x_) xs_.push_back(W0(r));
  by_id_ = IndexById(by_x_, 2);
}

std::pair<size_t, size_t> ThreeSidedRef::Slice(const ThreeSidedQ& q) const {
  size_t a = std::lower_bound(xs_.begin(), xs_.end(), q.xlo) - xs_.begin();
  size_t b = std::upper_bound(xs_.begin(), xs_.end(), q.xhi) - xs_.begin();
  return {a, std::max(a, b)};
}

uint64_t ThreeSidedRef::Count(const ThreeSidedQ& q) const {
  auto [a, b] = Slice(q);
  uint64_t n = 0;
  for (size_t i = a; i < b; ++i) n += W1(by_x_[i]) >= q.ylo;
  return n;
}

void ThreeSidedRef::Collect(const ThreeSidedQ& q,
                            std::vector<Rec>* out) const {
  auto [a, b] = Slice(q);
  for (size_t i = a; i < b; ++i) {
    if (W1(by_x_[i]) >= q.ylo) out->push_back(by_x_[i]);
  }
}

bool ThreeSidedRef::Matches(const ThreeSidedQ& q, const Rec& r) const {
  return SameAt(by_id_, r, 2) && W0(r) >= q.xlo && W0(r) <= q.xhi &&
         W1(r) >= q.ylo;
}

// --- KeyRangeRef -----------------------------------------------------------

KeyRangeRef::KeyRangeRef(std::vector<Rec> recs) : sorted_(std::move(recs)) {
  std::sort(sorted_.begin(), sorted_.end(), LessByX);
  for (const Rec& r : sorted_) keys_.push_back(W0(r));
}

uint64_t KeyRangeRef::Count(const KeyRangeQ& q) const {
  if (q.hi < q.lo) return 0;
  return std::upper_bound(keys_.begin(), keys_.end(), q.hi) -
         std::lower_bound(keys_.begin(), keys_.end(), q.lo);
}

void KeyRangeRef::Collect(const KeyRangeQ& q, std::vector<Rec>* out) const {
  size_t i = std::lower_bound(keys_.begin(), keys_.end(), q.lo) -
             keys_.begin();
  for (; i < sorted_.size() && keys_[i] <= q.hi; ++i) {
    out->push_back(sorted_[i]);
  }
}

bool KeyRangeRef::Matches(const KeyRangeQ& q, const Rec& r) const {
  if (W0(r) < q.lo || W0(r) > q.hi) return false;
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), r, LessByX);
  return it != sorted_.end() && *it == r;
}

// --- IntersectRef ----------------------------------------------------------

IntersectRef::IntersectRef(std::vector<Rec> spans) : by_lo_(std::move(spans)) {
  std::sort(by_lo_.begin(), by_lo_.end(), LessByX);
  for (const Rec& r : by_lo_) {
    los_.push_back(W0(r));
    his_.push_back(W1(r));
    max_len_ = std::max(max_len_, W1(r) - W0(r));
  }
  std::sort(his_.begin(), his_.end());
  by_id_ = IndexById(by_lo_, 2);
}

uint64_t IntersectRef::Count(const IntersectQ& q) const {
  size_t hi_lt = std::lower_bound(his_.begin(), his_.end(), q.a1) -
                 his_.begin();
  size_t lo_gt = los_.end() - std::upper_bound(los_.begin(), los_.end(), q.a2);
  return los_.size() - hi_lt - lo_gt;
}

void IntersectRef::Collect(const IntersectQ& q, std::vector<Rec>* out) const {
  size_t i = std::lower_bound(los_.begin(), los_.end(), q.a1 - max_len_) -
             los_.begin();
  for (; i < by_lo_.size() && los_[i] <= q.a2; ++i) {
    if (W1(by_lo_[i]) >= q.a1) out->push_back({by_lo_[i][2], 0, 0});
  }
}

bool IntersectRef::Matches(const IntersectQ& q, const Rec& r) const {
  if (r[1] != 0 || r[2] != 0 || r[0] >= by_id_.size()) return false;
  const Rec& s = by_id_[r[0]];
  return W0(s) <= q.a2 && W1(s) >= q.a1;
}

// --- Forest / ClassRef -----------------------------------------------------

void Forest::Number() {
  const size_t c = parent.size();
  std::vector<std::vector<uint32_t>> kids(c);
  std::vector<uint32_t> roots;
  for (size_t i = 0; i < c; ++i) {
    if (parent[i] < 0) {
      roots.push_back(static_cast<uint32_t>(i));
    } else {
      kids[parent[i]].push_back(static_cast<uint32_t>(i));
    }
  }
  pre.assign(c, 0);
  last.assign(c, 0);
  uint32_t next = 0;
  // Iterative DFS: (node, child cursor).
  std::vector<std::pair<uint32_t, size_t>> stack;
  for (uint32_t r : roots) {
    stack.push_back({r, 0});
    pre[r] = next++;
    while (!stack.empty()) {
      auto& [node, cur] = stack.back();
      if (cur < kids[node].size()) {
        uint32_t k = kids[node][cur++];
        pre[k] = next++;
        stack.push_back({k, 0});
      } else {
        last[node] = next - 1;
        stack.pop_back();
      }
    }
  }
}

ClassRef::ClassRef(const Forest* forest, std::vector<Rec> objs)
    : forest_(forest), extent_(forest->parent.size()) {
  by_id_ = IndexById(objs, 0);
  for (const Rec& o : objs) {
    // The object lies in the full extent of its class and every ancestor.
    for (int64_t c = static_cast<int64_t>(o[1]); c >= 0;
         c = forest->parent[c]) {
      extent_[c].emplace_back(static_cast<Coord>(o[2]), o[0]);
    }
  }
  for (auto& e : extent_) std::sort(e.begin(), e.end());
}

uint64_t ClassRef::Count(const ClassQ& q) const {
  const auto& e = extent_[q.cls];
  auto a = std::lower_bound(e.begin(), e.end(), std::make_pair(q.a1, uint64_t{0}));
  auto b = std::upper_bound(e.begin(), e.end(),
                            std::make_pair(q.a2, ~uint64_t{0}));
  return b > a ? b - a : 0;
}

void ClassRef::Collect(const ClassQ& q, std::vector<Rec>* out) const {
  const auto& e = extent_[q.cls];
  auto a = std::lower_bound(e.begin(), e.end(), std::make_pair(q.a1, uint64_t{0}));
  for (; a != e.end() && a->first <= q.a2; ++a) {
    out->push_back({a->second, 0, 0});
  }
}

bool ClassRef::Matches(const ClassQ& q, const Rec& r) const {
  if (r[1] != 0 || r[2] != 0 || r[0] >= by_id_.size()) return false;
  const Rec& o = by_id_[r[0]];
  const Coord attr = static_cast<Coord>(o[2]);
  return forest_->InSubtree(q.cls, static_cast<uint32_t>(o[1])) &&
         attr >= q.a1 && attr <= q.a2;
}

// --- PointModel ------------------------------------------------------------

uint64_t PointModel::Count(Coord a) const {
  uint64_t n = 0;
  auto it = set_.lower_bound({a - max_len_, kMinCoord(), 0});
  for (; it != set_.end() && std::get<0>(*it) <= a; ++it) {
    n += std::get<1>(*it) >= a;
  }
  return n;
}

void PointModel::Collect(Coord a, std::vector<Rec>* out) const {
  auto it = set_.lower_bound({a - max_len_, kMinCoord(), 0});
  for (; it != set_.end() && std::get<0>(*it) <= a; ++it) {
    if (std::get<1>(*it) >= a) {
      out->push_back(MakeRec(std::get<0>(*it), std::get<1>(*it),
                             std::get<2>(*it)));
    }
  }
}

uint64_t PointModel::Count(const ThreeSidedQ& q) const {
  uint64_t n = 0;
  auto it = set_.lower_bound({q.xlo, kMinCoord(), 0});
  for (; it != set_.end() && std::get<0>(*it) <= q.xhi; ++it) {
    n += std::get<1>(*it) >= q.ylo;
  }
  return n;
}

void PointModel::Collect(const ThreeSidedQ& q, std::vector<Rec>* out) const {
  auto it = set_.lower_bound({q.xlo, kMinCoord(), 0});
  for (; it != set_.end() && std::get<0>(*it) <= q.xhi; ++it) {
    if (std::get<1>(*it) >= q.ylo) {
      out->push_back(MakeRec(std::get<0>(*it), std::get<1>(*it),
                             std::get<2>(*it)));
    }
  }
}

// --- Checkers --------------------------------------------------------------

std::string CheckOwnedRange(const std::vector<Rec>& got, int64_t lo,
                            int64_t hi, uint32_t owner, uint32_t owners,
                            const std::vector<Rec>& model_in_range) {
  std::vector<Rec> mine;
  for (const Rec& r : got) {
    if (W0(r) < lo || W0(r) > hi) return "range: entry outside [lo, hi]";
    if (static_cast<uint64_t>(W0(r)) % owners == owner) mine.push_back(r);
  }
  std::vector<Rec> want = model_in_range;
  std::sort(mine.begin(), mine.end());
  std::sort(want.begin(), want.end());
  if (mine.size() != want.size()) {
    return "read-your-writes: got " + std::to_string(mine.size()) +
           " own entries, want " + std::to_string(want.size());
  }
  if (mine != want) return "read-your-writes: own entries differ";
  return "";
}

std::string CheckRecoveredScan(std::vector<Rec> scan, std::vector<Rec> model) {
  std::sort(scan.begin(), scan.end());
  std::sort(model.begin(), model.end());
  if (scan.size() != model.size()) {
    return "recovery: scan has " + std::to_string(scan.size()) +
           " entries, model " + std::to_string(model.size());
  }
  if (scan != model) return "recovery: scan differs from the model";
  return "";
}

}  // namespace ccbench
