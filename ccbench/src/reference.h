// Reference answers, computed by the benchmark from its own copy of the
// inputs and never by the library: sorted arrays and brute-force filters
// for the static tables, ordered sets for the churned ones. Each reference
// offers the same three calls, so one checker serves every family:
//
//   uint64_t Count(q)               size of the true answer
//   void Collect(q, vector<Rec>*)   the true answer (any order)
//   bool Matches(q, rec)            rec is a stored record satisfying q
//
// Records are compared in their wire form: three 64-bit words, as the
// server sends them (Point {x,y,id}, BtEntry {key,value,aux}, Interval
// {lo,hi,id}); id-only answers (class and constraint queries) use {id,0,0}.

#ifndef CCBENCH_REFERENCE_H_
#define CCBENCH_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ccbench {

using Rec = std::array<uint64_t, 3>;
using Coord = int64_t;
inline constexpr Coord kMinCoord() { return std::numeric_limits<Coord>::min(); }

inline Rec MakeRec(int64_t a, int64_t b, uint64_t c) {
  return {static_cast<uint64_t>(a), static_cast<uint64_t>(b), c};
}
inline int64_t W0(const Rec& r) { return static_cast<int64_t>(r[0]); }
inline int64_t W1(const Rec& r) { return static_cast<int64_t>(r[1]); }

/// How an answer was materialized (mirrors serve::ResultMode).
enum class Mode : uint8_t { kRecords = 0, kCount = 1, kExists = 2, kLimit = 3 };

// ---------------------------------------------------------------------------
// Static references
// ---------------------------------------------------------------------------

/// Points with x <= y and y - x <= max_len (intervals mapped to points):
/// the diagonal-corner query {x <= a <= y} and interval stabbing.
class StabRef {
 public:
  /// `recs` are {x, y, id}; ids must be 0..n-1.
  explicit StabRef(std::vector<Rec> recs);
  uint64_t Count(Coord a) const;
  void Collect(Coord a, std::vector<Rec>* out) const;
  bool Matches(Coord a, const Rec& r) const;

 private:
  std::vector<Rec> by_x_;
  std::vector<Coord> xs_, ys_;  // sorted
  std::vector<Rec> by_id_;
  Coord max_len_ = 0;
};

struct ThreeSidedQ {
  Coord xlo, xhi, ylo;
};

/// Points anywhere; the 3-sided query {xlo <= x <= xhi, y >= ylo}.
class ThreeSidedRef {
 public:
  explicit ThreeSidedRef(std::vector<Rec> recs);  // {x, y, id}, ids 0..n-1
  uint64_t Count(const ThreeSidedQ& q) const;
  void Collect(const ThreeSidedQ& q, std::vector<Rec>* out) const;
  bool Matches(const ThreeSidedQ& q, const Rec& r) const;

 private:
  std::pair<size_t, size_t> Slice(const ThreeSidedQ& q) const;
  std::vector<Rec> by_x_;
  std::vector<Coord> xs_;
  std::vector<Rec> by_id_;
};

struct KeyRangeQ {
  int64_t lo, hi;
};

/// Distinct keys; the B+-tree range query lo <= key <= hi.
class KeyRangeRef {
 public:
  explicit KeyRangeRef(std::vector<Rec> recs);  // {key, value, aux}
  uint64_t Count(const KeyRangeQ& q) const;
  void Collect(const KeyRangeQ& q, std::vector<Rec>* out) const;
  bool Matches(const KeyRangeQ& q, const Rec& r) const;

 private:
  std::vector<Rec> sorted_;
  std::vector<int64_t> keys_;
};

struct IntersectQ {
  Coord a1, a2;
};

/// Generalized keys (the x-projection [lo, hi] of each constraint tuple,
/// hi - lo <= max_len); answers are tuple ids {id, 0, 0} whose projection
/// meets [a1, a2].
class IntersectRef {
 public:
  /// `spans` are {lo, hi, id}, ids 0..n-1.
  explicit IntersectRef(std::vector<Rec> spans);
  uint64_t Count(const IntersectQ& q) const;
  void Collect(const IntersectQ& q, std::vector<Rec>* out) const;
  bool Matches(const IntersectQ& q, const Rec& r) const;

 private:
  std::vector<Rec> by_lo_;
  std::vector<Coord> los_, his_;
  std::vector<Rec> by_id_;
  Coord max_len_ = 0;
};

/// A class forest given by parent links (parent < child, -1 = root).
struct Forest {
  std::vector<int32_t> parent;
  // Preorder numbering, computed by the benchmark itself.
  std::vector<uint32_t> pre, last;  // subtree of c = pre in [pre[c], last[c]]
  void Number();
  bool InSubtree(uint32_t root, uint32_t c) const {
    return pre[c] >= pre[root] && pre[c] <= last[root];
  }
};

struct ClassQ {
  uint32_t cls;
  Coord a1, a2;
};

/// Objects {id, class, attr}; the full-extent class query returns ids
/// {id, 0, 0} of objects in the subtree of `cls` with a1 <= attr <= a2.
class ClassRef {
 public:
  /// `objs` are {id, class, attr} with ids 0..n-1.
  ClassRef(const Forest* forest, std::vector<Rec> objs);
  uint64_t Count(const ClassQ& q) const;
  void Collect(const ClassQ& q, std::vector<Rec>* out) const;
  bool Matches(const ClassQ& q, const Rec& r) const;
  /// Full-extent size of a class.
  size_t ExtentSize(uint32_t cls) const { return extent_[cls].size(); }

 private:
  const Forest* forest_;
  std::vector<std::vector<std::pair<Coord, uint64_t>>> extent_;  // sorted
  std::vector<Rec> by_id_;
};

// ---------------------------------------------------------------------------
// Mutable model (dynamic-churn)
// ---------------------------------------------------------------------------

/// An ordered set of {x, y, id} records with bounded y - x: answers the
/// diagonal / stabbing query and (unbounded scans) the 3-sided query.
class PointModel {
 public:
  explicit PointModel(Coord max_len) : max_len_(max_len) {}
  void Insert(const Rec& r) { set_.insert(Key(r)); }
  bool Erase(const Rec& r) { return set_.erase(Key(r)) > 0; }
  bool Contains(const Rec& r) const { return set_.count(Key(r)) > 0; }

  // Stab: x <= a <= y.
  uint64_t Count(Coord a) const;
  void Collect(Coord a, std::vector<Rec>* out) const;
  bool Matches(Coord a, const Rec& r) const {
    return W0(r) <= a && W1(r) >= a && Contains(r);
  }
  // 3-sided.
  uint64_t Count(const ThreeSidedQ& q) const;
  void Collect(const ThreeSidedQ& q, std::vector<Rec>* out) const;
  bool Matches(const ThreeSidedQ& q, const Rec& r) const {
    return W0(r) >= q.xlo && W0(r) <= q.xhi && W1(r) >= q.ylo && Contains(r);
  }

 private:
  using K = std::tuple<Coord, Coord, uint64_t>;
  static K Key(const Rec& r) { return {W0(r), W1(r), r[2]}; }
  std::set<K> set_;
  Coord max_len_;
};

// ---------------------------------------------------------------------------
// Checkers
// ---------------------------------------------------------------------------

/// Checks one answer against the reference. `got` holds the returned
/// records (records / limit modes), `got_count` the count the program
/// reported (count / exists modes; size of `got` otherwise). Returns ""
/// when the answer is right, else what is wrong:
///   records: equal to the true answer as multisets;
///   count:   exact;  exists: 0/1 exact;
///   limit k: min(k, true count) distinct records, each in the answer.
template <typename Ref, typename Q>
std::string CheckAnswer(const Ref& ref, const Q& q, Mode mode, uint32_t k,
                        std::vector<Rec> got, uint64_t got_count) {
  switch (mode) {
    case Mode::kRecords: {
      std::vector<Rec> truth;
      ref.Collect(q, &truth);
      if (got.size() != truth.size()) {
        return "records: got " + std::to_string(got.size()) + ", want " +
               std::to_string(truth.size());
      }
      std::sort(got.begin(), got.end());
      std::sort(truth.begin(), truth.end());
      if (got != truth) return "records: multiset differs";
      return "";
    }
    case Mode::kCount: {
      uint64_t want = ref.Count(q);
      if (got_count != want) {
        return "count: got " + std::to_string(got_count) + ", want " +
               std::to_string(want);
      }
      return "";
    }
    case Mode::kExists: {
      uint64_t want = ref.Count(q) > 0 ? 1 : 0;
      if (got_count != want) return "exists: wrong bit";
      return "";
    }
    case Mode::kLimit: {
      uint64_t want = std::min<uint64_t>(k, ref.Count(q));
      if (got.size() != want) {
        return "limit: got " + std::to_string(got.size()) + ", want " +
               std::to_string(want);
      }
      for (const Rec& r : got) {
        if (!ref.Matches(q, r)) return "limit: record outside the answer";
      }
      std::sort(got.begin(), got.end());
      if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
        return "limit: duplicate record";
      }
      return "";
    }
  }
  return "unknown mode";
}

/// Checks a client's view of a key range in which it owns the keys with
/// key % owners == owner: the owned entries returned must equal `model`
/// (the client's acknowledged state) restricted to [lo, hi]; every other
/// returned entry must lie in the range.
std::string CheckOwnedRange(const std::vector<Rec>& got, int64_t lo,
                            int64_t hi, uint32_t owner, uint32_t owners,
                            const std::vector<Rec>& model_in_range);

/// Checks the full scan after recovery against the model of every
/// acknowledged update (plus the untouched bulk-loaded entries).
std::string CheckRecoveredScan(std::vector<Rec> scan, std::vector<Rec> model);

}  // namespace ccbench

#endif  // CCBENCH_REFERENCE_H_
