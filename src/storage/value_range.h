// ValueRange: the normalized form of a simple column predicate — an optional
// lower and upper bound. Equality is [v, v]; one-sided comparisons leave one
// bound open.
#ifndef HSDB_STORAGE_VALUE_RANGE_H_
#define HSDB_STORAGE_VALUE_RANGE_H_

#include <optional>
#include <string>

#include "common/value.h"

namespace hsdb {

/// A (possibly half-open) interval of column values.
struct ValueRange {
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  static ValueRange Eq(Value v) {
    ValueRange r;
    r.lo = v;
    r.hi = std::move(v);
    return r;
  }
  static ValueRange AtLeast(Value v) {
    ValueRange r;
    r.lo = std::move(v);
    return r;
  }
  static ValueRange Greater(Value v) {
    ValueRange r;
    r.lo = std::move(v);
    r.lo_inclusive = false;
    return r;
  }
  static ValueRange AtMost(Value v) {
    ValueRange r;
    r.hi = std::move(v);
    return r;
  }
  static ValueRange Less(Value v) {
    ValueRange r;
    r.hi = std::move(v);
    r.hi_inclusive = false;
    return r;
  }
  static ValueRange Between(Value lo, Value hi) {
    ValueRange r;
    r.lo = std::move(lo);
    r.hi = std::move(hi);
    return r;
  }

  /// True when the range is a single point (equality predicate).
  bool IsPoint() const {
    return lo.has_value() && hi.has_value() && lo_inclusive && hi_inclusive &&
           *lo == *hi;
  }

  /// Narrows this range to its intersection with `o`, whose bounds must be
  /// comparable with this range's. The tighter bound wins; on equal bound
  /// values the exclusive one does. The result may be empty (lo above hi).
  void IntersectWith(const ValueRange& o) {
    if (o.lo.has_value()) {
      const int c = lo.has_value() ? o.lo->Compare(*lo) : 1;
      if (c > 0 || (c == 0 && !o.lo_inclusive)) {
        lo = o.lo;
        lo_inclusive = o.lo_inclusive;
      }
    }
    if (o.hi.has_value()) {
      const int c = hi.has_value() ? o.hi->Compare(*hi) : -1;
      if (c < 0 || (c == 0 && !o.hi_inclusive)) {
        hi = o.hi;
        hi_inclusive = o.hi_inclusive;
      }
    }
  }

  bool Contains(const Value& v) const {
    if (lo.has_value()) {
      int c = v.Compare(*lo);
      if (c < 0 || (c == 0 && !lo_inclusive)) return false;
    }
    if (hi.has_value()) {
      int c = v.Compare(*hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) return false;
    }
    return true;
  }

  std::string ToString() const {
    std::string out = lo_inclusive ? "[" : "(";
    out += lo.has_value() ? lo->ToString() : "-inf";
    out += ", ";
    out += hi.has_value() ? hi->ToString() : "+inf";
    out += hi_inclusive ? "]" : ")";
    return out;
  }
};

}  // namespace hsdb

#endif  // HSDB_STORAGE_VALUE_RANGE_H_
