#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "net/ipv4.hpp"

namespace f2t::routing {

/// Where a FIB entry came from. Doubles as administrative distance:
/// lower wins when two sources install the same prefix.
enum class RouteSource : int {
  kConnected = 0,  ///< directly attached host subnet / neighbor
  kStatic = 1,     ///< operator-configured (the F²Tree backup routes)
  kOspf = 110,     ///< computed by the link-state protocol
};

const char* route_source_name(RouteSource source);

/// One forwarding alternative: the local egress port plus the far-side
/// address (kept for diagnostics and route dumps, not for forwarding).
struct NextHop {
  net::PortId port = net::kInvalidPort;
  net::Ipv4Addr via;

  friend auto operator<=>(const NextHop&, const NextHop&) = default;
};

/// An ECMP next-hop set as an immutable shared value. The hops are put in
/// canonical (ascending) order once, at construction, so the FIB never
/// sorts; a copy shares the hop array, so a producer builds one group per
/// distinct set and every route with that set points at it. Iterating a
/// group is one indirection, as for a std::vector. Groups are equal when
/// they share the array or hold the same hops.
class NextHopGroup {
 public:
  NextHopGroup() = default;
  NextHopGroup(std::vector<NextHop> hops) : size_(hops.size()) {
    if (hops.empty()) return;
    std::sort(hops.begin(), hops.end());
    std::shared_ptr<NextHop[]> array = std::make_shared<NextHop[]>(size_);
    std::copy(hops.begin(), hops.end(), array.get());
    hops_ = std::move(array);
  }
  NextHopGroup(std::initializer_list<NextHop> hops)
      : NextHopGroup(std::vector<NextHop>(hops)) {}

  const NextHop* data() const { return hops_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NextHop* begin() const { return hops_.get(); }
  const NextHop* end() const { return hops_.get() + size_; }
  const NextHop& operator[](std::size_t i) const { return hops_[i]; }
  const NextHop& front() const { return hops_[0]; }
  const NextHop& at(std::size_t i) const;

  friend bool operator==(const NextHopGroup& a, const NextHopGroup& b) {
    return a.hops_ == b.hops_ ||
           std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const NextHopGroup& a, const NextHopGroup& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  std::shared_ptr<const NextHop[]> hops_;
  std::size_t size_ = 0;
};

/// One group per distinct hop set within one route computation. A
/// producer numbers its candidate hops and keys each set by the bitset
/// of its members; the group is built only the first time a key is seen.
class NextHopGroupMemo {
 public:
  /// Keys are bitsets of `words` 64-bit words.
  explicit NextHopGroupMemo(std::size_t words) : key_(words) {}

  /// The group for the bitset at `key`; `make()` returns its hops when
  /// the key is new.
  template <typename Make>
  const NextHopGroup& get(const std::uint64_t* key, Make&& make) {
    std::copy_n(key, key_.size(), key_.begin());
    auto it = groups_.find(key_);
    if (it == groups_.end()) {
      it = groups_.emplace(key_, NextHopGroup(make())).first;
    }
    return it->second;
  }

 private:
  std::vector<std::uint64_t> key_;  ///< reused lookup key
  std::map<std::vector<std::uint64_t>, NextHopGroup> groups_;
};

/// A route as installed into the FIB: a prefix and its ECMP next-hop set.
struct Route {
  net::Prefix prefix;
  NextHopGroup next_hops;
  RouteSource source = RouteSource::kOspf;

  std::string describe() const;

  /// Memberwise equality; `Fib::apply_source_delta` uses it to skip
  /// rewriting unchanged entries (a shared group compares by address).
  friend bool operator==(const Route&, const Route&) = default;
};

}  // namespace f2t::routing
