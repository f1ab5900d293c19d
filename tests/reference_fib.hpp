#pragma once

#include <vector>

#include "routing/fib.hpp"

namespace f2t::routing {

/// The usable next hops `fib.lookup_into` resolves for `dst`.
inline std::vector<NextHop> lookup(const Fib& fib, net::Ipv4Addr dst,
                                   Fib::PortStateView up) {
  Fib::HopVec hops;
  fib.lookup_into(dst, up, hops);
  return {hops.begin(), hops.end()};
}

/// Reference model: a plain list of routes searched linearly. Ground
/// truth for the FIB's sorted-array-per-length + fallthrough
/// implementation.
class ReferenceFib {
 public:
  void install(const Route& route) {
    for (auto& r : routes_) {
      if (r.prefix == route.prefix && r.source == route.source) {
        r = route;
        return;
      }
    }
    routes_.push_back(route);
  }

  void remove(const net::Prefix& prefix, RouteSource source) {
    std::erase_if(routes_, [&](const Route& r) {
      return r.prefix == prefix && r.source == source;
    });
  }

  std::vector<NextHop> lookup(net::Ipv4Addr dst,
                              Fib::PortStateView up) const {
    for (int length = 32; length >= 0; --length) {
      // Best source for this prefix length that contains dst.
      const Route* best = nullptr;
      for (const Route& r : routes_) {
        if (r.prefix.length() != length || !r.prefix.contains(dst)) continue;
        if (best == nullptr || static_cast<int>(r.source) <
                                   static_cast<int>(best->source)) {
          best = &r;
        }
      }
      if (best == nullptr) continue;
      std::vector<NextHop> usable;
      for (const NextHop& nh : best->next_hops) {
        if (up(nh.port)) usable.push_back(nh);
      }
      if (!usable.empty()) return usable;
    }
    return {};
  }

 private:
  std::vector<Route> routes_;
};

}  // namespace f2t::routing
