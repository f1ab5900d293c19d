#include "routing/fib.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace f2t::routing {

Route* Fib::Slot::find(RouteSource source) {
  for (Route& r : by_source) {
    if (r.source == source) return &r;
  }
  return nullptr;
}

void Fib::Slot::recompute_best() {
  best_idx = 0;
  for (std::size_t i = 1; i < by_source.size(); ++i) {
    if (static_cast<int>(by_source[i].source) <
        static_cast<int>(by_source[best_idx].source)) {
      best_idx = i;
    }
  }
}

void Fib::install(Route route) {
  if (route.next_hops.empty()) {
    throw std::invalid_argument("Fib::install: route without next hops: " +
                                route.prefix.str());
  }
  // No sort: a group's hops are in canonical order from construction,
  // which keeps ECMP hashing stable across runs.
  const auto length = static_cast<std::size_t>(route.prefix.length());
  Slot& slot = by_length_[length][route.prefix.address().value()];
  if (Route* existing = slot.find(route.source)) {
    *existing = std::move(route);
  } else {
    slot.by_source.push_back(std::move(route));
    slot.recompute_best();
    ++count_;
  }
  nonempty_lengths_ |= std::uint64_t{1} << length;
  ++generation_;
  notify_changed();
}

void Fib::remove(const net::Prefix& prefix, RouteSource source) {
  const auto length = static_cast<std::size_t>(prefix.length());
  auto& bucket = by_length_[length];
  auto it = bucket.find(prefix.address().value());
  if (it == bucket.end()) return;
  auto& routes = it->second.by_source;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].source == source) {
      routes.erase(routes.begin() + static_cast<std::ptrdiff_t>(i));
      it->second.recompute_best();
      --count_;
      ++generation_;
      notify_changed();
      break;
    }
  }
  if (routes.empty()) {
    bucket.erase(it);
    if (bucket.empty()) nonempty_lengths_ &= ~(std::uint64_t{1} << length);
  }
}

std::size_t Fib::apply_source_delta(RouteSource source,
                                    std::vector<Route> routes) {
  // Reject a bad set before the first write, so it changes nothing.
  for (const Route& r : routes) {
    if (r.next_hops.empty()) {
      throw std::invalid_argument(
          "Fib::apply_source_delta: route without next hops: " +
          r.prefix.str());
    }
  }
  std::size_t touched = 0;
  std::vector<net::Prefix> kept;
  kept.reserve(routes.size());
  for (Route& r : routes) {
    r.source = source;
    kept.push_back(r.prefix);
    const auto length = static_cast<std::size_t>(r.prefix.length());
    auto& bucket = by_length_[length];
    if (const auto it = bucket.find(r.prefix.address().value());
        it != bucket.end()) {
      if (const Route* existing = it->second.find(source);
          existing != nullptr && *existing == r) {
        continue;  // identical entry already installed: zero writes
      }
    }
    install(std::move(r));
    ++touched;
  }
  // Removal pass: entries of `source` whose prefix the new set dropped.
  std::sort(kept.begin(), kept.end());
  std::vector<net::Prefix> stale;
  for (const auto& bucket : by_length_) {
    for (const auto& [key, slot] : bucket) {
      for (const Route& r : slot.by_source) {
        if (r.source != source) continue;
        if (!std::binary_search(kept.begin(), kept.end(), r.prefix)) {
          stale.push_back(r.prefix);
        }
      }
    }
  }
  for (const net::Prefix& prefix : stale) {
    remove(prefix, source);
    ++touched;
  }
  return touched;
}

void Fib::lookup_walk(net::Ipv4Addr dst, PortStateView ports, HopVec& out,
                      RouteSource* source_out) const {
  std::uint64_t lengths = nonempty_lengths_;
  while (lengths != 0) {
    // Highest set bit = longest populated prefix length still unvisited.
    const int length = 63 - std::countl_zero(lengths);
    lengths &= ~(std::uint64_t{1} << length);
    const auto& bucket = by_length_[static_cast<std::size_t>(length)];
    const std::uint32_t mask =
        length == 0 ? 0u : (~std::uint32_t{0} << (32 - length));
    const auto it = bucket.find(dst.value() & mask);
    if (it == bucket.end()) continue;
    const Route* route = it->second.best();
    if (route == nullptr) continue;
    for (const NextHop& nh : route->next_hops) {
      if (ports(nh.port)) out.push_back(nh);
    }
    if (!out.empty()) {
      if (source_out != nullptr) *source_out = route->source;
      return;
    }
    // All next hops locally dead: fall through to the next-shorter prefix.
    // This single line is what makes the paper's pre-installed backup
    // statics take over instantly after failure detection.
  }
}

void Fib::lookup_into(net::Ipv4Addr dst, PortStateView ports,
                      HopVec& out) const {
  lookup_walk(dst, ports, out, nullptr);
}

void Fib::lookup_into(net::Ipv4Addr dst, PortStateView ports, HopVec& out,
                      RouteSource& source) const {
  lookup_walk(dst, ports, out, &source);
}

std::optional<Route> Fib::find(const net::Prefix& prefix,
                               RouteSource source) const {
  const auto& bucket = by_length_[static_cast<std::size_t>(prefix.length())];
  const auto it = bucket.find(prefix.address().value());
  if (it == bucket.end()) return std::nullopt;
  for (const Route& r : it->second.by_source) {
    if (r.source == source) return r;
  }
  return std::nullopt;
}

std::vector<Route> Fib::dump() const {
  std::vector<Route> out;
  out.reserve(count_);
  for (const auto& bucket : by_length_) {
    for (const auto& [key, slot] : bucket) {
      for (const Route& r : slot.by_source) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return static_cast<int>(a.source) < static_cast<int>(b.source);
  });
  return out;
}

}  // namespace f2t::routing
