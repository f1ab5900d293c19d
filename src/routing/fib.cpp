#include "routing/fib.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace f2t::routing {

namespace {

using RouteIt = std::vector<Route>::iterator;

int distance(RouteSource source) { return static_cast<int>(source); }

std::uint64_t length_bit(std::size_t length) {
  return std::uint64_t{1} << length;
}

/// Entry order within one length: by address, then by administrative
/// distance, so the first entry at an address is the one forwarding uses.
template <typename Entry>
bool ordered_before(const Entry& e, std::uint32_t address,
                    RouteSource source) {
  return e.address != address ? e.address < address
                              : distance(e.source) < distance(source);
}

/// The first entry of one length's array not ordered before
/// (address, source): the entry itself, or where it would go.
template <typename Entries>
auto locate(Entries& entries, std::uint32_t address, RouteSource source) {
  return std::partition_point(
      entries.begin(), entries.end(),
      [&](const auto& e) { return ordered_before(e, address, source); });
}

template <typename Entries, typename It>
bool is_entry(const Entries& entries, It it, std::uint32_t address,
              RouteSource source) {
  return it != entries.end() && it->address == address &&
         it->source == source;
}

/// The slots one length's merge writes, and how many of them replace the
/// group of an entry the merge keeps.
struct MergeWrites {
  std::size_t writes = 0;
  std::size_t replaced = 0;
};

/// Walks one length's `entries` against the routes [first, last) of
/// `source` at that length, sorted by address, and calls
/// `out(address, source, hops)` for each entry of the merged array, in
/// order: other sources' entries as they are, and the routes in place of
/// `source`'s own. Of a prefix named twice only the last route counts.
/// A route that changes an installed entry's group replaces it in the
/// entry itself. Counts the slots the merge writes: new or changed
/// routes, plus entries of `source` that the routes drop. When all are
/// replacements, the walk has done the merge; otherwise the entries
/// still merge as before, since a replaced group now reads as unchanged.
template <typename Entries, typename Out>
MergeWrites merge_walk(Entries& entries, RouteSource source, RouteIt first,
                       RouteIt last, Out&& out) {
  MergeWrites count;
  auto e = entries.begin();
  // Passes the entries ordered before (address, source), or all that are
  // left: another source's are kept, `source`'s are dropped.
  const auto pass_before = [&](std::uint32_t address, bool to_end) {
    for (;
         e != entries.end() && (to_end || ordered_before(*e, address, source));
         ++e) {
      if (e->source == source) {
        ++count.writes;
      } else {
        out(e->address, e->source, e->next_hops);
      }
    }
  };
  for (RouteIt r = first; r != last; ++r) {
    const std::uint32_t address = r->prefix.address().value();
    if (std::next(r) != last &&
        std::next(r)->prefix.address().value() == address) {
      continue;  // a later route for this prefix wins
    }
    pass_before(address, false);
    const bool installed = is_entry(entries, e, address, source);
    if (installed) {
      if (!(e->next_hops == r->next_hops)) {
        ++count.writes;
        ++count.replaced;
        e->next_hops = r->next_hops;
      }
      out(address, source, e->next_hops);
      ++e;
    } else {
      ++count.writes;
      out(address, source, r->next_hops);
    }
  }
  pass_before(0, true);
  return count;
}

}  // namespace

void Fib::install(Route route) {
  if (route.next_hops.empty()) {
    throw std::invalid_argument("Fib::install: route without next hops: " +
                                route.prefix.str());
  }
  // No sort: a group's hops are in canonical order from construction,
  // which keeps ECMP hashing stable across runs.
  const auto length = static_cast<std::size_t>(route.prefix.length());
  const std::uint32_t address = route.prefix.address().value();
  Entries& entries = by_length_[length];
  const auto it = locate(entries, address, route.source);
  if (is_entry(entries, it, address, route.source)) {
    it->next_hops = std::move(route.next_hops);
  } else {
    entries.insert(it,
                   Entry{address, route.source, std::move(route.next_hops)});
    ++count_;
  }
  nonempty_lengths_ |= length_bit(length);
  note_writes(1);
}

void Fib::remove(const net::Prefix& prefix, RouteSource source) {
  const auto length = static_cast<std::size_t>(prefix.length());
  const std::uint32_t address = prefix.address().value();
  Entries& entries = by_length_[length];
  const auto it = locate(entries, address, source);
  if (!is_entry(entries, it, address, source)) return;
  entries.erase(it);
  --count_;
  if (entries.empty()) nonempty_lengths_ &= ~length_bit(length);
  note_writes(1);
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
  // Group the set by length, each length in address order. The sort is
  // stable, so the routes of a prefix named twice keep their order and
  // the merge takes the last, as sequential installs would.
  const auto by_length_then_address = [](const Route& a, const Route& b) {
    return std::pair(a.prefix.length(), a.prefix.address()) <
           std::pair(b.prefix.length(), b.prefix.address());
  };
  if (!std::is_sorted(routes.begin(), routes.end(), by_length_then_address)) {
    std::stable_sort(routes.begin(), routes.end(), by_length_then_address);
  }
  std::size_t touched = 0;
  RouteIt first = routes.begin();
  for (std::size_t length = 0; length < by_length_.size(); ++length) {
    const RouteIt last =
        std::find_if(first, routes.end(), [length](const Route& r) {
          return static_cast<std::size_t>(r.prefix.length()) != length;
        });
    touched += merge_length(length, source, first, last);
    first = last;
  }
  return touched;
}

std::size_t Fib::merge_length(std::size_t length, RouteSource source,
                              RouteIt first, RouteIt last) {
  Entries& entries = by_length_[length];
  // The first walk counts the writes and replaces changed groups in
  // place, so a length that keeps every entry is done after it (and one
  // whose slots all stay is left alone); one that adds or drops an entry
  // is rebuilt.
  std::size_t size = 0;
  const MergeWrites count = merge_walk(
      entries, source, first, last,
      [&size](std::uint32_t, RouteSource, NextHopGroup&) { ++size; });
  if (count.writes == count.replaced) {
    note_writes(count.writes);
    return count.writes;
  }
  Entries merged;
  merged.reserve(size);
  merge_walk(entries, source, first, last,
             [&merged](std::uint32_t address, RouteSource s,
                       NextHopGroup& hops) {
               merged.push_back(Entry{address, s, std::move(hops)});
             });
  count_ = count_ - entries.size() + merged.size();
  entries = std::move(merged);
  if (entries.empty()) {
    nonempty_lengths_ &= ~length_bit(length);
  } else {
    nonempty_lengths_ |= length_bit(length);
  }
  note_writes(count.writes);
  return count.writes;
}

void Fib::note_writes(std::size_t slots) {
  generation_ += slots;
  for (std::size_t i = 0; i < slots; ++i) {
    for (const auto& hook : change_hooks_) hook();
  }
}

void Fib::lookup_walk(net::Ipv4Addr dst, PortStateView ports, HopVec& out,
                      RouteSource* source_out) const {
  std::uint64_t lengths = nonempty_lengths_;
  while (lengths != 0) {
    // Highest set bit = longest populated prefix length still unvisited.
    const int length = 63 - std::countl_zero(lengths);
    lengths &= ~(std::uint64_t{1} << length);
    const Entries& entries = by_length_[static_cast<std::size_t>(length)];
    const std::uint32_t mask =
        length == 0 ? 0u : (~std::uint32_t{0} << (32 - length));
    const std::uint32_t key = dst.value() & mask;
    // The first entry at an address is its best source.
    const auto it =
        std::partition_point(entries.begin(), entries.end(),
                             [key](const Entry& e) { return e.address < key; });
    if (it == entries.end() || it->address != key) continue;
    for (const NextHop& nh : it->next_hops) {
      if (ports(nh.port)) out.push_back(nh);
    }
    if (!out.empty()) {
      if (source_out != nullptr) *source_out = it->source;
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
  const std::uint32_t address = prefix.address().value();
  const Entries& entries =
      by_length_[static_cast<std::size_t>(prefix.length())];
  const auto it = locate(entries, address, source);
  if (!is_entry(entries, it, address, source)) return std::nullopt;
  return Route{prefix, it->next_hops, source};
}

std::vector<Route> Fib::dump() const {
  std::vector<Route> out;
  out.reserve(count_);
  for (std::size_t length = 0; length < by_length_.size(); ++length) {
    for (const Entry& e : by_length_[length]) {
      out.push_back(Route{net::Prefix(net::Ipv4Addr(e.address),
                                      static_cast<int>(length)),
                          e.next_hops, e.source});
    }
  }
  std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return distance(a.source) < distance(b.source);
  });
  return out;
}

}  // namespace f2t::routing
