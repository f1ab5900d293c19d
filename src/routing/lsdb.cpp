#include "routing/lsdb.hpp"

#include <stdexcept>

namespace f2t::routing {

bool Lsdb::consider(LsaPtr lsa) {
  if (!lsa) throw std::invalid_argument("Lsdb::consider: null LSA");
  auto [it, inserted] = by_origin_.try_emplace(lsa->origin, lsa);
  if (!inserted) {
    if (lsa->sequence <= it->second->sequence) return false;
    it->second = std::move(lsa);
  }
  graph_.apply(it->second);
  return true;
}

const Lsa* Lsdb::find(net::Ipv4Addr origin) const {
  const auto it = by_origin_.find(origin);
  return it == by_origin_.end() ? nullptr : it->second.get();
}

std::uint64_t Lsdb::sequence_of(net::Ipv4Addr origin) const {
  const Lsa* lsa = find(origin);
  return lsa == nullptr ? 0 : lsa->sequence;
}

std::vector<LsaPtr> Lsdb::all() const {
  std::vector<LsaPtr> out;
  out.reserve(by_origin_.size());
  for (const auto& [origin, lsa] : by_origin_) out.push_back(lsa);
  return out;
}

}  // namespace f2t::routing
