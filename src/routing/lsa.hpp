#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"

namespace f2t::routing {

/// Router link-state advertisement (the model's equivalent of an OSPF
/// router-LSA plus redistributed prefixes).
///
/// `links` lists the router ids of the neighbors the origin currently
/// believes up; every link costs the same, as every fabric link does in
/// the paper's OSPF model. `prefixes` carries subnets the origin
/// redistributes (a ToR advertises its rack's /24, per the production
/// addressing scheme in Fig 3(d)).
struct Lsa final : net::ControlPayload {
  net::Ipv4Addr origin;    ///< originating router id
  std::uint64_t sequence = 0;
  std::vector<net::Ipv4Addr> links;
  std::vector<net::Prefix> prefixes;

  /// Approximate wire size used for transmission timing: 12 bytes per
  /// link, the size of an OSPF router-LSA link entry.
  std::uint32_t wire_size() const {
    return 64 + 12 * static_cast<std::uint32_t>(links.size()) +
           8 * static_cast<std::uint32_t>(prefixes.size());
  }

  std::string describe() const;
};

using LsaPtr = std::shared_ptr<const Lsa>;

}  // namespace f2t::routing
