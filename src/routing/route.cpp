#include "routing/route.hpp"

#include <sstream>
#include <stdexcept>

namespace f2t::routing {

const char* route_source_name(RouteSource source) {
  switch (source) {
    case RouteSource::kConnected: return "connected";
    case RouteSource::kStatic: return "static";
    case RouteSource::kOspf: return "ospf";
  }
  return "?";
}

const NextHop& NextHopGroup::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("NextHopGroup::at");
  return hops_[i];
}

std::string Route::describe() const {
  std::ostringstream os;
  os << prefix.str() << " [" << route_source_name(source) << "] via";
  for (const auto& nh : next_hops) {
    os << " port" << nh.port << "(" << nh.via.str() << ")";
  }
  return os.str();
}

}  // namespace f2t::routing
