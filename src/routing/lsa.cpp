#include "routing/lsa.hpp"

#include <sstream>

namespace f2t::routing {

std::string Lsa::describe() const {
  std::ostringstream os;
  os << "LSA[" << origin.str() << " seq=" << sequence << " links={";
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0) os << ",";
    os << links[i].str();
  }
  os << "} prefixes={";
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    if (i > 0) os << ",";
    os << prefixes[i].str();
  }
  os << "}]";
  return os.str();
}

}  // namespace f2t::routing
