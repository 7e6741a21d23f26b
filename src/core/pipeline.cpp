#include "core/pipeline.hpp"

namespace ppa::pipeline::detail {

std::string node_label(std::size_t index, std::size_t n_nodes, bool is_farm,
                       bool is_ordered) {
  if (index == 0) return "source";
  if (index + 1 == n_nodes) return "sink";
  if (is_farm) {
    return "farm#" + std::to_string(index) +
           (is_ordered ? " (ordered)" : " (unordered)");
  }
  return "stage#" + std::to_string(index);
}

}  // namespace ppa::pipeline::detail
