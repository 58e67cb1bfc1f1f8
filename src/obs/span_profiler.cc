#include "src/obs/span_profiler.h"

namespace cki {

int SpanProfiler::InternPhase(std::string_view name) {
  auto it = phase_ids_.find(std::string(name));
  if (it != phase_ids_.end()) {
    return it->second;
  }
  int id = static_cast<int>(phase_names_.size());
  phase_names_.emplace_back(name);
  phase_ids_.emplace(phase_names_.back(), id);
  return id;
}

std::string_view SpanProfiler::PhaseName(int phase_id) const {
  if (phase_id < 0 || static_cast<size_t>(phase_id) >= phase_names_.size()) {
    return "unknown";
  }
  return phase_names_[static_cast<size_t>(phase_id)];
}

int SpanProfiler::BeginSpan(int phase_id, SimNanos now) {
  int parent = stack_.empty() ? -1 : stack_.back().node;
  auto [it, inserted] = edges_.try_emplace({parent, phase_id}, -1);
  if (inserted) {
    int node = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{.name = std::string(PhaseName(phase_id)), .parent = parent});
    it->second = node;
    if (parent < 0) {
      roots_.push_back(node);
    } else {
      nodes_[static_cast<size_t>(parent)].children.push_back(node);
    }
  }
  stack_.push_back(Frame{.node = it->second, .start = now});
  return it->second;
}

void SpanProfiler::EndSpan(SimNanos now) {
  if (stack_.empty()) {
    return;  // unbalanced end (e.g. observability enabled mid-span)
  }
  Frame frame = stack_.back();
  stack_.pop_back();
  SimNanos elapsed = now - frame.start;
  Node& node = nodes_[static_cast<size_t>(frame.node)];
  node.total += elapsed;
  node.self += elapsed - frame.child_ns;
  node.count++;
  if (!stack_.empty()) {
    stack_.back().child_ns += elapsed;
  }
}

SimNanos SpanProfiler::RootTotal() const {
  SimNanos total = 0;
  for (int root : roots_) {
    total += nodes_[static_cast<size_t>(root)].total;
  }
  return total;
}

int SpanProfiler::FindChild(int parent, std::string_view name) const {
  const std::vector<int>* candidates;
  if (parent < 0) {
    candidates = &roots_;
  } else {
    candidates = &nodes_[static_cast<size_t>(parent)].children;
  }
  for (int child : *candidates) {
    if (nodes_[static_cast<size_t>(child)].name == name) {
      return child;
    }
  }
  return -1;
}

void SpanProfiler::WriteNodeJson(std::ostream& os, int index) const {
  const Node& node = nodes_[static_cast<size_t>(index)];
  os << "{\"name\":\"" << node.name << "\",\"count\":" << node.count
     << ",\"total_ns\":" << node.total << ",\"self_ns\":" << node.self << ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteNodeJson(os, node.children[i]);
  }
  os << "]}";
}

void SpanProfiler::WriteJson(std::ostream& os) const {
  os << "[";
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteNodeJson(os, roots_[i]);
  }
  os << "]";
}

void SpanProfiler::Clear() {
  nodes_.clear();
  roots_.clear();
  edges_.clear();
  stack_.clear();
  phase_ids_.clear();
  phase_names_.clear();
}

}  // namespace cki
