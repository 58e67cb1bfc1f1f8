#include "spans.h"

#include <fstream>

namespace perfbench {

int Tracer::Open(const char* layer, const char* name) {
  if (open_.empty()) {
    ++step_;
  }
  SpanRecord rec;
  rec.layer = layer;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.step = step_;
  rec.start_ns = NowNs();
  spans_.push_back(rec);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index, uint64_t units) {
  SpanRecord& rec = spans_[static_cast<size_t>(index)];
  rec.end_ns = NowNs();
  rec.units = units == 0 ? 1 : units;
  // Spans close in LIFO order on the one benchmark thread.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::map<std::string, int64_t> Tracer::SelfNsByLayer(uint32_t first_step,
                                                     uint32_t last_step) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& rec : spans_) {
    if (rec.parent >= 0) {
      child_ns[static_cast<size_t>(rec.parent)] += rec.duration_ns();
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& rec = spans_[i];
    if (rec.step >= first_step && rec.step <= last_step) {
      self[rec.layer] += rec.duration_ns() - child_ns[i];
    }
  }
  return self;
}

int64_t Tracer::RootNs(uint32_t first_step, uint32_t last_step) const {
  int64_t total = 0;
  for (const SpanRecord& rec : spans_) {
    if (rec.parent < 0 && rec.step >= first_step && rec.step <= last_step) {
      total += rec.duration_ns();
    }
  }
  return total;
}

std::vector<double> Tracer::UnitMicros(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& rec : spans_) {
    if (name == rec.name) {
      out.push_back(static_cast<double>(rec.duration_ns()) * 1e-3 /
                    static_cast<double>(rec.units));
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  os << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& rec = spans_[i];
    os << (i > 0 ? ",\n" : "") << "{\"id\":" << i << ",\"layer\":\"" << rec.layer
       << "\",\"name\":\"" << rec.name << "\",\"start_ns\":" << rec.start_ns
       << ",\"end_ns\":" << rec.end_ns << ",\"parent\":" << rec.parent
       << ",\"step\":" << rec.step << ",\"units\":" << rec.units << "}";
  }
  os << "\n]\n";
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench
