#include "tracer.h"

#include <fstream>

namespace perfbench {

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent) {
  Span span;
  span.name = std::move(name);
  span.run_id = run_id_;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.calls = 1;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  Span& span = spans_[id - 1];
  span.end_ns = now_ns();
  span.busy_ns = span.end_ns - span.start_ns;
}

std::uint32_t Tracer::open_calls(std::string name, std::uint32_t parent) {
  const auto id = begin(std::move(name), parent);
  spans_[id - 1].calls = 0;
  return id;
}

std::uint32_t Tracer::add_derived(std::string name, std::uint32_t parent,
                                  std::int64_t busy_ns, std::uint64_t calls) {
  const auto id = begin(std::move(name), parent);
  Span& span = spans_[id - 1];
  span.end_ns = span.start_ns;
  span.busy_ns = busy_ns;
  span.calls = calls;
  span.derived = true;
  return id;
}

std::int64_t Tracer::self_ns(std::uint32_t id) const {
  std::int64_t self = busy_ns(id);
  for (const auto& span : spans_) {
    if (span.parent == id && !span.derived) self -= span.busy_ns;
  }
  return self;
}

std::int64_t Tracer::top_level_busy_ns(std::uint32_t run_id) const {
  std::int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.run_id == run_id && span.parent == 0 && !span.derived) {
      total += span.busy_ns;
    }
  }
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"run\":" << span.run_id
        << ",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"busy_ns\":" << span.busy_ns << ",\"self_ns\":"
        << self_ns(span.id) << ",\"calls\":" << span.calls
        << ",\"derived\":" << (span.derived ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
