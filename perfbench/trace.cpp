#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  if (!t_.on_) return;
  Span s;
  s.name = name;
  s.id = t_.next_id_++;
  s.parent = t_.open_.empty() ? -1 : t_.spans_[t_.open_.back()].id;
  s.pid = static_cast<int>(::getpid());
  s.start_ns = now_ns();
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(std::move(s));
  t_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_.spans_[index_].end_ns = now_ns();
  t_.open_.pop_back();
}

void Tracer::adopt(std::vector<Span> spans) {
  for (Span& s : spans) spans_.push_back(std::move(s));
}

std::string Tracer::chrome_json(const std::string& metadata) const {
  std::ostringstream out;
  out << "{\"otherData\":" << metadata << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}",
                  first ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.pid,
                  s.pid, s.id, s.parent);
    out << buf;
    first = false;
  }
  out << "]}\n";
  return out.str();
}

std::vector<Tracer::Row> Tracer::table() const {
  // Child spans nest inside their parent and run one after another, so the
  // covered part of a parent is the sum of its children's durations.
  std::map<std::pair<int, int>, std::int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[{s.pid, s.parent}] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    r.name = s.name;
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find({s.pid, s.id});
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    ++r.calls;
    r.total_s += static_cast<double>(dur) / 1e9;
    r.self_s += static_cast<double>(dur - covered) / 1e9;
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  return out;
}

std::string span_line(const Span& s) {
  return "span " + std::to_string(s.id) + " " + std::to_string(s.parent) + " " +
         std::to_string(s.start_ns) + " " + std::to_string(s.end_ns) + " " +
         s.name;
}

bool parse_span_line(const std::string& line, int pid, Span& out) {
  std::istringstream in(line);
  std::string tag;
  out = Span{};
  out.pid = pid;
  return static_cast<bool>(in >> tag >> out.id >> out.parent >> out.start_ns >>
                           out.end_ns >> out.name) &&
         tag == "span";
}

}  // namespace perfbench
