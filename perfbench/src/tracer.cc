#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
thread_local ThreadLog* tl_log = nullptr;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::Name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

ThreadLog& Tracer::Local() {
  if (tl_log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    logs_.back()->thread = static_cast<std::uint32_t>(logs_.size() - 1);
    logs_.back()->spans.reserve(1 << 16);
    tl_log = logs_.back().get();
  }
  return *tl_log;
}

std::int32_t Tracer::Open(std::uint32_t name) {
  if (!enabled_.load(std::memory_order_relaxed)) return -1;
  ThreadLog& log = Local();
  Span span;
  span.name = name;
  span.parent = log.open.empty() ? -1 : log.open.back();
  span.run = run_.load(std::memory_order_relaxed);
  const auto index = static_cast<std::int32_t>(log.spans.size());
  log.open.push_back(index);
  span.start = NowNs();
  log.spans.push_back(span);
  return index;
}

void Tracer::Close(std::int32_t index) {
  if (index < 0) return;
  const Nanos end = NowNs();
  ThreadLog& log = Local();
  log.spans[static_cast<std::size_t>(index)].end = end;
  log.open.pop_back();
}

LayerTable Tracer::Aggregate(const std::vector<std::uint32_t>& runs) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto wanted = [&runs](std::uint32_t run) {
    return std::find(runs.begin(), runs.end(), run) != runs.end();
  };
  LayerTable table;
  for (const auto& log : logs_) {
    std::vector<Nanos> child(log->spans.size(), 0);
    for (const Span& span : log->spans) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      if (!wanted(span.run)) continue;
      const std::string& name = names_[span.name];
      const Nanos duration = span.end - span.start;
      table.self[name] += duration - child[i];
      table.total[name] += duration;
      table.durations[name].push_back(duration);
    }
  }
  return table;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::map<std::uint32_t, std::string>& runs,
                       const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\",\n\"names\": [", workload.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(out, "],\n\"runs\": {");
  bool first = true;
  for (const auto& [id, what] : runs) {
    std::fprintf(out, "%s\"%u\": \"%s\"", first ? "" : ", ", id, what.c_str());
    first = false;
  }
  std::fprintf(out,
               "},\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", "
               "\"parent\", \"run\", \"thread\"],\n\"spans\": [");
  first = true;
  for (const auto& log : logs_) {
    for (const Span& span : log->spans) {
      std::fprintf(out, "%s\n[%u, %lld, %lld, %d, %u, %u]", first ? "" : ",",
                   span.name, static_cast<long long>(span.start),
                   static_cast<long long>(span.end), span.parent, span.run,
                   log->thread);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
