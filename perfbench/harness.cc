#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<double> P90(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(0.9 * static_cast<double>(samples.size())));
  const double p90 = samples[rank - 1];
  const size_t beyond = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p90));
  if (beyond < kMinSamplesBeyondP90) return std::nullopt;
  return p90;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int Tracer::Begin(const std::string& name, int parent, int run) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.run = run;
  span.start_ms = MsSince(origin_);
  span.end_ms = -1;
  mcsm::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  const double now = MsSince(origin_);
  mcsm::MutexLock lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = now;
}

std::vector<Span> Tracer::spans() const {
  mcsm::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\": %s, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"parent\": %d, \"run\": %d}\n",
                 JsonString(s.name).c_str(), s.start_ms, s.end_ms, s.parent,
                 s.run);
  }
  return std::fclose(f) == 0;
}

std::string CheckNesting(const std::vector<Span>& spans) {
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ms < s.start_ms) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) is not closed", i,
                    s.name.c_str());
      return buf;
    }
    if (s.parent < 0) continue;
    if (static_cast<size_t>(s.parent) >= i) {
      std::snprintf(buf, sizeof(buf),
                    "span %zu (%s) names parent %d, not recorded before it", i,
                    s.name.c_str(), s.parent);
      return buf;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    if (s.start_ms < p.start_ms || s.end_ms > p.end_ms) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) ends outside parent %s",
                    i, s.name.c_str(), p.name.c_str());
      return buf;
    }
    if (s.run != p.run) {
      std::snprintf(buf, sizeof(buf), "span %zu (%s) has run %d, parent %d", i,
                    s.name.c_str(), s.run, p.run);
      return buf;
    }
  }
  return "";
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms,
                                                           s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_start = 0;
    double run_end = -1;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, spans[i].start_ms);
      end = std::min(end, spans[i].end_ms);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  const std::vector<double> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void MetricSet::AddRatio(const std::string& name, double numerator,
                         const std::string& base_name, double base,
                         const std::string& base_unit) {
  Add(name, base == 0 ? 0.0 : numerator / base, "ratio");
  Add(base_name, base, base_unit);
}

std::optional<double> MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return std::nullopt;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    // %.17g round-trips a double: the value is printed with all its digits.
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    out += JsonString(e.name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(e.unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string(buf) + "\"metrics\": " + metrics.ToJson() + "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
