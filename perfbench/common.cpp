#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>

namespace perfbench {
namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void for_each_counter(
    const std::string& json,
    const std::function<void(const std::string&, std::uint64_t)>& fn) {
  // The export is {"counters":{"name":N,...},"gauges":...}; metric names
  // never contain quotes, so a flat scan of the first object suffices.
  const std::string open = "\"counters\":{";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return;
  pos += open.size();
  while (pos < json.size() && json[pos] != '}') {
    if (json[pos] == ',') ++pos;
    if (json[pos] != '"') return;
    const std::size_t name_end = json.find('"', pos + 1);
    if (name_end == std::string::npos) return;
    std::string name = json.substr(pos + 1, name_end - pos - 1);
    pos = name_end + 2;  // skip `":`
    std::uint64_t v = 0;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(json[pos] - '0');
      ++pos;
    }
    fn(name, v);
  }
}

std::size_t count_series(const std::string& json) {
  // Series are the keys one level inside "counters"/"gauges"/"histograms".
  // Names hold no quotes or braces, so tracking brace depth is enough.
  std::size_t n = 0;
  int depth = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
    } else if (c == '"') {
      const std::size_t end = json.find('"', i + 1);
      if (end == std::string::npos) break;
      if (depth == 2 && end + 1 < json.size() && json[end + 1] == ':') ++n;
      i = end;
    }
  }
  return n;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.parent = log_->open_.empty() ? -1 : log_->open_.back();
  s.start = now_s();
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(s));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end = now_s();
  log_->open_.pop_back();
}

std::string SpanLog::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + s.name + "\",\"start\":" + number(s.start) +
           ",\"end\":" + number(s.end) +
           ",\"parent\":" + std::to_string(s.parent) + "}";
  }
  return out + "]";
}

bool Execution::all_checks_pass() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

double pieces_s(const Execution& e) {
  double s = 0;
  for (const auto& piece : e.pieces) s += piece.second;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_execution(const Execution& e, const SpanLog* spans) {
  std::string out = "{\"workload\":\"" + e.workload + "\"";
  out += ",\"seed\":" + std::to_string(e.seed);
  out += std::string(",\"traced\":") + (e.traced ? "true" : "false");
  out += ",\"wall_s\":" + number(e.wall_s);
  out += ",\"setup_s\":" + number(e.setup_s);
  out += ",\"sim_s\":" + number(e.sim_s);
  out += ",\"export_s\":" + number(e.export_s);
  out += ",\"teardown_s\":" + number(e.teardown_s);
  out += ",\"handoffs\":" + std::to_string(e.handoffs);
  out += ",\"runs\":" + std::to_string(e.runs);
  out += ",\"failed_runs\":" + std::to_string(e.failed_runs);
  out += ",\"peak_rss_mb\":" + number(peak_rss_mb());
  out += ",\"counts\":{";
  for (std::size_t i = 0; i < e.counts.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + e.counts[i].first + "\":" + number(e.counts[i].second);
  }
  out += "},\"checks\":{";
  for (std::size_t i = 0; i < e.checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + e.checks[i].first + "\":" +
           (e.checks[i].second ? "true" : "false");
  }
  out += "},\"depth_samples\":[";
  for (std::size_t i = 0; i < e.depth_samples.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(e.depth_samples[i]);
  }
  out += "],\"slices\":[";
  for (std::size_t i = 0; i < e.slices.size(); ++i) {
    if (i > 0) out += ",";
    out += "[";
    for (std::size_t j = 0; j < e.slices[i].size(); ++j) {
      if (j > 0) out += ",";
      out += number(e.slices[i][j]);
    }
    out += "]";
  }
  out += "],\"pieces\":[";
  for (std::size_t i = 0; i < e.pieces.size(); ++i) {
    if (i > 0) out += ",";
    out += "[\"" + e.pieces[i].first + "\"," + number(e.pieces[i].second) + "]";
  }
  out += "],\"figures\":[";
  for (std::size_t i = 0; i < e.figures.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":\"" + e.figures[i].name +
           "\",\"runs\":" + std::to_string(e.figures[i].runs) +
           ",\"digest\":\"" + e.figures[i].digest + "\"}";
  }
  out += "],\"spans\":" + (spans != nullptr ? spans->to_json() : "[]") + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void RegistrySums::add(const std::string& registry_json) {
  series += static_cast<double>(count_series(registry_json));
  for_each_counter(registry_json, [this](const std::string& name,
                                         std::uint64_t u) {
    const auto v = static_cast<double>(u);
    if (starts_with(name, "buffer/")) {
      if (ends_with(name, "/grants")) grants += v;
      else if (ends_with(name, "/rejections")) rejections += v;
      else if (ends_with(name, "/partial_grants")) partial_grants += v;
      else if (ends_with(name, "/leases_reaped")) reaped += v;
    } else if (starts_with(name, "fastho/")) {
      if (ends_with(name, "/buffered_pkts")) buffered += v;
      else if (ends_with(name, "/drained_pkts")) drained += v;
    } else if (starts_with(name, "link/")) {
      if (ends_with(name, "/delivered_pkts")) link_deliveries += v;
    } else if (name == "wlan/handoffs") {
      wlan_handoffs += v;
    } else if (name == "handover/outcome/predictive") {
      predictive += v;
    } else if (name == "handover/outcome/reactive") {
      reactive += v;
    } else if (name == "handover/outcome/failed") {
      failed += v;
    }
  });
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add_double(double v) {
  // Hash the printed value, as the figure benches print it, so the digest
  // tracks what a figure says rather than the last bit of a double.
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.9g", v);
  add(buf, static_cast<std::size_t>(n));
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
