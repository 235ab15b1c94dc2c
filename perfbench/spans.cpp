#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

uint64_t SpanLog::begin(std::string name, std::string layer, uint64_t job,
                        uint64_t parent) {
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{std::move(name), std::move(layer), job, parent, start, start});
  return spans_.size() - 1;
}

void SpanLog::end(uint64_t id) {
  const double stop = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = stop;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<uint64_t, std::map<std::string, double>> SpanLog::selfTimeByJob()
    const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& span : all) {
    if (span.parent != kNoParent) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<uint64_t, std::map<std::string, double>> self;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    // Length of the union of the children's intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, span.end);
      if (to > from) {
        covered += to - from;
      }
      reach = std::max(reach, std::min(hi, span.end));
    }
    self[span.job][span.layer] += (span.end - span.start) - covered;
  }
  return self;
}

bool SpanLog::writeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::vector<Span> all = spans();
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"job\": %llu, \"parent\": %lld, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.layer.c_str(),
                 static_cast<unsigned long long>(s.job),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.start, s.end, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
