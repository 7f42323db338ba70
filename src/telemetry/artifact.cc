#include "telemetry/artifact.h"

#include <cstdio>

#include "telemetry/json.h"

namespace barb::telemetry {

void BenchArtifact::set_meta_raw(const std::string& key, std::string encoded) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(encoded);
      return;
    }
  }
  meta_.emplace_back(key, std::move(encoded));
}

void BenchArtifact::set_meta(const std::string& key, const std::string& value) {
  set_meta_raw(key, "\"" + json_escape(value) + "\"");
}

void BenchArtifact::set_meta(const std::string& key, double value) {
  set_meta_raw(key, format_double(value));
}

void BenchArtifact::add_point(const std::string& series, double x, double y,
                              std::optional<double> stddev) {
  points_.push_back(BenchPoint{series, x, y, stddev});
}

void BenchArtifact::add_recording(const std::string& scenario,
                                  ProbeRecording recording) {
  timelines_.push_back(Timeline{scenario, std::move(recording)});
}

std::string BenchArtifact::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("barb-bench-v1");
  w.key("figure").value(figure_);
  w.key("meta").begin_object();
  for (const auto& [k, encoded] : meta_) w.key(k).raw(encoded);
  w.end_object();
  w.key("points").begin_array();
  for (const auto& p : points_) {
    w.begin_object();
    w.key("series").value(p.series);
    w.key("x").value(p.x);
    w.key("y").value(p.y);
    if (p.stddev) w.key("stddev").value(*p.stddev);
    w.end_object();
  }
  w.end_array();
  w.key("timelines").begin_array();
  for (const auto& t : timelines_) {
    w.begin_object();
    w.key("scenario").value(t.scenario);
    w.key("recording");
    write_recording(w, t.recording);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string BenchArtifact::write_to(const std::string& dir) const {
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') path += '/';
  path += filename();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string json = to_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool nl_ok = std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !nl_ok || !closed) return "";
  return path;
}

}  // namespace barb::telemetry
