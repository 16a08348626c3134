#include "src/obs/run_report.hpp"

#include <fstream>
#include <utility>

#include "src/fault/status.hpp"

namespace ardbt::obs {

void append_history_line(const std::string& path, const Json& entry) {
  bool need_header = false;
  {
    std::ifstream probe(path, std::ios::binary);
    need_header = !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
  }
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw fault::IoError("append_history_line: cannot open", path);
  if (need_header) {
    Json header = Json::object();
    header.set("schema", kBenchHistorySchema);
    header.set("version", kBenchHistoryVersion);
    out << header.dump(0) << '\n';
  }
  out << entry.dump(0) << '\n';
  if (!out) throw fault::IoError("append_history_line: write failed", path);
}

RunReportBuilder::RunReportBuilder(std::string tool) : tool_(std::move(tool)) {}

RunReportBuilder& RunReportBuilder::config(const std::string& key, Json value) {
  config_.set(key, std::move(value));
  return *this;
}

RunReportBuilder& RunReportBuilder::set_section(const std::string& key, Json value) {
  sections_.set(key, std::move(value));
  return *this;
}

Json RunReportBuilder::build() const {
  Json doc = Json::object();
  doc.set("schema", kRunReportSchema);
  doc.set("version", kRunReportVersion);
  doc.set("tool", tool_);
  doc.set("config", config_);
  for (const auto& [key, value] : sections_.items()) doc.set(key, value);
  return doc;
}

void RunReportBuilder::write(const std::string& path, int indent) const {
  write_json_file(path, build(), indent);
}

}  // namespace ardbt::obs
