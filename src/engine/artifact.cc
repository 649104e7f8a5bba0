#include "engine/artifact.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "exp/report.h"

namespace costsense::engine {
namespace {

/// JSON has no literal for non-finite numbers; encode them as strings so
/// the sidecar stays parseable when Theorem 2's bound is infinite.
std::string JsonNumber(double v) {
  if (std::isfinite(v)) return StrFormat("%.17g", v);
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  return "\"nan\"";
}

}  // namespace

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}


ArtifactWriter::ArtifactWriter(const EngineConfig& config)
    : bench_json_path_(config.bench_json_path),
      sidecar_path_(config.artifact_json_path) {}

void ArtifactWriter::Note(Status st) {
  if (!st.ok() && deferred_.ok()) deferred_ = std::move(st);
}

void ArtifactWriter::Put(std::FILE* stream, std::string_view text) {
  if (text.empty()) return;
  if (std::fwrite(text.data(), 1, text.size(), stream) != text.size()) {
    Note(Status::Internal("short write to stdio stream"));
  }
}

void ArtifactWriter::WriteFigure(
    const std::string& title, const std::vector<exp::FigureSeries>& series) {
  // Byte-for-byte the pre-engine driver output: table, blank line, CSV.
  Put(stdout, exp::RenderFigureTable(title, series));
  Put(stdout, "\nCSV:\n");
  Put(stdout, exp::RenderFigureCsv(series));
  if (sidecar_path_.empty()) return;

  std::string line = "{\"artifact\":\"figure\",\"title\":\"" +
                     EscapeJson(title) + "\",\"series\":[";
  for (size_t s = 0; s < series.size(); ++s) {
    const exp::FigureSeries& fs = series[s];
    if (s > 0) line += ",";
    line += "{\"query\":\"" + EscapeJson(fs.query_name) +
            "\",\"candidate_plans\":" + StrFormat("%zu", fs.num_candidate_plans) +
            ",\"constant_bound\":" + JsonNumber(fs.constant_bound) +
            ",\"complementary\":" +
            (fs.has_complementary_plans ? "true" : "false") + ",\"points\":[";
    for (size_t p = 0; p < fs.points.size(); ++p) {
      const exp::GtcPoint& pt = fs.points[p];
      if (p > 0) line += ",";
      line += "{\"delta\":" + JsonNumber(pt.delta) +
              ",\"gtc\":" + JsonNumber(pt.gtc) + ",\"worst_rival\":\"" +
              EscapeJson(pt.worst_rival) + "\"}";
    }
    line += "]}";
  }
  line += "]}\n";
  sidecar_buffer_ += line;
}

void ArtifactWriter::WriteRunMetrics(
    const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
    const std::vector<std::pair<std::string, double>>& extra) {
  Put(stderr, metrics.Render());
  std::string line = metrics.ToJsonLine(bench_name, extra);
  AppendPerfLine(line);
  if (sidecar_path_.empty()) return;
  // Same schema as the perf line, tagged as a metrics artifact.
  line.insert(1, "\"artifact\":\"metrics\",");
  sidecar_buffer_ += line;
}

void ArtifactWriter::AppendPerfLine(const std::string& line) {
  Put(stderr, line);
  if (bench_json_path_.empty()) return;
  if (bench_json_ == nullptr) {
    bench_json_ = std::make_unique<runtime::sink::FileSink>(
        bench_json_path_, runtime::sink::FileSink::Mode::kAppend);
  }
  // Best-effort, as the perf line always was: an unwritable path never
  // fails a run.
  Status st = bench_json_->Write(line);
  if (st.ok()) st = bench_json_->Flush();
  (void)st.ok();
}

Status ArtifactWriter::WrapSidecar(Status st) const {
  if (st.ok()) return st;
  return Status(st.code(),
                "artifact sidecar " + sidecar_path_ + ": " + st.message());
}

Status ArtifactWriter::Flush() {
  for (std::FILE* stream : {stdout, stderr}) {
    if (std::fflush(stream) != 0) {
      Note(Status::Internal(std::string("fflush failed: ") +
                            std::strerror(errno)));
    }
  }
  Status sidecar;
  if (!sidecar_buffer_.empty()) {
    if (sidecar_ == nullptr) {
      sidecar_ = std::make_unique<runtime::sink::FileSink>(
          sidecar_path_, runtime::sink::FileSink::Mode::kAppend);
    }
    sidecar = sidecar_->Write(sidecar_buffer_);
    if (sidecar.ok()) sidecar = sidecar_->Flush();
    if (sidecar.ok()) sidecar_buffer_.clear();  // else kept for a retry
  }
  return deferred_.ok() ? WrapSidecar(std::move(sidecar)) : deferred_;
}

Status ArtifactWriter::Finish() {
  if (bench_json_ != nullptr) {
    const Status closed = bench_json_->Close();
    (void)closed.ok();  // best-effort, matching AppendPerfLine
    bench_json_.reset();
  }
  Status st = Flush();
  if (sidecar_ != nullptr && sidecar_buffer_.empty()) {
    const Status closed = WrapSidecar(sidecar_->Close());
    sidecar_.reset();
    if (st.ok()) st = closed;
  }
  return st;
}

}  // namespace costsense::engine
