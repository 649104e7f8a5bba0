#ifndef COSTSENSE_ENGINE_ARTIFACT_H_
#define COSTSENSE_ENGINE_ARTIFACT_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/config.h"
#include "exp/figure_runner.h"
#include "runtime/metrics.h"
#include "runtime/sink/stages.h"

namespace costsense::engine {

/// The one place a run's results leave the process, decoupled from how
/// they were computed:
///
///   - figures: table and CSV on stdout, byte-identical to the pre-engine
///     drivers (proven by the golden harness);
///   - metrics: the human-readable block on stderr, then the perf line;
///   - perf lines: stderr, and appended to config.bench_json_path when
///     set (best-effort: an unwritable path never fails a run);
///   - sidecar: when config.artifact_json_path is set, every figure and
///     metrics record is also buffered as one JSON object per line and
///     appended to that file at Flush/Finish. Figure series keep full
///     fidelity (per-point delta, gtc and worst rival, plus the
///     per-series Theorem 2 bound), so runs are machine-diffable without
///     scraping stdout.
///
/// The Write* entry points are void: a failed stdout/stderr write (short
/// write) is remembered and surfaced as the first error from
/// Flush()/Finish(). Not thread-safe; a writer shared across threads (the
/// serve stats snapshotter) is serialized by its users.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(const EngineConfig& config);

  ArtifactWriter(const ArtifactWriter&) = delete;
  ArtifactWriter& operator=(const ArtifactWriter&) = delete;

  /// One worst-case figure: the table/CSV pair on stdout, one structured
  /// series record in the sidecar.
  void WriteFigure(const std::string& title,
                   const std::vector<exp::FigureSeries>& series);

  /// Per-run counters and resilience telemetry: the rendered block on
  /// stderr, the perf line (AppendPerfLine), and the same line tagged
  /// `"artifact":"metrics"` in the sidecar. `extra` appends numeric
  /// fields to the machine-readable form.
  void WriteRunMetrics(
      const std::string& bench_name, const runtime::RuntimeMetrics& metrics,
      const std::vector<std::pair<std::string, double>>& extra = {});

  /// Appends one finished perf-JSON line to stderr and to the bench-JSON
  /// file, flushed at once so the line is on disk as soon as it exists.
  /// The sidecar never sees it: callers with records that are not a
  /// run's artifacts (fault_sweep's per-rate lines, the bench footprint)
  /// call this directly.
  void AppendPerfLine(const std::string& line);

  /// Checkpoint: flushes stdout/stderr and appends the buffered sidecar
  /// lines without ending the run. A long-lived producer (the analysis
  /// server, the load generator) calls this at checkpoints and on
  /// shutdown so an aborted run keeps every artifact written up to the
  /// last Flush. A failed sidecar write keeps the buffer for a retry.
  [[nodiscard]] Status Flush();

  /// Flush, then closes the files. Idempotent; a later write reopens them
  /// appending, so batch runs accumulate.
  [[nodiscard]] Status Finish();

  /// The sidecar lines buffered since the last Flush (tests inspect
  /// them without touching the disk); always empty when unconfigured.
  const std::string& buffered() const { return sidecar_buffer_; }

 private:
  /// Writes `text` to a process stream, remembering a short write.
  void Put(std::FILE* stream, std::string_view text);
  /// Remembers the first failed stdio write until Flush/Finish reports it.
  void Note(Status st);
  /// Tags a sink error with the sidecar path for the caller.
  [[nodiscard]] Status WrapSidecar(Status st) const;

  const std::string bench_json_path_;
  const std::string sidecar_path_;
  std::string sidecar_buffer_;
  /// Opened by the first perf line / non-empty sidecar flush, released by
  /// Finish.
  std::unique_ptr<runtime::sink::FileSink> bench_json_;
  std::unique_ptr<runtime::sink::FileSink> sidecar_;
  Status deferred_;
};

/// Escapes `text` for embedding in a JSON string literal.
std::string EscapeJson(std::string_view text);

}  // namespace costsense::engine

#endif  // COSTSENSE_ENGINE_ARTIFACT_H_
