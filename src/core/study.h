// TraceStudy — one-stop pipeline for a passive trace.
//
// Wires HttpExtractor -> TraceClassifier -> every aggregate analysis the
// paper's evaluation needs. Feed it a trace (it is a TraceSink), call
// finish(), then read the per-section results:
//   users()     — Figure 3, inputs to §6
//   inference() — Table 3, Figure 4 (§6.2)
//   traffic()   — §7.1, Table 4, Figures 5 & 6
//   whitelist() — §7.3
//   infra()     — §8.1, Table 5 (needs an AsnDatabase)
//   rtb()       — §8.2, Figure 7
//
// For multi-core analysis of the same trace see core::ParallelTraceStudy
// (parallel_study.h), which runs one of these per shard and merges.
#pragma once

#include <memory>
#include <optional>

#include "adblock/engine.h"
#include "analyzer/http_extractor.h"
#include "core/classifier.h"
#include "core/inference.h"
#include "core/infra_analysis.h"
#include "core/page_segmenter.h"
#include "core/rtb_analysis.h"
#include "core/traffic_stats.h"
#include "core/user_index.h"
#include "core/whitelist_analysis.h"
#include "netdb/abp_servers.h"
#include "trace/record.h"

namespace adscope::core {

struct StudyOptions {
  ClassifierOptions classifier;
  InferenceOptions inference;
  std::uint64_t timeseries_bin_s = 3600;
  /// Fallback trace duration when the meta block is absent.
  std::uint64_t default_duration_s = 24 * 3600;
};

/// Page-view statistics from the ReSurf-style segmentation.
struct PageViewStats {
  std::uint64_t views = 0;
  std::uint64_t objects = 0;
  std::uint64_t ad_objects = 0;

  void merge(const PageViewStats& other) noexcept {
    views += other.views;
    objects += other.objects;
    ad_objects += other.ad_objects;
  }

  double objects_per_view() const noexcept {
    return views == 0 ? 0.0
                      : static_cast<double>(objects) /
                            static_cast<double>(views);
  }
  double ads_per_view() const noexcept {
    return views == 0 ? 0.0
                      : static_cast<double>(ad_objects) /
                            static_cast<double>(views);
  }
};

/// Read-only window onto a finished study's per-section results.
///
/// Both TraceStudy and ParallelTraceStudy expose one via view(), so the
/// report renderers (core/report.h) and any downstream consumer work on
/// either pipeline without caring how the aggregates were produced.
struct StudyView {
  const trace::TraceMeta* meta = nullptr;
  const UserIndex* users = nullptr;
  const TrafficStats* traffic = nullptr;
  const WhitelistAnalysis* whitelist = nullptr;
  const InfraAnalysis* infra = nullptr;
  const RtbAnalysis* rtb = nullptr;
  const PageViewStats* page_views = nullptr;
  /// Pipeline throughput/diagnostic counters (redirect patching,
  /// payload hints); may be null for producers that do not track them.
  const ClassifierCounters* classifier = nullptr;
  std::uint64_t https_flows = 0;
  InferenceOptions inference_options;
  /// Decode surface the records arrived through ("mmap", "stream",
  /// "pcap"); diagnostic only — the report renderers ignore it so
  /// reports stay byte-identical across io modes.
  const char* io_mode = nullptr;
  /// Active SIMD dispatch level ("off", "sse2", "avx2"); diagnostic
  /// only, ignored by the report renderers for the same reason —
  /// reports are byte-identical at every ADSCOPE_SIMD level.
  const char* simd_mode = nullptr;

  /// Run the §6.2 inference over the aggregated users.
  InferenceResult inference() const {
    return infer_adblock_usage(*users, inference_options);
  }
  ConfigurationReport configurations(const InferenceResult& result) const {
    return analyze_configurations(result, traffic->whitelisted_requests());
  }
};

class TraceStudy final : public trace::TraceSink {
 public:
  /// `registry` may be empty (then indicator 2 never fires). The engine
  /// and registry must outlive the study.
  TraceStudy(const adblock::FilterEngine& engine,
             const netdb::AbpServerRegistry& registry,
             StudyOptions options = {});

  // Internal callbacks capture `this`; the study must stay put.
  TraceStudy(const TraceStudy&) = delete;
  TraceStudy& operator=(const TraceStudy&) = delete;
  TraceStudy(TraceStudy&&) = delete;
  TraceStudy& operator=(TraceStudy&&) = delete;

  // TraceSink:
  void on_meta(const trace::TraceMeta& meta) override;
  void on_http(const trace::HttpTransaction& txn) override;
  void on_tls(const trace::TlsFlow& flow) override;

  /// Flush held state; call once after the full trace was fed.
  void finish();

  /// Flush open per-record state (held redirects, open page views)
  /// without finalizing the study — the boundary between consecutive
  /// trace files fed into one study. Aggregates keep accumulating.
  void flush_epoch();

  const trace::TraceMeta& meta() const noexcept { return meta_; }
  const UserIndex& users() const noexcept { return users_; }
  const TrafficStats& traffic() const { return *traffic_; }
  bool has_traffic() const noexcept { return traffic_ != nullptr; }
  const WhitelistAnalysis& whitelist() const noexcept { return whitelist_; }
  const InfraAnalysis& infra() const noexcept { return infra_; }
  const RtbAnalysis& rtb() const noexcept { return rtb_; }
  const TraceClassifier& classifier() const noexcept { return classifier_; }
  const PageViewStats& page_views() const noexcept { return page_views_; }

  /// Run the §6.2 inference over the aggregated users (after finish()).
  InferenceResult inference() const;
  ConfigurationReport configurations(const InferenceResult& inference) const;

  std::uint64_t https_flows() const noexcept { return https_flows_; }
  /// HTTP transactions fed, malformed ones (no usable Host) included.
  std::uint64_t http_transactions() const noexcept {
    return extractor_.transactions();
  }
  /// HTTP transactions seen before any meta block (the time series then
  /// runs on the fallback duration — observable instead of silent).
  std::uint64_t transactions_before_meta() const noexcept {
    return transactions_before_meta_;
  }

  StudyView view() const noexcept;

 private:
  /// Lazily build the time-series aggregate when a trace carries no
  /// meta block, counting the transactions affected.
  void ensure_traffic();

  const adblock::FilterEngine& engine_;
  const netdb::AbpServerRegistry& registry_;
  StudyOptions options_;

  trace::TraceMeta meta_;
  analyzer::HttpExtractor extractor_;
  TraceClassifier classifier_;
  UserIndex users_;
  PageSegmenter segmenter_;
  PageViewStats page_views_;
  std::unique_ptr<TrafficStats> traffic_;  // needs duration from meta
  WhitelistAnalysis whitelist_;
  InfraAnalysis infra_;
  RtbAnalysis rtb_;
  std::uint64_t https_flows_ = 0;
  std::uint64_t transactions_before_meta_ = 0;
  bool meta_seen_ = false;
  bool finished_ = false;
};

}  // namespace adscope::core
