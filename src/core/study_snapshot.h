// StudySnapshot — an owned, immutable-input merge of finished studies.
//
// TraceStudy aggregates one stream of records; a snapshot *accumulates*
// any number of finished studies (absorb) or other snapshots (merge)
// into a single set of aggregates that survives independently of the
// producers. The live serving layer renders snapshots without holding
// any lock, and the snapshot store (src/store) keeps them as tree
// leaves and rolls them up across time windows.
//
// Merge laws: every underlying aggregate's merge() is commutative and
// associative (property-tested since PR-1), so absorbing studies
// directly and merging per-bucket snapshots of the same studies yield
// byte-identical reports — the invariant the /query-vs-/study identity
// tests pin.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/study.h"

namespace adscope::core {

class StudySnapshot {
 public:
  StudySnapshot(const trace::TraceMeta& meta, const StudyOptions& options);

  StudySnapshot(StudySnapshot&&) = default;
  StudySnapshot& operator=(StudySnapshot&&) = default;

  /// Accumulate one finished per-bucket study (note_bucket() records
  /// which bucket it was).
  void absorb(const TraceStudy& study);

  /// Accumulate another snapshot built from the same meta/options shape
  /// (same trace duration and time-series binning; merging snapshots of
  /// different worlds is a logic error).
  void merge(const StudySnapshot& other);

  /// Record that `bucket` contributed. Buckets are a set: the shards of
  /// one time bucket count once.
  void note_bucket(std::uint64_t bucket);

  StudyView view() const noexcept;

  const trace::TraceMeta& meta() const noexcept { return meta_; }
  /// Distinct time buckets that contributed.
  std::uint64_t buckets_merged() const noexcept { return buckets_.size(); }
  /// Oldest/newest contributing bucket; UINT64_MAX/0 when none did.
  std::uint64_t first_bucket() const noexcept {
    return buckets_.empty() ? UINT64_MAX : buckets_.front();
  }
  std::uint64_t last_bucket() const noexcept {
    return buckets_.empty() ? 0 : buckets_.back();
  }
  std::uint64_t bucket_seconds = 0;
  std::uint64_t watermark_ms = 0;
  std::uint64_t records_ingested = 0;
  std::uint64_t records_dropped = 0;

  const ClassifierCounters& classifier_counters() const noexcept {
    return classifier_counters_;
  }
  std::uint64_t https_flows() const noexcept { return https_flows_; }

 private:
  trace::TraceMeta meta_;
  StudyOptions options_;
  UserIndex users_;
  std::unique_ptr<TrafficStats> traffic_;
  WhitelistAnalysis whitelist_;
  InfraAnalysis infra_;
  RtbAnalysis rtb_;
  PageViewStats page_views_;
  ClassifierCounters classifier_counters_;
  std::uint64_t https_flows_ = 0;
  /// Contributing bucket ids, ascending and distinct.
  std::vector<std::uint64_t> buckets_;
};

}  // namespace adscope::core
