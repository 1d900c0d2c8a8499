#include "core/study_snapshot.h"

#include <algorithm>

namespace adscope::core {

StudySnapshot::StudySnapshot(const trace::TraceMeta& meta,
                             const StudyOptions& options)
    : meta_(meta), options_(options) {
  const auto duration =
      meta.duration_s > 0 ? meta.duration_s : options.default_duration_s;
  traffic_ = std::make_unique<TrafficStats>(duration, options.timeseries_bin_s);
}

void StudySnapshot::absorb(const TraceStudy& study) {
  users_.merge(study.users());
  if (study.has_traffic()) traffic_->merge(study.traffic());
  whitelist_.merge(study.whitelist());
  infra_.merge(study.infra());
  rtb_.merge(study.rtb());
  page_views_.merge(study.page_views());
  classifier_counters_.merge(study.classifier().counters());
  https_flows_ += study.https_flows();
}

void StudySnapshot::note_bucket(std::uint64_t bucket) {
  const auto at = std::lower_bound(buckets_.begin(), buckets_.end(), bucket);
  if (at == buckets_.end() || *at != bucket) buckets_.insert(at, bucket);
}

void StudySnapshot::merge(const StudySnapshot& other) {
  users_.merge(other.users_);
  traffic_->merge(*other.traffic_);
  whitelist_.merge(other.whitelist_);
  infra_.merge(other.infra_);
  rtb_.merge(other.rtb_);
  page_views_.merge(other.page_views_);
  classifier_counters_.merge(other.classifier_counters_);
  https_flows_ += other.https_flows_;
  for (const auto bucket : other.buckets_) note_bucket(bucket);
  if (other.watermark_ms > watermark_ms) watermark_ms = other.watermark_ms;
  records_ingested += other.records_ingested;
  records_dropped += other.records_dropped;
}

StudyView StudySnapshot::view() const noexcept {
  StudyView view;
  view.meta = &meta_;
  view.users = &users_;
  view.traffic = traffic_.get();
  view.whitelist = &whitelist_;
  view.infra = &infra_;
  view.rtb = &rtb_;
  view.page_views = &page_views_;
  view.classifier = &classifier_counters_;
  view.https_flows = https_flows_;
  view.inference_options = options_.inference;
  return view;
}

}  // namespace adscope::core
