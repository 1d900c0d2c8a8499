// JSON renderers for study snapshots (schemas: docs/FORMAT.md).
//
// Each function turns an owned core::StudySnapshot into one
// self-contained JSON document: the same numbers core/report.h prints
// as text, plus the window metadata (buckets merged, watermark, drop
// counts) that only exists for time-bucketed aggregation. Kept separate
// from the text renderers so the serving layer has a stable
// machine-readable schema while the human report stays free to change
// wording. The /query path engine renders through these, and the
// snapshot-store tests call them directly on snapshots they merge.
#pragma once

#include <cstddef>
#include <string>

#include "core/study_snapshot.h"
#include "netdb/asn_db.h"

namespace adscope::store {

/// Headline counts: traffic totals, ad shares, user classes A-D,
/// page views — the "what is the ad ratio right now" answer.
std::string summary_json(const core::StudySnapshot& snapshot);

/// §7-style detail: list attribution, content-type table, the binned
/// request/byte time series and the per-class object-size histograms.
std::string traffic_json(const core::StudySnapshot& snapshot);

/// §6-style detail: indicator classes with per-family EasyList-ratio
/// ECDF deciles and the configuration estimates.
std::string users_json(const core::StudySnapshot& snapshot);

/// §8-style detail: server counts, dedicated ad servers and the top-N
/// AS ranking (needs the routing table; pass null to omit the ranking).
std::string infra_json(const core::StudySnapshot& snapshot,
                       const netdb::AsnDatabase* asn_db,
                       std::size_t top_n = 10);

}  // namespace adscope::store
