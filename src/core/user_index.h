// Per-user aggregation keyed by (IP, User-Agent) — §6, Figure 3. The key
// is the classifier's ClassifiedObject::user_key, not re-hashed here.
//
// Tracks, for every end device/browser visible at the vantage point, the
// volume of requests and the ad requests attributed by each filter list;
// and, per household (IP), whether any device downloaded EasyList from
// an Adblock Plus server over HTTPS (the §3.2 indicator).
#pragma once

#include <cstdint>
#include <string>

#include "adblock/engine.h"
#include "core/classifier.h"
#include "core/flat_agg.h"
#include "netdb/abp_servers.h"
#include "trace/record.h"

namespace adscope::core {

struct UserStats {
  netdb::IpV4 ip = 0;
  std::string user_agent;

  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ads_easylist = 0;     // blocked by EasyList
  std::uint64_t ads_derivative = 0;   // blocked by EasyList derivatives
  std::uint64_t ads_easyprivacy = 0;  // blocked by EasyPrivacy
  std::uint64_t ads_whitelisted = 0;  // matched the acceptable-ads list
  std::uint64_t ad_bytes = 0;
  std::uint64_t first_ms = UINT64_MAX;
  std::uint64_t last_ms = 0;

  std::uint64_t ad_requests() const noexcept {
    return ads_easylist + ads_derivative + ads_easyprivacy + ads_whitelisted;
  }

  /// Indicator 1 ratio (§6.2): EasyList hits only — the list installed
  /// by default — relative to all requests.
  double easylist_ratio() const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(ads_easylist) /
                               static_cast<double>(requests);
  }
};

class UserIndex {
 public:
  UserIndex() = default;

  void add(const ClassifiedObject& object);

  /// Feed a port-443 flow; marks the household when the server is a known
  /// Adblock Plus update server.
  void add_tls(const trace::TlsFlow& flow,
               const netdb::AbpServerRegistry& registry);

  /// Accumulate another index (shard combination). Per-user stats sum;
  /// household sets union. Commutative and associative, so shard merge
  /// order cannot change the result.
  void merge(const UserIndex& other);

  bool household_downloads_easylist(netdb::IpV4 ip) const {
    return abp_households_.contains(ip);
  }

  const FlatMap<std::uint64_t, UserStats>& users() const noexcept {
    return users_;
  }

  std::uint64_t total_requests() const noexcept { return total_requests_; }
  std::uint64_t total_ad_requests() const noexcept { return total_ads_; }
  std::size_t household_count() const noexcept { return households_.size(); }
  std::size_t abp_household_count() const noexcept {
    return abp_households_.size();
  }
  std::uint64_t tls_to_abp_servers() const noexcept { return abp_flows_; }

 private:
  FlatMap<std::uint64_t, UserStats> users_;
  FlatSet<netdb::IpV4> households_;
  FlatSet<netdb::IpV4> abp_households_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t total_ads_ = 0;
  std::uint64_t abp_flows_ = 0;
};

}  // namespace adscope::core
