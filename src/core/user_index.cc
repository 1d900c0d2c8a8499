#include "core/user_index.h"

#include <algorithm>

namespace adscope::core {

void UserIndex::add(const ClassifiedObject& object) {
  UserStats& stats = users_[object.user_key];
  if (stats.requests == 0) {  // first sight of this (IP, UA) pair
    stats.ip = object.object.client_ip;
    stats.user_agent = object.object.user_agent;
  }
  ++stats.requests;
  stats.bytes += object.object.content_length;
  stats.first_ms = std::min(stats.first_ms, object.object.timestamp_ms);
  stats.last_ms = std::max(stats.last_ms, object.object.timestamp_ms);
  ++total_requests_;
  households_.insert(object.object.client_ip);

  const auto& verdict = object.verdict;
  if (!verdict.is_ad()) return;
  ++total_ads_;
  stats.ad_bytes += object.object.content_length;
  if (verdict.decision == adblock::Decision::kWhitelisted) {
    ++stats.ads_whitelisted;
    return;
  }
  switch (verdict.list_kind) {
    case adblock::ListKind::kEasyList:
      ++stats.ads_easylist;
      break;
    case adblock::ListKind::kEasyListDerivative:
      ++stats.ads_derivative;
      break;
    case adblock::ListKind::kEasyPrivacy:
      ++stats.ads_easyprivacy;
      break;
    case adblock::ListKind::kAcceptableAds:
    case adblock::ListKind::kCustom:
      ++stats.ads_derivative;  // custom blocking lists group with derivatives
      break;
  }
}

void UserIndex::merge(const UserIndex& other) {
  for (const auto& [key, theirs] : other.users_) {
    UserStats& ours = users_[key];
    if (ours.requests == 0) {
      ours.ip = theirs.ip;
      ours.user_agent = theirs.user_agent;
    }
    ours.requests += theirs.requests;
    ours.bytes += theirs.bytes;
    ours.ads_easylist += theirs.ads_easylist;
    ours.ads_derivative += theirs.ads_derivative;
    ours.ads_easyprivacy += theirs.ads_easyprivacy;
    ours.ads_whitelisted += theirs.ads_whitelisted;
    ours.ad_bytes += theirs.ad_bytes;
    ours.first_ms = std::min(ours.first_ms, theirs.first_ms);
    ours.last_ms = std::max(ours.last_ms, theirs.last_ms);
  }
  other.households_.for_each([this](netdb::IpV4 ip) { households_.insert(ip); });
  other.abp_households_.for_each(
      [this](netdb::IpV4 ip) { abp_households_.insert(ip); });
  total_requests_ += other.total_requests_;
  total_ads_ += other.total_ads_;
  abp_flows_ += other.abp_flows_;
}

void UserIndex::add_tls(const trace::TlsFlow& flow,
                        const netdb::AbpServerRegistry& registry) {
  if (flow.server_port != 443) return;
  if (!registry.is_abp_server(flow.server_ip)) return;
  ++abp_flows_;
  abp_households_.insert(flow.client_ip);
}

}  // namespace adscope::core
