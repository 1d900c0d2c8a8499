#include "core/page_segmenter.h"

#include <algorithm>

namespace adscope::core {

void PageSegmenter::emit(const PageView& view) {
  ++views_;
  if (callback_) callback_(view);
}

PageView PageSegmenter::acquire_view() {
  PageView view;
  if (!recycle_.empty()) {
    view = std::move(recycle_.back());
    recycle_.pop_back();
  }
  // Reserve to the watermarks so the subsequent assigns cannot
  // reallocate: which pool slot serves which page rotates between
  // passes, and without this a short slot meeting a long URL upgrades
  // its capacity one pairing at a time (slow, data-dependent
  // convergence). With it, every slot is warm after one acquire.
  view.page_url.reserve(url_cap_);
  view.user_agent.reserve(ua_cap_);
  return view;
}

void PageSegmenter::close_view(UserViews& user, std::size_t at) {
  PageView& view = user.open[at];
  emit(view);
  recycle_.push_back(std::move(view));
  user.open.erase(user.open.begin() + static_cast<std::ptrdiff_t>(at));
}

void PageSegmenter::close_idle(UserViews& user, std::uint64_t now_ms) {
  for (std::size_t i = 0; i < user.open.size();) {
    if (now_ms >= user.open[i].end_ms + options_.idle_gap_ms) {
      close_view(user, i);
    } else {
      ++i;
    }
  }
}

void PageSegmenter::add(const ClassifiedObject& object) {
  if (object.page_url.empty()) {
    ++orphans_;
    return;
  }
  const auto key = object.user_key;
  UserViews* found = users_.find(key);
  if (found == nullptr) {
    while (users_.size() >= options_.max_users && !user_order_.empty()) {
      const auto victim = user_order_.front();
      user_order_.pop_front();
      if (UserViews* evicted = users_.find(victim)) {
        while (!evicted->open.empty()) close_view(*evicted, 0);
        // Keep the evicted slot's open-list and string capacity for the
        // user that replaces it.
        user_recycle_.push_back(std::move(*evicted));
        users_.erase(victim);
      }
    }
    found = &users_[key];
    if (!user_recycle_.empty()) {
      *found = std::move(user_recycle_.back());
      user_recycle_.pop_back();
    }
    found->ip = object.object.client_ip;
    ua_cap_ = std::max(ua_cap_, object.object.user_agent.size());
    found->user_agent.reserve(ua_cap_);
    found->user_agent.assign(object.object.user_agent);
    user_order_.push_back(key);
  }
  UserViews& user = *found;
  const auto now_ms = object.object.timestamp_ms;
  close_idle(user, now_ms);

  auto view_it = std::find_if(
      user.open.begin(), user.open.end(),
      [&](const PageView& view) { return view.page_url == object.page_url; });
  if (view_it == user.open.end()) {
    if (user.open.size() >= options_.max_open_views) {
      // Close the stalest view to make room.
      const auto oldest = std::min_element(
          user.open.begin(), user.open.end(),
          [](const PageView& a, const PageView& b) {
            return a.end_ms < b.end_ms;
          });
      close_view(user, static_cast<std::size_t>(oldest - user.open.begin()));
    }
    url_cap_ = std::max(url_cap_, object.page_url.size());
    ua_cap_ = std::max(ua_cap_, user.user_agent.size());
    user.open.push_back(acquire_view());
    PageView& view = user.open.back();
    view.client_ip = user.ip;
    view.user_agent.assign(user.user_agent);
    view.page_url.assign(object.page_url);
    view.start_ms = now_ms;
    view.end_ms = now_ms;
    view.objects = 0;
    view.ad_objects = 0;
    view.bytes = 0;
    view_it = user.open.end() - 1;
  }
  PageView& view = *view_it;
  view.end_ms = std::max(view.end_ms, now_ms);
  ++view.objects;
  view.bytes += object.object.content_length;
  view.ad_objects += object.verdict.is_ad() ? 1u : 0u;
}

void PageSegmenter::flush() {
  for (auto& [key, user] : users_) {
    for (auto& view : user.open) {
      emit(view);
      recycle_.push_back(std::move(view));
    }
    user.open.clear();
  }
}

}  // namespace adscope::core
