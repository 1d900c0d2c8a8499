// An owning core::ClassifiedObject for tests.
//
// The classifier hands its callback a ClassifiedObject that borrows the
// classifier's storage and dies when the callback returns. Tests that
// keep emitted objects, or hand-build objects for the aggregates, hold
// an OwnedObject instead: same fields, owning strings. It converts to
// the view the aggregates take, valid while the OwnedObject lives, so
// `index.add(make_object(...))` keeps working on a temporary.
#pragma once

#include <cstdint>
#include <string>

#include "core/classifier.h"

namespace adscope::test {

struct OwnedObject {
  analyzer::WebObject object;
  http::RequestType type = http::RequestType::kOther;
  bool type_from_extension = false;
  std::string page_url;
  std::string page_host;
  adblock::Classification verdict;

  OwnedObject() = default;
  /// Copy an emitted view so it outlives the callback.
  explicit OwnedObject(const core::ClassifiedObject& view)
      : object(view.object),
        type(view.type),
        type_from_extension(view.type_from_extension),
        page_url(view.page_url),
        page_host(view.page_host),
        verdict(view.verdict) {}

  /// The view of this object; its user key is derived from the object's
  /// client IP and User-Agent, as the classifier derives it.
  operator core::ClassifiedObject() const {  // NOLINT: implicit by design
    return {.object = object,
            .user_key = core::user_key(object.client_ip, object.user_agent),
            .type = type,
            .type_from_extension = type_from_extension,
            .page_url = page_url,
            .page_host = page_host,
            .verdict = verdict};
  }
};

}  // namespace adscope::test
