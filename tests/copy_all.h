#ifndef UBERRT_TESTS_COPY_ALL_H_
#define UBERRT_TESTS_COPY_ALL_H_

#include <vector>

#include "stream/log.h"
#include "stream/message.h"

namespace uberrt::stream {

/// Deep-copies every view of a fetched batch into an owning Message, for
/// assertions that outlive the batch or read headers by map lookup. The
/// stream API itself only serves borrowed views (MessageBus::FetchViews).
inline std::vector<Message> CopyAll(const FetchedBatch& batch) {
  std::vector<Message> out;
  out.reserve(batch.size());
  for (const wire::MessageView& v : batch.messages) out.push_back(v.ToMessage());
  return out;
}

}  // namespace uberrt::stream

#endif  // UBERRT_TESTS_COPY_ALL_H_
