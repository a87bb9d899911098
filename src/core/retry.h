// The one retrying invoke of the active stream ends: StreamReader's
// Transfers and StreamWriter's Pushes.
//
// A failure worth re-invoking over is one where the target was briefly gone
// (crashed before reactivation; re-invoking a checkpointed Eject reactivates
// it) or the network swallowed a message. Anything else — bad channel,
// permission, data loss — is permanent.
#ifndef SRC_CORE_RETRY_H_
#define SRC_CORE_RETRY_H_

#include <string>
#include <string_view>
#include <utility>

#include "src/eden/eject.h"

namespace eden {

inline bool Retryable(const Status& status) {
  return status.is(StatusCode::kUnavailable) ||
         status.is(StatusCode::kDeadlineExceeded);
}

struct RetryPolicy {
  Tick deadline = 0;  // per attempt; 0 = wait forever
  int attempts = 0;   // retries after the first try
  Tick backoff = 0;   // first retry delay; doubles per retry
};

// The policy of a stream end's options (StreamReaderOptions,
// StreamWriterOptions).
template <typename Options>
RetryPolicy PolicyOf(const Options& options) {
  return RetryPolicy{options.deadline, options.retry_attempts, options.retry_backoff};
}

// The retry loop of the active ends. The caller makes the first attempt with
// a bare Invoke of `make_args()` and hands the reply here only when it failed
// or the caller has retried before, so a successful first attempt costs no
// more than the Invoke itself. While the reply is a retryable failure and
// retries remain, this backs off and re-invokes `op` on `target` with args
// `make_args()` builds afresh. `attempt` counts retries (Stats.retries) and
// lives with the caller, so a go-back-N sender spends one budget across its
// rewinds. A reply after a retry whose status passes `recovered` counts in
// Stats.recoveries.
template <typename MakeArgs>
Task<InvokeResult> Retry(Eject& owner, Uid target, std::string_view op, MakeArgs& make_args,
                         RetryPolicy policy, int& attempt, bool (Status::*recovered)() const,
                         InvokeResult result) {
  while (!result.ok() && Retryable(result.status) && attempt < policy.attempts) {
    attempt++;
    owner.kernel().stats().retries++;
    if (policy.backoff > 0) {
      co_await owner.Sleep(policy.backoff << (attempt - 1));
    }
    result = co_await owner.Invoke(target, std::string(op), make_args(), policy.deadline);
  }
  if (attempt > 0 && (result.status.*recovered)()) {
    owner.kernel().stats().recoveries++;
  }
  co_return result;
}

}  // namespace eden

#endif  // SRC_CORE_RETRY_H_
