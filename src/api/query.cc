#include "api/query.h"

#include <algorithm>

#include "util/string_util.h"

namespace osum::api {
namespace {

/// Sorted + deduplicated token set, tokenized exactly like
/// InvertedIndex::SearchQuery so the canonical key and the index agree on
/// what "the same query" means.
std::vector<std::string> NormalizedTokens(std::string_view keywords) {
  std::vector<std::string> tokens = util::TokenizeWords(keywords);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

std::string KeyFromTokens(const std::vector<std::string>& tokens,
                          const QueryOptions& options) {
  // 0x1f/0x1e cannot appear in tokens ([a-z0-9] only), so the key is
  // collision-free between keyword sets and against the options fragment.
  std::string key = util::Join(tokens, "\x1f");
  key += '\x1e';
  key += options.CacheKeyFragment();
  return key;
}

/// Structural checks shared by Validate and ValidatedKey (everything
/// except the tokenization-dependent empty-keyword-set check).
Status ValidateOptions(const QueryOptions& options) {
  if (options.max_results == 0) {
    return Status::InvalidArgument("max_results must be positive");
  }
  if (options.l > kMaxSynopsisL) {
    return Status::InvalidArgument(
        "l=" + std::to_string(options.l) + " exceeds the synopsis cap of " +
        std::to_string(kMaxSynopsisL) + " (use l=0 for the complete OS)");
  }
  // The exhaustive algorithms stay direct-call oracles. Brute force has no
  // operation budget, so one request on a large OS would pin a worker.
  // DP-Enumerate aborts on its budget after seconds and would answer with
  // an empty selection; kDp returns the same optimum.
  if (options.algorithm == core::SizeLAlgorithm::kBruteForce ||
      options.algorithm == core::SizeLAlgorithm::kDpEnumerate) {
    return Status::InvalidArgument(
        std::string("the ") + core::AlgorithmName(options.algorithm) +
        " size-l algorithm is a test oracle and is not served");
  }
  return Status::Ok();
}

}  // namespace

std::string QueryOptions::CacheKeyFragment() const {
  std::string out;
  out += "l=" + std::to_string(l);
  out += ";max=" + std::to_string(max_results);
  out += ";alg=" + std::to_string(static_cast<int>(algorithm));
  out += ";prelim=" + std::to_string(use_prelim ? 1 : 0);
  out += ";rank=" + std::to_string(static_cast<int>(ranking));
  return out;
}

std::string CanonicalQueryKey(std::string_view keywords,
                              const QueryOptions& options) {
  return KeyFromTokens(NormalizedTokens(keywords), options);
}

Status QueryRequest::Validate() const {
  Status s = ValidateOptions(options_);
  if (!s.ok()) return s;
  if (NormalizedTokens(keywords_).empty()) {
    return Status::InvalidArgument(
        "empty keyword set: no alphanumeric token in \"" + keywords_ + "\"");
  }
  return Status::Ok();
}

StatusOr<std::string> QueryRequest::ValidatedKey() const {
  Status s = ValidateOptions(options_);
  if (!s.ok()) return s;
  std::vector<std::string> tokens = NormalizedTokens(keywords_);
  if (tokens.empty()) {
    return Status::InvalidArgument(
        "empty keyword set: no alphanumeric token in \"" + keywords_ + "\"");
  }
  return KeyFromTokens(tokens, options_);
}

QueryResponse QueryResponse::Success(SharedResults results,
                                     QueryStats stats) {
  QueryResponse r;
  r.results = std::move(results);
  r.stats = stats;
  return r;
}

QueryResponse QueryResponse::Failure(Status status, QueryStats stats) {
  QueryResponse r;
  r.status = std::move(status);
  r.stats = stats;
  return r;
}

const ResultList& QueryResponse::result_list() const {
  static const ResultList kEmpty;
  return results == nullptr ? kEmpty : *results;
}

}  // namespace osum::api
