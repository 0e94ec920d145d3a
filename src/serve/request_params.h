#ifndef CPCLEAN_SERVE_REQUEST_PARAMS_H_
#define CPCLEAN_SERVE_REQUEST_PARAMS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/json.h"

namespace cpclean {

// Typed accessors for protocol request parameters, shared by the request
// router (`server.cc`) and the session store's spec rehydration. Missing
// optional fields fall back to the default; present fields of the wrong
// JSON type are an InvalidArgument, not a silent coercion.

/// Required string field.
Result<std::string> RequestString(const JsonValue& req, const char* key);

/// Optional string field.
Result<std::string> RequestStringOr(const JsonValue& req, const char* key,
                                    const std::string& fallback);

/// Optional integer field. A fractional value, or one outside the
/// double-exact integer range, is a structured error — never a silent
/// truncation or an undefined float→int conversion.
Result<int64_t> RequestIntOr(const JsonValue& req, const char* key,
                             int64_t fallback);

/// `RequestIntOr` narrowed to int, rejecting out-of-range values.
Result<int> RequestIntParam(const JsonValue& req, const char* key,
                            int fallback);

/// Optional double field.
Result<double> RequestDoubleOr(const JsonValue& req, const char* key,
                               double fallback);

/// Optional bool field.
Result<bool> RequestBoolOr(const JsonValue& req, const char* key,
                           bool fallback);

// Protocol-level accessors: one definition of each parameter's name,
// type, and default, shared by every op handler so error text uniformly
// names the offending field.

/// The required `"session"` name.
Result<std::string> RequestSessionName(const JsonValue& req);

/// `clean_step`'s optional `"steps"` count (default 1).
Result<int> RequestSteps(const JsonValue& req);

/// `clean_run`'s optional `"budget"` (default -1 = until all-certain).
Result<int> RequestBudget(const JsonValue& req);

/// The batched query points: exactly one of `"points"` (an array of
/// feature arrays, used verbatim; each must have finite features and a
/// finite squared norm) or `"val_indices"` (indices resolved through
/// `val_point`, the session's validation-set lookup).
Result<std::vector<std::vector<double>>> ResolveRequestPoints(
    const JsonValue& req,
    const std::function<Result<std::vector<double>>(int)>& val_point);

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_REQUEST_PARAMS_H_
