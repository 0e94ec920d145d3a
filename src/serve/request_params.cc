#include "serve/request_params.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"

namespace cpclean {

Result<std::string> RequestString(const JsonValue& req, const char* key) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(StrFormat("missing field \"%s\"", key));
  }
  if (!v->is_string()) {
    return Status::InvalidArgument(StrFormat("\"%s\" must be a string", key));
  }
  return v->string_value();
}

Result<std::string> RequestStringOr(const JsonValue& req, const char* key,
                                    const std::string& fallback) {
  if (req.Find(key) == nullptr) return fallback;
  return RequestString(req, key);
}

Result<int64_t> RequestIntOr(const JsonValue& req, const char* key,
                             int64_t fallback) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(StrFormat("\"%s\" must be a number", key));
  }
  const double n = v->number_value();
  if (std::floor(n) != n || n < -9007199254740992.0 ||
      n > 9007199254740992.0) {
    return Status::InvalidArgument(
        StrFormat("\"%s\" must be an integer", key));
  }
  return static_cast<int64_t>(n);
}

Result<int> RequestIntParam(const JsonValue& req, const char* key,
                            int fallback) {
  CP_ASSIGN_OR_RETURN(const int64_t n, RequestIntOr(req, key, fallback));
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    return Status::OutOfRange(
        StrFormat("\"%s\" = %lld does not fit in an int", key,
                  static_cast<long long>(n)));
  }
  return static_cast<int>(n);
}

Result<double> RequestDoubleOr(const JsonValue& req, const char* key,
                               double fallback) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(StrFormat("\"%s\" must be a number", key));
  }
  return v->number_value();
}

Result<bool> RequestBoolOr(const JsonValue& req, const char* key,
                           bool fallback) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument(StrFormat("\"%s\" must be a bool", key));
  }
  return v->bool_value();
}

Result<std::string> RequestSessionName(const JsonValue& req) {
  return RequestString(req, "session");
}

Result<int> RequestSteps(const JsonValue& req) {
  return RequestIntParam(req, "steps", 1);
}

Result<int> RequestBudget(const JsonValue& req) {
  return RequestIntParam(req, "budget", -1);
}

Result<std::vector<std::vector<double>>> ResolveRequestPoints(
    const JsonValue& req,
    const std::function<Result<std::vector<double>>(int)>& val_point) {
  const JsonValue* points = req.Find("points");
  const JsonValue* indices = req.Find("val_indices");
  if ((points == nullptr) == (indices == nullptr)) {
    return Status::InvalidArgument(
        "exactly one of \"points\" or \"val_indices\" is required");
  }
  std::vector<std::vector<double>> out;
  if (points != nullptr) {
    if (!points->is_array()) {
      return Status::InvalidArgument("\"points\" must be an array of arrays");
    }
    out.reserve(points->array().size());
    for (const JsonValue& p : points->array()) {
      if (!p.is_array()) {
        return Status::InvalidArgument(
            "\"points\" must be an array of arrays");
      }
      std::vector<double> features;
      features.reserve(p.array().size());
      double sq_norm = 0.0;
      for (const JsonValue& x : p.array()) {
        if (!x.is_number()) {
          return Status::InvalidArgument(
              "\"points\" features must be numbers");
        }
        features.push_back(x.number_value());
        sq_norm += x.number_value() * x.number_value();
      }
      // The kernels score through squared norms, so a point is usable only
      // if that sum is finite; an infinite feature (`1e999` parses to inf)
      // fails the same check.
      if (!std::isfinite(sq_norm)) {
        return Status::InvalidArgument(
            "\"points\" features must be finite, with a finite squared "
            "norm");
      }
      out.push_back(std::move(features));
    }
  } else {
    if (!indices->is_array()) {
      return Status::InvalidArgument("\"val_indices\" must be an array");
    }
    out.reserve(indices->array().size());
    for (const JsonValue& x : indices->array()) {
      const double n = x.is_number() ? x.number_value() : -1.0;
      if (!x.is_number() || std::floor(n) != n || n < 0.0 ||
          n > static_cast<double>(std::numeric_limits<int>::max())) {
        return Status::InvalidArgument(
            "\"val_indices\" must hold non-negative integers");
      }
      CP_ASSIGN_OR_RETURN(std::vector<double> point,
                          val_point(static_cast<int>(n)));
      out.push_back(std::move(point));
    }
  }
  return out;
}

}  // namespace cpclean
