#include "incomplete/cleaning_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {

constexpr char kLogMagic[] = "cpclean-log-v1";

void AppendCandidates(const std::vector<std::vector<double>>& candidates,
                      std::string* out) {
  *out += StrFormat(" %d %d", static_cast<int>(candidates.size()),
                    candidates.empty()
                        ? 0
                        : static_cast<int>(candidates.front().size()));
  for (const auto& c : candidates) {
    for (const double x : c) {
      *out += StrFormat(" %a", x);
    }
  }
}

/// Parses `m dim v...` starting at fields[at]; consumes to the end.
Status ParseCandidates(const std::vector<std::string>& fields, size_t at,
                       std::vector<std::vector<double>>* out) {
  if (fields.size() < at + 2) return Status::ParseError("truncated payload");
  CP_ASSIGN_OR_RETURN(const int m, ParseInt(fields[at]));
  CP_ASSIGN_OR_RETURN(const int dim, ParseInt(fields[at + 1]));
  if (m < 1 || dim < 0) return Status::ParseError("bad payload shape");
  const size_t need = at + 2 + static_cast<size_t>(m) * dim;
  if (fields.size() != need) {
    return Status::ParseError("payload value count mismatch");
  }
  size_t pos = at + 2;
  out->clear();
  out->reserve(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    std::vector<double> c;
    c.reserve(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      CP_ASSIGN_OR_RETURN(double v, ParseDouble(fields[pos++]));
      c.push_back(v);
    }
    out->push_back(std::move(c));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeLogRecord(const MutationRecord& record) {
  std::string body;
  switch (record.kind) {
    case MutationRecord::Kind::kFix:
      body = StrFormat("fix %llu %d %d",
                       static_cast<unsigned long long>(record.seq),
                       record.example, record.candidate);
      break;
    case MutationRecord::Kind::kReplace:
      body = StrFormat("replace %llu %d",
                       static_cast<unsigned long long>(record.seq),
                       record.example);
      AppendCandidates(record.candidates, &body);
      break;
    case MutationRecord::Kind::kAdd:
      body = StrFormat("add %llu %d",
                       static_cast<unsigned long long>(record.seq),
                       record.label);
      AppendCandidates(record.candidates, &body);
      break;
  }
  return body + StrFormat(" #%016llx",
                          static_cast<unsigned long long>(Fnv1a64(body)));
}

Result<MutationRecord> DecodeLogRecord(const std::string& line) {
  const size_t hash = line.rfind(" #");
  if (hash == std::string::npos || line.size() != hash + 18) {
    return Status::ParseError("log record missing checksum: " + line);
  }
  const std::string body = line.substr(0, hash);
  CP_ASSIGN_OR_RETURN(const uint64_t crc,
                      ParseUint64(line.substr(hash + 2), 16));
  if (crc != Fnv1a64(body)) {
    return Status::ParseError("log record checksum mismatch: " + line);
  }
  std::vector<std::string> fields = Split(body, ' ');
  if (fields.size() < 3) return Status::ParseError("short log record: " + body);
  MutationRecord record;
  CP_ASSIGN_OR_RETURN(record.seq, ParseUint64(fields[1], 10));
  if (fields[0] == "fix") {
    if (fields.size() != 4) return Status::ParseError("bad fix record");
    CP_ASSIGN_OR_RETURN(record.example, ParseInt(fields[2]));
    CP_ASSIGN_OR_RETURN(record.candidate, ParseInt(fields[3]));
    record.kind = MutationRecord::Kind::kFix;
  } else if (fields[0] == "replace") {
    CP_ASSIGN_OR_RETURN(record.example, ParseInt(fields[2]));
    CP_RETURN_NOT_OK(ParseCandidates(fields, 3, &record.candidates));
    record.kind = MutationRecord::Kind::kReplace;
  } else if (fields[0] == "add") {
    CP_ASSIGN_OR_RETURN(record.label, ParseInt(fields[2]));
    CP_RETURN_NOT_OK(ParseCandidates(fields, 3, &record.candidates));
    record.kind = MutationRecord::Kind::kAdd;
  } else {
    return Status::ParseError("unknown log record kind: " + fields[0]);
  }
  return record;
}

Result<LogScan> ScanCleaningLog(const std::string& path) {
  LogScan scan;
  std::ifstream file(path, std::ios::binary);
  if (!file) return scan;  // no log = empty log
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return scan;

  size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // No newline: this line never finished landing. Only legal at EOF.
      scan.truncated_tail = true;
      return scan;
    }
    const std::string line = text.substr(pos, nl - pos);
    const size_t line_end = nl + 1;
    if (!saw_header) {
      if (line != kLogMagic) {
        // A torn first write can leave a partial header; only the final
        // line may be damaged, and the header is final iff nothing follows.
        if (line_end >= text.size()) {
          scan.truncated_tail = true;
          return scan;
        }
        return Status::IoError("cleaning log has a bad header: " + path);
      }
      saw_header = true;
      scan.durable_bytes = line_end;
      pos = line_end;
      continue;
    }
    Result<MutationRecord> record = DecodeLogRecord(line);
    if (!record.ok()) {
      if (line_end >= text.size()) {
        scan.truncated_tail = true;  // torn final record: drop it
        return scan;
      }
      return Status::IoError(StrFormat(
          "cleaning log corrupt mid-file at byte %zu: %s", pos,
          record.status().message().c_str()));
    }
    if (record.value().seq <= scan.last_seq) {
      return Status::IoError("cleaning log sequence numbers not increasing");
    }
    scan.last_seq = record.value().seq;
    scan.records.push_back(std::move(record.value()));
    scan.durable_bytes = line_end;
    pos = line_end;
  }
  return scan;
}

Result<LogScan> ScanCleaningLogForAppend(const std::string& path) {
  CP_ASSIGN_OR_RETURN(LogScan scan, ScanCleaningLog(path));
  if (scan.truncated_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, scan.durable_bytes, ec);
    if (ec) {
      return Status::IoError("cannot truncate torn log tail: " + path);
    }
  }
  return scan;
}

Result<size_t> AppendCleaningLog(const std::string& path,
                                 const std::vector<std::string>& lines) {
  if (FaultHit("log.append")) {
    return Status::IoError("injected fault: log.append");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot open log %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  const off_t start = ::lseek(fd, 0, SEEK_END);
  std::string payload;
  if (start == 0) {
    payload += kLogMagic;
    payload += '\n';
  }
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  auto fail = [&](const char* what) {
    // Best-effort rewind so an in-process retry appends to a clean
    // boundary (a crash instead leaves a torn tail for the scanner).
    if (start >= 0) ::ftruncate(fd, start);
    ::close(fd);
    return Status::IoError(StrFormat("log %s failed for %s: %s", what,
                                     path.c_str(), std::strerror(errno)));
  };
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n <= 0) return fail("append");
    written += static_cast<size_t>(n);
  }
  if (FaultHit("log.fsync") || ::fsync(fd) != 0) return fail("fsync");
  ::close(fd);
  return payload.size();
}

Status ReplayCleaningLog(const std::vector<MutationRecord>& records,
                         uint64_t from_seq, IncompleteDataset* dataset,
                         std::vector<int>* fixed_examples) {
  if (FaultHit("log.replay")) {
    return Status::IoError("injected fault: log.replay");
  }
  for (const MutationRecord& record : records) {
    if (record.seq <= from_seq) continue;
    if (record.seq != dataset->version() + 1) {
      return Status::IoError(StrFormat(
          "log replay gap: record seq %llu onto dataset version %llu",
          static_cast<unsigned long long>(record.seq),
          static_cast<unsigned long long>(dataset->version())));
    }
    switch (record.kind) {
      case MutationRecord::Kind::kFix:
        if (record.example < 0 || record.example >= dataset->num_examples() ||
            record.candidate < 0 ||
            record.candidate >= dataset->num_candidates(record.example)) {
          return Status::IoError("log fix record out of range");
        }
        dataset->FixExample(record.example, record.candidate);
        if (fixed_examples != nullptr) {
          fixed_examples->push_back(record.example);
        }
        break;
      case MutationRecord::Kind::kReplace:
        if (record.example < 0 || record.example >= dataset->num_examples() ||
            record.candidates.empty()) {
          return Status::IoError("log replace record out of range");
        }
        for (const auto& c : record.candidates) {
          if (static_cast<int>(c.size()) != dataset->dim()) {
            return Status::IoError("log replace record dimension mismatch");
          }
        }
        dataset->ReplaceCandidates(record.example, record.candidates);
        break;
      case MutationRecord::Kind::kAdd: {
        IncompleteExample example;
        example.candidates = record.candidates;
        example.label = record.label;
        CP_RETURN_NOT_OK(dataset->AddExample(std::move(example)));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace cpclean
