#include "storage/snapshot.h"

#include <memory>

#include "core/io/crc32.h"
#include "storage/codec.h"

namespace strdb {

namespace {

void AppendLenPrefixed(std::string* out, const std::string& s) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

std::string RenderSnapshot(const Database& db,
                           const std::map<std::string, std::string>& automata,
                           const std::vector<CatalogOp>* spills) {
  std::string out = "strdbsnap ";
  out.append(std::to_string(kSnapshotFormatVersion));
  out.push_back('\n');
  out.append("alphabet ");
  std::string chars;
  for (Sym s = 0; s < db.alphabet().size(); ++s) {
    chars.push_back(db.alphabet().CharOf(s));
  }
  AppendLenPrefixed(&out, chars);
  out.push_back('\n');

  std::vector<std::string> ops;
  ops.reserve(db.relations().size() + automata.size());
  for (const auto& [name, rel] : db.relations()) {
    ops.push_back(EncodePut(name, rel));
  }
  if (spills != nullptr) {
    for (const CatalogOp& op : *spills) ops.push_back(EncodeOp(op));
  }
  for (const auto& [key, text] : automata) {
    ops.push_back(EncodeFsa(key, text));
  }
  out.append("ops ");
  out.append(std::to_string(ops.size()));
  out.push_back('\n');
  for (const std::string& op : ops) {
    out.append("op ");
    AppendLenPrefixed(&out, op);
    out.push_back('\n');
  }
  // The checksum covers everything before the trailer line itself.
  uint32_t crc = Crc32(out);
  out.append("crc32 ");
  out.append(Crc32Hex(crc));
  out.push_back('\n');
  return out;
}

}  // namespace

Result<size_t> VerifySnapshotTrailer(std::string_view data) {
  size_t crc_pos = data.rfind("\ncrc32 ");
  if (crc_pos == std::string_view::npos) {
    return Status::DataLoss("missing crc32 trailer (truncated?)");
  }
  std::string_view hex = data.substr(crc_pos + 7);
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r')) {
    hex.remove_suffix(1);
  }
  uint32_t stated = 0;
  if (!ParseCrc32Hex(std::string(hex), &stated)) {
    return Status::DataLoss("malformed crc32 trailer");
  }
  const size_t body_len = crc_pos + 1;
  if (Crc32(data.data(), body_len) != stated) {
    return Status::DataLoss("checksum mismatch");
  }
  return body_len;
}

Status WriteSnapshot(Env* env, const std::string& dir,
                     const std::string& tmp_path, const std::string& path,
                     const Database& db,
                     const std::map<std::string, std::string>& automata,
                     const RetryPolicy& retry, int64_t* io_retries,
                     const std::vector<CatalogOp>* spills) {
  std::string content = RenderSnapshot(db, automata, spills);
  std::unique_ptr<WritableFile> file;
  STRDB_RETURN_IF_ERROR(RetryIo(env, retry, io_retries, [&] {
    auto opened = env->NewWritableFile(tmp_path, /*truncate=*/true);
    if (!opened.ok()) return opened.status();
    file = std::move(*opened);
    return Status::OK();
  }));
  STRDB_RETURN_IF_ERROR(
      RetryIo(env, retry, io_retries, [&] { return file->Append(content); }));
  STRDB_RETURN_IF_ERROR(
      RetryIo(env, retry, io_retries, [&] { return file->Sync(); }));
  STRDB_RETURN_IF_ERROR(
      RetryIo(env, retry, io_retries, [&] { return file->Close(); }));
  // The atomic commit of this snapshot file (CURRENT still decides
  // whether it is *live*).
  STRDB_RETURN_IF_ERROR(RetryIo(env, retry, io_retries,
                                [&] { return env->Rename(tmp_path, path); }));
  return RetryIo(env, retry, io_retries, [&] { return env->SyncDir(dir); });
}

Status ReadSnapshot(Env* env, const std::string& path, Database* db,
                    std::map<std::string, std::string>* automata,
                    const RetryPolicy& retry, int64_t* io_retries,
                    std::vector<CatalogOp>* spills) {
  std::string data;
  STRDB_RETURN_IF_ERROR(RetryIo(env, retry, io_retries, [&] {
    auto read = env->ReadFile(path);
    if (!read.ok()) return read.status();
    data = std::move(*read);
    return Status::OK();
  }));

  // Verify the trailer before believing a single byte, then drop it:
  // the body is the checksummed prefix, kept in place.
  Result<size_t> body_len = VerifySnapshotTrailer(data);
  if (!body_len.ok()) {
    return Status::DataLoss("snapshot '" + path +
                            "': " + body_len.status().message());
  }
  data.resize(*body_len);
  const std::string& body = data;

  // Header lines.  The body is trusted from here on (checksummed), so
  // parse failures are still reported as corruption, just with a precise
  // message.
  size_t pos = 0;
  auto read_line = [&](std::string* line) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) return false;
    *line = body.substr(pos, end - pos);
    pos = end + 1;
    return true;
  };
  std::string line;
  if (!read_line(&line) || line.rfind("strdbsnap ", 0) != 0) {
    return Status::DataLoss("snapshot '" + path + "': missing version header");
  }
  std::string version = line.substr(10);
  if (version != std::to_string(kSnapshotFormatVersion)) {
    return Status::Unimplemented(
        "snapshot '" + path + "': unsupported format version " + version +
        " (this build speaks " + std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (!read_line(&line) || line.rfind("alphabet ", 0) != 0) {
    return Status::DataLoss("snapshot '" + path + "': missing alphabet line");
  }
  size_t colon = line.find(':', 9);
  if (colon == std::string::npos) {
    return Status::DataLoss("snapshot '" + path + "': malformed alphabet line");
  }
  std::string stored_chars = line.substr(colon + 1);
  std::string db_chars;
  for (Sym s = 0; s < db->alphabet().size(); ++s) {
    db_chars.push_back(db->alphabet().CharOf(s));
  }
  if (stored_chars != db_chars) {
    return Status::InvalidArgument("snapshot '" + path + "' uses alphabet {" +
                                   stored_chars + "}, store opened with {" +
                                   db_chars + "}");
  }
  if (!read_line(&line) || line.rfind("ops ", 0) != 0) {
    return Status::DataLoss("snapshot '" + path + "': missing ops line");
  }
  int64_t declared = -1;
  {
    int64_t value = 0;
    bool ok = line.size() > 4;
    for (size_t i = 4; i < line.size() && ok; ++i) {
      char c = line[i];
      if (c < '0' || c > '9') ok = false;
      value = value * 10 + (c - '0');
      if (value > (int64_t{1} << 40)) ok = false;
    }
    if (!ok) {
      return Status::DataLoss("snapshot '" + path + "': malformed ops count");
    }
    declared = value;
  }

  int64_t seen = 0;
  while (pos < body.size()) {
    if (body.compare(pos, 3, "op ") != 0) {
      return Status::DataLoss("snapshot '" + path +
                              "': malformed op frame at offset " +
                              std::to_string(pos));
    }
    pos += 3;
    size_t colon2 = body.find(':', pos);
    if (colon2 == std::string::npos) {
      return Status::DataLoss("snapshot '" + path + "': malformed op length");
    }
    int64_t len = 0;
    for (size_t i = pos; i < colon2; ++i) {
      char c = body[i];
      if (c < '0' || c > '9') {
        return Status::DataLoss("snapshot '" + path + "': malformed op length");
      }
      len = len * 10 + (c - '0');
      if (len > (int64_t{1} << 40)) {
        return Status::DataLoss("snapshot '" + path + "': absurd op length");
      }
    }
    pos = colon2 + 1;
    if (pos + static_cast<size_t>(len) + 1 > body.size()) {
      return Status::DataLoss("snapshot '" + path + "': op overruns body");
    }
    std::string payload = body.substr(pos, static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
    if (body[pos] != '\n') {
      return Status::DataLoss("snapshot '" + path + "': missing op terminator");
    }
    ++pos;
    STRDB_ASSIGN_OR_RETURN(CatalogOp op, DecodeOp(payload));
    if ((op.kind == CatalogOp::kSpill || op.kind == CatalogOp::kReqId ||
         op.kind == CatalogOp::kLost || op.kind == CatalogOp::kStats) &&
        spills != nullptr) {
      // kStats written by older stores may name an inline relation (the
      // store prunes it at open); only the relation-shaped side-ops are
      // exclusive with inline.
      if (op.kind != CatalogOp::kReqId && op.kind != CatalogOp::kStats &&
          db->Has(op.name)) {
        return Status::DataLoss("snapshot '" + path + "': relation '" +
                                op.name + "' both inline and spilled");
      }
      spills->push_back(std::move(op));
    } else {
      STRDB_RETURN_IF_ERROR(ApplyOp(op, db->alphabet(), db, automata));
    }
    ++seen;
  }
  if (seen != declared) {
    return Status::DataLoss("snapshot '" + path + "': declared " +
                            std::to_string(declared) + " ops, found " +
                            std::to_string(seen));
  }
  return Status::OK();
}

}  // namespace strdb
