#include "net/wire.h"

#include "common/status_macros.h"

namespace labflow::net {

void AppendFrame(std::string* wire, std::string_view payload) {
  Encoder len;
  len.PutU64(payload.size());
  wire->append(len.buffer());
  wire->append(payload.data(), payload.size());
}

void FrameReader::Append(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

Result<bool> FrameReader::Next(std::string* frame) {
  if (poisoned_) {
    return Status::Corruption("frame stream desynchronized by earlier error");
  }
  // Decode the varint length prefix by hand: a partial varint is "need
  // more bytes", not corruption — but a prefix that cannot terminate
  // within 5 bytes already exceeds any length kMaxFrameBytes admits, and
  // is rejected without waiting for the rest of it.
  uint64_t len = 0;
  int shift = 0;
  size_t p = pos_;
  while (true) {
    if (p >= buf_.size()) return false;  // prefix incomplete
    uint8_t b = static_cast<uint8_t>(buf_[p++]);
    len |= static_cast<uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    if (shift >= 35) {
      poisoned_ = true;
      return Status::Corruption("frame length prefix too long");
    }
  }
  if (len > max_frame_) {
    poisoned_ = true;
    return Status::Corruption("frame length " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_frame_));
  }
  if (buf_.size() - p < len) return false;  // payload incomplete
  frame->assign(buf_, p, len);
  pos_ = p + len;
  // Reclaim the consumed prefix once it dominates the buffer, amortized
  // O(1) per byte.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

// ---- Headers ----------------------------------------------------------------

void EncodeRequestHeader(Encoder* e, const RequestHeader& h) {
  e->PutU64(h.request_id);
  e->PutU8(static_cast<uint8_t>(h.op));
  e->PutU64(h.session_id);
}

Result<RequestHeader> DecodeRequestHeader(Decoder* d) {
  RequestHeader h;
  LABFLOW_ASSIGN_OR_RETURN(h.request_id, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(uint8_t op, d->GetU8());
  if (op < kMinOp || op > kMaxOp) {
    return Status::Corruption("unknown opcode " + std::to_string(op));
  }
  h.op = static_cast<Op>(op);
  LABFLOW_ASSIGN_OR_RETURN(h.session_id, d->GetU64());
  return h;
}

void EncodeResponseHeader(Encoder* e, uint64_t request_id, const Status& st) {
  e->PutU64(request_id);
  e->PutU8(static_cast<uint8_t>(st.code()));
  e->PutString(st.message());
}

Result<ResponseHeader> DecodeResponseHeader(Decoder* d) {
  ResponseHeader h;
  LABFLOW_ASSIGN_OR_RETURN(h.request_id, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(uint8_t code, d->GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  LABFLOW_ASSIGN_OR_RETURN(std::string message, d->GetString());
  h.status = Status(static_cast<StatusCode>(code), std::move(message));
  return h;
}

// ---- Body payloads ----------------------------------------------------------

void EncodeOid(Encoder* e, Oid oid) { e->PutU64(oid.raw); }

Result<Oid> DecodeOid(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t raw, d->GetU64());
  return Oid(raw);
}

void EncodeTimestamp(Encoder* e, Timestamp t) { e->PutI64(t.micros); }

Result<Timestamp> DecodeTimestamp(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(int64_t us, d->GetI64());
  return Timestamp(us);
}

namespace {

/// Validates an element count against the bytes actually on hand: every
/// element costs at least one byte, so a count above remaining() is
/// corrupt — reject before reserving, so adversarial counts cannot drive
/// allocations past the received byte budget.
Result<uint64_t> GetCount(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, d->GetU64());
  if (n > d->remaining()) {
    return Status::Corruption("element count " + std::to_string(n) +
                              " exceeds remaining payload");
  }
  return n;
}

}  // namespace

void EncodeOids(Encoder* e, const std::vector<Oid>& oids) {
  e->PutU64(oids.size());
  for (Oid oid : oids) EncodeOid(e, oid);
}

Result<std::vector<Oid>> DecodeOids(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  std::vector<Oid> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LABFLOW_ASSIGN_OR_RETURN(Oid oid, DecodeOid(d));
    out.push_back(oid);
  }
  return out;
}

void EncodeHistoryEntries(Encoder* e,
                          const std::vector<labbase::HistoryEntry>& entries) {
  e->PutU64(entries.size());
  for (const labbase::HistoryEntry& entry : entries) {
    EncodeTimestamp(e, entry.time);
    e->PutValue(entry.value);
    EncodeOid(e, entry.step);
  }
}

Result<std::vector<labbase::HistoryEntry>> DecodeHistoryEntries(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  std::vector<labbase::HistoryEntry> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    labbase::HistoryEntry entry;
    LABFLOW_ASSIGN_OR_RETURN(entry.time, DecodeTimestamp(d));
    LABFLOW_ASSIGN_OR_RETURN(entry.value, d->GetValue());
    LABFLOW_ASSIGN_OR_RETURN(entry.step, DecodeOid(d));
    out.push_back(std::move(entry));
  }
  return out;
}

void EncodeMaterialInfo(Encoder* e, const labbase::MaterialInfo& info) {
  EncodeOid(e, info.id);
  e->PutU32(info.class_id);
  e->PutString(info.name);
  e->PutU32(info.state);
  EncodeTimestamp(e, info.created);
  e->PutU64(info.attrs_present.size());
  for (labbase::AttrId attr : info.attrs_present) e->PutU32(attr);
}

Result<labbase::MaterialInfo> DecodeMaterialInfo(Decoder* d) {
  labbase::MaterialInfo info;
  LABFLOW_ASSIGN_OR_RETURN(info.id, DecodeOid(d));
  LABFLOW_ASSIGN_OR_RETURN(info.class_id, d->GetU32());
  LABFLOW_ASSIGN_OR_RETURN(info.name, d->GetString());
  LABFLOW_ASSIGN_OR_RETURN(info.state, d->GetU32());
  LABFLOW_ASSIGN_OR_RETURN(info.created, DecodeTimestamp(d));
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  info.attrs_present.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LABFLOW_ASSIGN_OR_RETURN(labbase::AttrId attr, d->GetU32());
    info.attrs_present.push_back(attr);
  }
  return info;
}

void EncodeStepInfo(Encoder* e, const labbase::StepInfo& info) {
  EncodeOid(e, info.id);
  e->PutU32(info.class_id);
  e->PutU32(info.version);
  EncodeTimestamp(e, info.time);
  e->PutU64(info.materials.size());
  for (const labbase::StepMaterialEntry& m : info.materials) {
    e->PutU64(m.material.raw);
    e->PutU32(m.new_state);
    e->PutU64(m.tags.size());
    for (const labbase::StepTag& tag : m.tags) {
      e->PutU32(tag.attr);
      e->PutValue(tag.value);
    }
  }
}

Result<labbase::StepInfo> DecodeStepInfo(Decoder* d) {
  labbase::StepInfo info;
  LABFLOW_ASSIGN_OR_RETURN(info.id, DecodeOid(d));
  LABFLOW_ASSIGN_OR_RETURN(info.class_id, d->GetU32());
  LABFLOW_ASSIGN_OR_RETURN(info.version, d->GetU32());
  LABFLOW_ASSIGN_OR_RETURN(info.time, DecodeTimestamp(d));
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  info.materials.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    labbase::StepMaterialEntry m;
    LABFLOW_ASSIGN_OR_RETURN(uint64_t raw, d->GetU64());
    m.material = storage::ObjectId(raw);
    LABFLOW_ASSIGN_OR_RETURN(m.new_state, d->GetU32());
    LABFLOW_ASSIGN_OR_RETURN(uint64_t tags, GetCount(d));
    m.tags.reserve(tags);
    for (uint64_t j = 0; j < tags; ++j) {
      labbase::StepTag tag;
      LABFLOW_ASSIGN_OR_RETURN(tag.attr, d->GetU32());
      LABFLOW_ASSIGN_OR_RETURN(tag.value, d->GetValue());
      m.tags.push_back(std::move(tag));
    }
    info.materials.push_back(std::move(m));
  }
  return info;
}

void EncodeStepEffects(Encoder* e,
                       const std::vector<labbase::StepEffect>& effects) {
  e->PutU64(effects.size());
  for (const labbase::StepEffect& effect : effects) {
    EncodeOid(e, effect.material);
    e->PutU32(effect.new_state);
    e->PutU64(effect.tags.size());
    for (const labbase::StepTag& tag : effect.tags) {
      e->PutU32(tag.attr);
      e->PutValue(tag.value);
    }
  }
}

Result<std::vector<labbase::StepEffect>> DecodeStepEffects(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  std::vector<labbase::StepEffect> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    labbase::StepEffect effect;
    LABFLOW_ASSIGN_OR_RETURN(effect.material, DecodeOid(d));
    LABFLOW_ASSIGN_OR_RETURN(effect.new_state, d->GetU32());
    LABFLOW_ASSIGN_OR_RETURN(uint64_t tags, GetCount(d));
    effect.tags.reserve(tags);
    for (uint64_t j = 0; j < tags; ++j) {
      labbase::StepTag tag;
      LABFLOW_ASSIGN_OR_RETURN(tag.attr, d->GetU32());
      LABFLOW_ASSIGN_OR_RETURN(tag.value, d->GetValue());
      effect.tags.push_back(std::move(tag));
    }
    out.push_back(std::move(effect));
  }
  return out;
}

void EncodeStrings(Encoder* e, const std::vector<std::string>& strings) {
  e->PutU64(strings.size());
  for (const std::string& s : strings) e->PutString(s);
}

Result<std::vector<std::string>> DecodeStrings(Decoder* d) {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t n, GetCount(d));
  std::vector<std::string> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LABFLOW_ASSIGN_OR_RETURN(std::string s, d->GetString());
    out.push_back(std::move(s));
  }
  return out;
}

void EncodeServerStats(Encoder* e, const WireServerStats& s) {
  e->PutU64(s.disk_reads);
  e->PutU64(s.disk_writes);
  e->PutU64(s.cache_hits);
  e->PutU64(s.txn_commits);
  e->PutU64(s.db_size_bytes);
  e->PutU64(s.wal_bytes);
  e->PutU64(s.lsm_memtable_bytes);
  e->PutU64(s.lsm_level_files.size());
  for (uint64_t n : s.lsm_level_files) e->PutU64(n);
  e->PutU64(s.lsm_compaction_bytes_read);
  e->PutU64(s.lsm_compaction_bytes_written);
  e->PutU64(s.lsm_bloom_checks);
  e->PutU64(s.lsm_bloom_hits);
  e->PutU64(s.lsm_write_throttles);
}

Result<WireServerStats> DecodeServerStats(Decoder* d) {
  WireServerStats s;
  LABFLOW_ASSIGN_OR_RETURN(s.disk_reads, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.disk_writes, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.cache_hits, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.txn_commits, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.db_size_bytes, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.wal_bytes, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_memtable_bytes, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(uint64_t nlevels, d->GetU64());
  // Defensive bound: a level count is tiny in practice; a huge value here
  // is a corrupt or hostile frame, not a deep tree.
  if (nlevels > 64) {
    return Status::Corruption("server stats: implausible LSM level count");
  }
  for (uint64_t i = 0; i < nlevels; ++i) {
    LABFLOW_ASSIGN_OR_RETURN(uint64_t n, d->GetU64());
    s.lsm_level_files.push_back(n);
  }
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_compaction_bytes_read, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_compaction_bytes_written, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_bloom_checks, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_bloom_hits, d->GetU64());
  LABFLOW_ASSIGN_OR_RETURN(s.lsm_write_throttles, d->GetU64());
  return s;
}

}  // namespace labflow::net
