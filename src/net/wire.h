#ifndef LABFLOW_NET_WIRE_H_
#define LABFLOW_NET_WIRE_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "common/status.h"
#include "labbase/session_iface.h"

namespace labflow::net {

/// The labflowd wire protocol.
///
/// Everything on the socket is a *frame*: a varint length prefix followed
/// by that many payload bytes. Payloads reuse the storage codec
/// (common/codec.h): LEB128 varints, length-prefixed strings, tagged
/// Values — one codec on both sides of every durability and network
/// boundary.
///
///   frame    := len:varint payload[len]
///   request  := request_id:varint op:u8 session_id:varint body
///   response := request_id:varint code:u8 message:string body
///
/// `request_id` is chosen by the client and echoed verbatim in the
/// response; it is what lets requests *pipeline*: a client may have any
/// number of requests in flight per connection and match completions by
/// id, in whatever order they arrive. The server preserves order only
/// within a session (a session is single-threaded by contract); requests
/// for different sessions multiplexed on one connection complete in any
/// order.
///
/// `code` is the StatusCode of the operation (0 = OK). `message` is the
/// status message (empty on success). `body` is the op-specific result
/// payload, present only when code == 0.
///
/// All decode paths treat the bytes as untrusted: truncated or oversized
/// input returns Corruption, never reads past the buffer, and never
/// allocates more than the received byte count. See docs/SERVER.md for the
/// full frame catalogue.

/// Protocol version, exchanged in kSessionOpen. Bump on any incompatible
/// frame-layout change. v2: WireServerStats gained the LSM counter block.
inline constexpr uint32_t kProtocolVersion = 2;

/// Hard ceiling on one frame's payload (16 MiB). A length prefix above
/// this is Corruption: it is either a desynchronized stream or an
/// adversarial allocation probe, and both end the connection.
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;

/// Whether an op runs on the connection (no session lease) or on a session.
enum class OpScope : uint8_t { kControl, kSession };

/// What a generated session op does beyond decode, call, encode.
enum class OpKind : uint8_t {
  kPlain,
  kBeginTxn,  ///< the client marks its session in a transaction on OK
  kEndTxn,    ///< the client marks it out of one, whatever the outcome
  kDefine,    ///< DDL: the OK body appends the updated schema blob, which
              ///< replaces the client's schema cache
};

/// The LabBaseStats counter a RemoteSession stub bumps: on every call, or
/// only on success — the same accounting as LabBase::Session.
struct Tally {
  uint64_t labbase::LabBaseStats::*counter = nullptr;
  bool on_success = false;
};
inline constexpr Tally kNoTally{};
inline constexpr Tally kMostRecentQuery{
    &labbase::LabBaseStats::most_recent_queries};
inline constexpr Tally kHistoryQuery{&labbase::LabBaseStats::history_queries};
inline constexpr Tally kStateQuery{&labbase::LabBaseStats::state_queries};
inline constexpr Tally kSetOperation{&labbase::LabBaseStats::set_operations};
inline constexpr Tally kMaterialCreated{
    &labbase::LabBaseStats::materials_created, true};
inline constexpr Tally kStepRecorded{&labbase::LabBaseStats::steps_recorded,
                                     true};

/// The wire op catalogue: the one definition of every op, in code order.
/// Codes are stable; append only. Add an op with one row here (plus, for a
/// CALL row, its SessionIface method).
///
///   HAND(Name, code, scope): served by a hand-written Server::Handle<Name>;
///     no generated client stub.
///   CALL(Name, code, Method, kind, tally, Ret, (params), (args)): calls
///     SessionIface::Method(params) -> Ret. The server handler and the
///     RemoteSession stub are both generated from the row; the request body
///     is the params in order, the OK body is Ret's value.
#define LABFLOW_WIRE_OPS(HAND, CALL)                                          \
  HAND(Ping, 1, kControl)                                                     \
  HAND(SessionOpen, 2, kControl)                                              \
  HAND(SessionClose, 3, kSession)                                             \
  CALL(Begin, 4, Begin, kBeginTxn, kNoTally, Status, (), ())                  \
  CALL(Commit, 5, Commit, kEndTxn, kNoTally, Status, (), ())                  \
  CALL(Abort, 6, Abort, kEndTxn, kNoTally, Status, (), ())                    \
  CALL(DefineMaterialClass, 7, DefineMaterialClass, kDefine, kNoTally,        \
       Result<labbase::ClassId>, (std::string_view name), (name))             \
  CALL(DefineStepClass, 8, DefineStepClass, kDefine, kNoTally,                \
       Result<labbase::ClassId>,                                              \
       (std::string_view name, const std::vector<std::string>& attr_names),   \
       (name, attr_names))                                                    \
  CALL(DefineState, 9, DefineState, kDefine, kNoTally,                        \
       Result<labbase::StateId>, (std::string_view name), (name))             \
  HAND(GetSchema, 10, kSession)                                               \
  CALL(CreateMaterial, 11, CreateMaterial, kPlain, kMaterialCreated,          \
       Result<Oid>,                                                           \
       (labbase::ClassId material_class, std::string_view name,               \
        labbase::StateId initial_state, Timestamp created),                   \
       (material_class, name, initial_state, created))                        \
  CALL(RecordStep, 12, RecordStep, kPlain, kStepRecorded, Result<Oid>,        \
       (labbase::ClassId step_class, Timestamp time,                          \
        const std::vector<labbase::StepEffect>& effects),                     \
       (step_class, time, effects))                                           \
  CALL(MostRecent, 13, MostRecent, kPlain, kMostRecentQuery, Result<Value>,   \
       (Oid material, labbase::AttrId attr), (material, attr))                \
  CALL(MostRecentByName, 14, MostRecent, kPlain, kMostRecentQuery,            \
       Result<Value>, (Oid material, std::string_view attr_name),             \
       (material, attr_name))                                                 \
  CALL(ValueAsOf, 15, ValueAsOf, kPlain, kHistoryQuery, Result<Value>,        \
       (Oid material, labbase::AttrId attr, Timestamp at),                    \
       (material, attr, at))                                                  \
  CALL(History, 16, History, kPlain, kHistoryQuery,                           \
       Result<std::vector<labbase::HistoryEntry>>,                            \
       (Oid material, labbase::AttrId attr), (material, attr))                \
  CALL(HistoryBetween, 17, HistoryBetween, kPlain, kHistoryQuery,             \
       Result<std::vector<labbase::HistoryEntry>>,                            \
       (Oid material, labbase::AttrId attr, Timestamp from, Timestamp to),    \
       (material, attr, from, to))                                            \
  CALL(GetMaterial, 18, GetMaterial, kPlain, kNoTally,                        \
       Result<labbase::MaterialInfo>, (Oid material), (material))             \
  CALL(GetStep, 19, GetStep, kPlain, kNoTally, Result<labbase::StepInfo>,     \
       (Oid step), (step))                                                    \
  CALL(FindMaterialByName, 20, FindMaterialByName, kPlain, kNoTally,          \
       Result<Oid>, (std::string_view name), (name))                          \
  CALL(CurrentState, 21, CurrentState, kPlain, kStateQuery,                   \
       Result<labbase::StateId>, (Oid material), (material))                  \
  CALL(MaterialsInState, 22, MaterialsInState, kPlain, kStateQuery,           \
       Result<std::vector<Oid>>, (labbase::StateId state), (state))           \
  CALL(CountInState, 23, CountInState, kPlain, kStateQuery, Result<int64_t>,  \
       (labbase::StateId state), (state))                                     \
  CALL(MaterialsOfClass, 24, MaterialsOfClass, kPlain, kStateQuery,           \
       Result<std::vector<Oid>>, (labbase::ClassId material_class),           \
       (material_class))                                                      \
  CALL(CreateSet, 25, CreateSet, kPlain, kSetOperation, Result<Oid>,          \
       (std::string_view name), (name))                                       \
  CALL(AddToSet, 26, AddToSet, kPlain, kSetOperation, Status,                 \
       (Oid set, Oid material), (set, material))                              \
  CALL(RemoveFromSet, 27, RemoveFromSet, kPlain, kSetOperation, Status,       \
       (Oid set, Oid material), (set, material))                              \
  CALL(SetMembers, 28, SetMembers, kPlain, kSetOperation,                     \
       Result<std::vector<Oid>>, (Oid set), (set))                            \
  CALL(FindSetByName, 29, FindSetByName, kPlain, kSetOperation, Result<Oid>,  \
       (std::string_view name), (name))                                       \
  CALL(Checkpoint, 30, Checkpoint, kPlain, kNoTally, Status, (), ())          \
  HAND(ServerStats, 31, kControl)                                             \
  CALL(BeginReadOnly, 32, BeginReadOnly, kBeginTxn, kNoTally, Status, (), ()) \
  CALL(ListSteps, 33, ListSteps, kPlain, kNoTally, Result<std::vector<Oid>>,  \
       (), ())

/// Expands a LABFLOW_WIRE_OPS column to nothing.
#define LABFLOW_WIRE_SKIP(...)

#define LABFLOW_WIRE_ENUMERATOR(Name, code, ...) k##Name = code,
/// Request opcodes, generated from LABFLOW_WIRE_OPS.
enum class Op : uint8_t {
  LABFLOW_WIRE_OPS(LABFLOW_WIRE_ENUMERATOR, LABFLOW_WIRE_ENUMERATOR)
};
#undef LABFLOW_WIRE_ENUMERATOR

struct OpInfo {
  Op op;
  std::string_view name;
  OpScope scope;
};

#define LABFLOW_WIRE_HAND_INFO(Name, code, scope) \
  {Op::k##Name, #Name, OpScope::scope},
#define LABFLOW_WIRE_CALL_INFO(Name, code, ...) \
  {Op::k##Name, #Name, OpScope::kSession},
inline constexpr OpInfo kOps[] = {
    LABFLOW_WIRE_OPS(LABFLOW_WIRE_HAND_INFO, LABFLOW_WIRE_CALL_INFO)};
#undef LABFLOW_WIRE_HAND_INFO
#undef LABFLOW_WIRE_CALL_INFO

inline constexpr uint8_t kOpCount = std::size(kOps);
inline constexpr uint8_t kMinOp = static_cast<uint8_t>(kOps[0].op);
inline constexpr uint8_t kMaxOp = static_cast<uint8_t>(kOps[kOpCount - 1].op);

constexpr bool OpsAreDense() {
  for (uint8_t i = 0; i < kOpCount; ++i) {
    if (static_cast<uint8_t>(kOps[i].op) != kMinOp + i) return false;
  }
  return true;
}
static_assert(OpsAreDense(),
              "LABFLOW_WIRE_OPS rows must list codes densely, in order");

/// The catalogue row of a valid op (DecodeRequestHeader admits no other).
constexpr const OpInfo& InfoOf(Op op) {
  return kOps[static_cast<uint8_t>(op) - kMinOp];
}

/// Stable human-readable opcode name, for logs and errors.
constexpr std::string_view OpName(Op op) {
  uint8_t code = static_cast<uint8_t>(op);
  return code >= kMinOp && code <= kMaxOp ? InfoOf(op).name : "UnknownOp";
}

/// Appends `payload` to `wire` as one frame (varint length + bytes).
void AppendFrame(std::string* wire, std::string_view payload);

/// Incremental frame reassembly over an untrusted byte stream. Feed
/// whatever the socket produced — single bytes, half frames, several
/// frames at once — and take complete frames out. Used by both the server
/// (per connection) and the client (response stream).
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}

  /// Buffers more stream bytes.
  void Append(std::string_view bytes);

  /// If a complete frame is buffered, moves its payload into *frame and
  /// returns true. Returns false when more bytes are needed. Returns
  /// Corruption — permanently; the stream is desynchronized — on a
  /// malformed or oversized length prefix.
  Result<bool> Next(std::string* frame);

  /// Bytes buffered and not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  const uint32_t max_frame_;
  bool poisoned_ = false;
  std::string buf_;
  size_t pos_ = 0;
};

// ---- Headers ----------------------------------------------------------------

struct RequestHeader {
  uint64_t request_id = 0;
  Op op = Op::kPing;
  uint64_t session_id = 0;
};

void EncodeRequestHeader(Encoder* e, const RequestHeader& h);
Result<RequestHeader> DecodeRequestHeader(Decoder* d);

struct ResponseHeader {
  uint64_t request_id = 0;
  Status status;
};

void EncodeResponseHeader(Encoder* e, uint64_t request_id, const Status& st);
Result<ResponseHeader> DecodeResponseHeader(Decoder* d);

// ---- Body payloads ----------------------------------------------------------
//
// Symmetric encode/decode helpers for every composite the protocol
// carries. Client and server share these, so a roundtrip test of each
// helper covers both directions of the wire.

void EncodeOid(Encoder* e, Oid oid);
Result<Oid> DecodeOid(Decoder* d);

void EncodeTimestamp(Encoder* e, Timestamp t);
Result<Timestamp> DecodeTimestamp(Decoder* d);

void EncodeOids(Encoder* e, const std::vector<Oid>& oids);
Result<std::vector<Oid>> DecodeOids(Decoder* d);

void EncodeHistoryEntries(Encoder* e,
                          const std::vector<labbase::HistoryEntry>& entries);
Result<std::vector<labbase::HistoryEntry>> DecodeHistoryEntries(Decoder* d);

void EncodeMaterialInfo(Encoder* e, const labbase::MaterialInfo& info);
Result<labbase::MaterialInfo> DecodeMaterialInfo(Decoder* d);

void EncodeStepInfo(Encoder* e, const labbase::StepInfo& info);
Result<labbase::StepInfo> DecodeStepInfo(Decoder* d);

void EncodeStepEffects(Encoder* e,
                       const std::vector<labbase::StepEffect>& effects);
Result<std::vector<labbase::StepEffect>> DecodeStepEffects(Decoder* d);

void EncodeStrings(Encoder* e, const std::vector<std::string>& strings);
Result<std::vector<std::string>> DecodeStrings(Decoder* d);

/// Wire<T>: one Put/Get per type a generated op carries, so the generated
/// server handlers and client stubs encode every argument and result the
/// same way.
template <typename T>
struct Wire;

#define LABFLOW_WIRE_CODEC(T, In, put, get)                  \
  template <>                                                \
  struct Wire<T> {                                           \
    static void Put(Encoder* e, In v) { put; }               \
    static Result<T> Get(Decoder* d) { return get; }         \
  };
LABFLOW_WIRE_CODEC(uint32_t, uint32_t, e->PutU32(v), d->GetU32())
LABFLOW_WIRE_CODEC(int64_t, int64_t, e->PutI64(v), d->GetI64())
LABFLOW_WIRE_CODEC(std::string, std::string_view, e->PutString(v),
                   d->GetString())
LABFLOW_WIRE_CODEC(Oid, Oid, EncodeOid(e, v), DecodeOid(d))
LABFLOW_WIRE_CODEC(Timestamp, Timestamp, EncodeTimestamp(e, v),
                   DecodeTimestamp(d))
LABFLOW_WIRE_CODEC(Value, const Value&, e->PutValue(v), d->GetValue())
LABFLOW_WIRE_CODEC(std::vector<Oid>, const std::vector<Oid>&, EncodeOids(e, v),
                   DecodeOids(d))
LABFLOW_WIRE_CODEC(std::vector<labbase::HistoryEntry>,
                   const std::vector<labbase::HistoryEntry>&,
                   EncodeHistoryEntries(e, v), DecodeHistoryEntries(d))
LABFLOW_WIRE_CODEC(labbase::MaterialInfo, const labbase::MaterialInfo&,
                   EncodeMaterialInfo(e, v), DecodeMaterialInfo(d))
LABFLOW_WIRE_CODEC(labbase::StepInfo, const labbase::StepInfo&,
                   EncodeStepInfo(e, v), DecodeStepInfo(d))
LABFLOW_WIRE_CODEC(std::vector<labbase::StepEffect>,
                   const std::vector<labbase::StepEffect>&,
                   EncodeStepEffects(e, v), DecodeStepEffects(d))
LABFLOW_WIRE_CODEC(std::vector<std::string>, const std::vector<std::string>&,
                   EncodeStrings(e, v), DecodeStrings(d))
#undef LABFLOW_WIRE_CODEC

/// The wire type of a SessionIface parameter: by value, string_view
/// arriving as an owned string.
template <typename P>
struct WireTypeOf {
  using type = std::remove_cvref_t<P>;
};
template <>
struct WireTypeOf<std::string_view> {
  using type = std::string;
};
template <typename P>
using WireType = typename WireTypeOf<std::remove_cvref_t<P>>::type;

/// Server-side storage counters exposed to remote clients (kServerStats),
/// so a remote bench can report I/O alongside latency. The lsm_* block is
/// all-zero for non-LSM server versions (protocol v2 additions).
struct WireServerStats {
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t txn_commits = 0;
  uint64_t db_size_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t lsm_memtable_bytes = 0;
  std::vector<uint64_t> lsm_level_files;
  uint64_t lsm_compaction_bytes_read = 0;
  uint64_t lsm_compaction_bytes_written = 0;
  uint64_t lsm_bloom_checks = 0;
  uint64_t lsm_bloom_hits = 0;
  uint64_t lsm_write_throttles = 0;
};

void EncodeServerStats(Encoder* e, const WireServerStats& s);
Result<WireServerStats> DecodeServerStats(Decoder* d);

}  // namespace labflow::net

#endif  // LABFLOW_NET_WIRE_H_
