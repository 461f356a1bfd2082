#include "src/replica/messages.h"

#include "src/common/serde.h"

namespace votegral {

namespace {

uint16_t TypeTag(ReplicaMsgType type) { return static_cast<uint16_t>(type); }

// Wraps a payload parser so malformed channel bytes fail as kCorrupted
// values (ByteReader throws ProtocolError on truncation).
template <typename T, typename Fn>
Outcome<T> ParsePayload(const WireMessage& msg, ReplicaMsgType want,
                        const char* what, Fn&& parse) {
  using Out = Outcome<T>;
  if (msg.type != TypeTag(want)) {
    return Out::Fail(StatusCode::kCorrupted,
                     std::string("replica: expected ") + what + " message, got type " +
                         std::to_string(msg.type));
  }
  try {
    ByteReader reader(msg.payload);
    T out = parse(reader);
    reader.ExpectEnd();
    return Out::Ok(std::move(out));
  } catch (const ProtocolError& e) {
    return Out::Fail(StatusCode::kCorrupted,
                     std::string("replica: malformed ") + what + " payload: " + e.what());
  }
}

LedgerHash ReadHash(ByteReader& reader) {
  Bytes raw = reader.Fixed(32);
  LedgerHash hash;
  std::copy(raw.begin(), raw.end(), hash.begin());
  return hash;
}

}  // namespace

Bytes SignedCheckpoint::SignedStatement() const {
  uint8_t size_le[8];
  StoreLe64(size_le, size);
  return Concat({AsBytes(kCheckpointDomain), root, size_le});
}

Status SignedCheckpoint::Verify(const CompressedRistretto& leader_pk) const {
  Status s = SchnorrVerify(leader_pk, SignedStatement(), signature);
  if (!s.ok()) {
    return Status::Error(StatusCode::kInvalidProof,
                         "replica: checkpoint signature invalid for (root, size=" +
                             std::to_string(size) + "): " + s.reason());
  }
  return Status::Ok();
}

Bytes SignedCheckpoint::Serialize() const {
  ByteWriter w;
  w.Fixed(root);
  w.U64(size);
  w.Fixed(signature.Serialize());
  return w.Take();
}

Outcome<SignedCheckpoint> SignedCheckpoint::Parse(std::span<const uint8_t> bytes) {
  using Out = Outcome<SignedCheckpoint>;
  try {
    ByteReader reader(bytes);
    SignedCheckpoint cp;
    cp.root = ReadHash(reader);
    cp.size = reader.U64();
    Bytes sig_bytes = reader.Fixed(64);
    reader.ExpectEnd();
    auto sig = SchnorrSignature::Parse(sig_bytes);
    if (!sig.has_value()) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: checkpoint signature bytes do not parse");
    }
    cp.signature = *sig;
    return Out::Ok(std::move(cp));
  } catch (const ProtocolError& e) {
    return Out::Fail(StatusCode::kCorrupted,
                     std::string("replica: malformed checkpoint: ") + e.what());
  }
}

WireMessage EncodeGetCheckpoint(const GetCheckpointMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.have_size);
  return {TypeTag(ReplicaMsgType::kGetCheckpoint), w.Take()};
}

WireMessage EncodeCheckpoint(const CheckpointMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.Fixed(msg.checkpoint.Serialize());
  w.Var(msg.proof.Serialize());
  return {TypeTag(ReplicaMsgType::kCheckpoint), w.Take()};
}

WireMessage EncodeGetFrames(const GetFramesMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.from);
  w.U64(msg.max_entries);
  return {TypeTag(ReplicaMsgType::kGetFrames), w.Take()};
}

WireMessage EncodeFrames(const FramesMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U64(msg.first_index);
  w.U32(static_cast<uint32_t>(msg.entries.size()));
  Bytes frames;
  for (const LedgerEntry& entry : msg.entries) {
    AppendEntryFrame(&frames, entry);
  }
  w.Fixed(frames);
  return {TypeTag(ReplicaMsgType::kFrames), w.Take()};
}

WireMessage EncodeError(const ErrorMsg& msg) {
  ByteWriter w;
  w.U64(msg.request_id);
  w.U8(static_cast<uint8_t>(msg.code));
  w.Str(msg.reason);
  return {TypeTag(ReplicaMsgType::kError), w.Take()};
}

Outcome<GetCheckpointMsg> DecodeGetCheckpoint(const WireMessage& msg) {
  return ParsePayload<GetCheckpointMsg>(
      msg, ReplicaMsgType::kGetCheckpoint, "get_checkpoint", [](ByteReader& r) {
        GetCheckpointMsg out;
        out.request_id = r.U64();
        out.have_size = r.U64();
        return out;
      });
}

Outcome<CheckpointMsg> DecodeCheckpoint(const WireMessage& msg) {
  using Out = Outcome<CheckpointMsg>;
  if (msg.type != TypeTag(ReplicaMsgType::kCheckpoint)) {
    return Out::Fail(StatusCode::kCorrupted,
                     "replica: expected checkpoint message, got type " +
                         std::to_string(msg.type));
  }
  try {
    ByteReader reader(msg.payload);
    CheckpointMsg out;
    out.request_id = reader.U64();
    // SignedCheckpoint is a fixed 32+8+64 bytes.
    Bytes cp_bytes = reader.Fixed(32 + 8 + 64);
    Bytes proof_bytes = reader.Var();
    reader.ExpectEnd();
    auto cp = SignedCheckpoint::Parse(cp_bytes);
    if (!cp.ok()) {
      return Out::Fail(cp.status);
    }
    out.checkpoint = std::move(*cp);
    auto proof = ConsistencyProof::Parse(proof_bytes);
    if (!proof.ok()) {
      return Out::Fail(proof.status);
    }
    out.proof = std::move(*proof);
    return Out::Ok(std::move(out));
  } catch (const ProtocolError& e) {
    return Out::Fail(StatusCode::kCorrupted,
                     std::string("replica: malformed checkpoint payload: ") + e.what());
  }
}

Outcome<GetFramesMsg> DecodeGetFrames(const WireMessage& msg) {
  return ParsePayload<GetFramesMsg>(
      msg, ReplicaMsgType::kGetFrames, "get_frames", [](ByteReader& r) {
        GetFramesMsg out;
        out.request_id = r.U64();
        out.from = r.U64();
        out.max_entries = r.U64();
        return out;
      });
}

Outcome<FramesMsg> DecodeFrames(const WireMessage& msg) {
  using Out = Outcome<FramesMsg>;
  if (msg.type != TypeTag(ReplicaMsgType::kFrames)) {
    return Out::Fail(StatusCode::kCorrupted,
                     "replica: expected frames message, got type " +
                         std::to_string(msg.type));
  }
  uint64_t request_id = 0;
  uint64_t first_index = 0;
  uint32_t count = 0;
  size_t offset = 0;
  try {
    ByteReader reader(msg.payload);
    request_id = reader.U64();
    first_index = reader.U64();
    count = reader.U32();
    offset = 8 + 8 + 4;
  } catch (const ProtocolError& e) {
    return Out::Fail(StatusCode::kCorrupted,
                     std::string("replica: malformed frames header: ") + e.what());
  }
  // The count is untrusted: cap it by what the remaining bytes could hold
  // before reserving, so a hostile header cannot demand a huge allocation.
  if (count > (msg.payload.size() - offset) / kMinEntryFrameBytes) {
    return Out::Fail(StatusCode::kCorrupted,
                     "replica: frames message claims " + std::to_string(count) +
                         " entries, more than its payload can hold");
  }
  FramesMsg out;
  out.request_id = request_id;
  out.first_index = first_index;
  out.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto entry = DecodeEntryFrame(msg.payload, &offset);
    if (!entry.ok()) {
      return Out::Fail(StatusCode::kCorrupted,
                       "replica: frames message entry " + std::to_string(i) + ": " +
                           entry.status.reason());
    }
    out.entries.push_back(std::move(*entry));
  }
  if (offset != msg.payload.size()) {
    return Out::Fail(StatusCode::kCorrupted,
                     "replica: frames message has trailing bytes");
  }
  return Out::Ok(std::move(out));
}

Outcome<ErrorMsg> DecodeError(const WireMessage& msg) {
  return ParsePayload<ErrorMsg>(msg, ReplicaMsgType::kError, "error", [](ByteReader& r) {
    ErrorMsg out;
    out.request_id = r.U64();
    const uint8_t raw_code = r.U8();
    Require(raw_code > 0 && raw_code <= static_cast<uint8_t>(StatusCode::kEquivocation),
            "replica: error message carries an unknown status code");
    out.code = static_cast<StatusCode>(raw_code);
    out.reason = r.Str();
    return out;
  });
}

}  // namespace votegral
