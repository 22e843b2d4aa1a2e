#include "sovereign/stream_frame.h"

#include <algorithm>

namespace hsis::sovereign {

namespace {

constexpr size_t kElementBytes = 32;
constexpr size_t kFirstHeaderBytes = 5;          // kind + total
constexpr size_t kContinuationHeaderBytes = 10;  // tag + kind + index + count

// Each element is its 32-byte big-endian encoding (`U256::ToBytesBE`),
// written into and read out of the frame buffer in place.
void AppendElements(Bytes& out, const std::vector<U256>& elements) {
  const size_t begin = out.size();
  out.resize(begin + elements.size() * kElementBytes);
  uint8_t* p = out.data() + begin;
  for (const U256& e : elements) {
    for (size_t limb = 4; limb-- > 0;) {
      const uint64_t v = e.limb[limb];
      for (size_t b = 0; b < 8; ++b) {
        *p++ = static_cast<uint8_t>(v >> (56 - 8 * b));
      }
    }
  }
}

U256 ReadElement(const uint8_t* p) {
  U256 e;
  for (size_t limb = 4; limb-- > 0;) {
    uint64_t v = 0;
    for (size_t b = 0; b < 8; ++b) v = (v << 8) | *p++;
    e.limb[limb] = v;
  }
  return e;
}

}  // namespace

Bytes SerializeFirstFrame(uint8_t kind, uint32_t total,
                          const std::vector<U256>& elements) {
  Bytes out;
  out.reserve(kFirstHeaderBytes + elements.size() * kElementBytes);
  out.push_back(kind);
  AppendUint32BE(out, total);
  AppendElements(out, elements);
  return out;
}

Bytes SerializeContinuationFrame(uint8_t kind, uint32_t index,
                                 const std::vector<U256>& elements) {
  Bytes out;
  out.reserve(kContinuationHeaderBytes + elements.size() * kElementBytes);
  out.push_back(kMsgStreamChunk);
  out.push_back(kind);
  AppendUint32BE(out, index);
  AppendUint32BE(out, static_cast<uint32_t>(elements.size()));
  AppendElements(out, elements);
  return out;
}

Status ElementStreamReader::Consume(const Bytes& frame) {
  if (failed_) {
    return Status::ProtocolViolation("element stream already failed");
  }
  auto fail = [this](const char* msg) {
    failed_ = true;
    return Status::ProtocolViolation(msg);
  };

  size_t payload_offset;
  size_t count;
  if (!header_seen_) {
    if (frame.size() < kFirstHeaderBytes || frame[0] != kind_) {
      return fail("unexpected message type");
    }
    total_ = ReadUint32BE(frame, 1);
    payload_offset = kFirstHeaderBytes;
    size_t payload = frame.size() - payload_offset;
    if (payload % kElementBytes != 0) {
      return fail("malformed element list");
    }
    count = payload / kElementBytes;
    if (count > total_) {
      return fail("opening frame exceeds declared element total");
    }
    header_seen_ = true;
  } else {
    if (complete()) {
      return fail("stream chunk after declared element total was reached");
    }
    if (frame.size() < kContinuationHeaderBytes ||
        frame[0] != kMsgStreamChunk) {
      return fail("expected stream continuation chunk");
    }
    if (frame[1] != kind_) {
      return fail("stream chunk kind mismatch");
    }
    uint32_t index = ReadUint32BE(frame, 2);
    if (index != next_index_) {
      return fail("stream chunk out of order");
    }
    count = ReadUint32BE(frame, 6);
    payload_offset = kContinuationHeaderBytes;
    if (count == 0) {
      return fail("empty stream chunk");
    }
    if (frame.size() != payload_offset + count * kElementBytes) {
      return fail("stream chunk count disagrees with frame length");
    }
    if (elements_.size() + count > total_) {
      return fail("stream chunks exceed declared element total");
    }
    ++next_index_;
  }

  // The declared total is the peer's word, not a reservation (the
  // bounded-count rule of ReadShardRecords in common/shard.cc): storage
  // grows geometrically with the elements that arrived, so capacity
  // stays within twice the received count, and the cap at the total
  // makes the last step land exactly on it.
  last_frame_begin_ = elements_.size();
  const size_t needed = last_frame_begin_ + count;
  if (needed > elements_.capacity()) {
    elements_.reserve(std::min<size_t>(
        total_, std::max(needed, 2 * last_frame_begin_)));
  }
  elements_.resize(needed);
  const uint8_t* payload = frame.data() + payload_offset;
  for (size_t i = 0; i < count; ++i) {
    elements_[last_frame_begin_ + i] = ReadElement(payload + i * kElementBytes);
  }
  return Status::OK();
}

}  // namespace hsis::sovereign
