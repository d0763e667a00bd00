#include "net/frame.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace pig::net {

void AppendFrame(const Message& msg, std::vector<uint8_t>* out) {
  const size_t payload = msg.WireSize();  // tag + body, counting sizer
  Encoder enc(*out);                      // external mode: appends
  enc.Reserve(kFrameHeaderBytes + payload);
  enc.PutU32(static_cast<uint32_t>(payload));
  enc.PutU8(static_cast<uint8_t>(msg.type()));
  msg.EncodeBody(enc);
}

void AppendRawFrame(const uint8_t* payload, size_t size,
                    std::vector<uint8_t>* out) {
  Encoder enc(*out);  // external mode: appends
  enc.Reserve(kFrameHeaderBytes + size);
  enc.PutU32(static_cast<uint32_t>(size));
  enc.PutRaw(payload, size);
}

void FrameReader::Append(const uint8_t* data, size_t size) {
  if (size == 0) return;
  size_t room = 0;
  std::memcpy(WriteSpace(size, &room), data, size);
  Commit(size);
}

uint8_t* FrameReader::WriteSpace(size_t min, size_t* room) {
  // Once every complete frame has been consumed the buffer restarts for
  // free; otherwise the unconsumed tail (a partial frame) moves to the
  // front only when the free space behind it is too small.
  if (pos_ == end_) {
    pos_ = end_ = 0;
  } else if (cap_ - end_ < min && pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (cap_ - end_ < min) {
    const size_t cap = std::max(end_ + min, 2 * cap_);
    auto grown = std::make_unique_for_overwrite<uint8_t[]>(cap);
    if (end_ > 0) std::memcpy(grown.get(), buf_.get(), end_);
    buf_ = std::move(grown);
    cap_ = cap;
  }
  *room = cap_ - end_;
  return buf_.get() + end_;
}

FrameReader::Result FrameReader::Next(const uint8_t** payload,
                                      size_t* size) {
  if (corrupt_) return Result::kCorrupt;
  if (end_ - pos_ < kFrameHeaderBytes) return Result::kNeedMore;
  const uint8_t* h = buf_.get() + pos_;
  const uint32_t len = static_cast<uint32_t>(h[0]) |
                       (static_cast<uint32_t>(h[1]) << 8) |
                       (static_cast<uint32_t>(h[2]) << 16) |
                       (static_cast<uint32_t>(h[3]) << 24);
  if (len > kMaxFramePayload) {
    corrupt_ = true;  // desynced or garbage stream: unrecoverable
    return Result::kCorrupt;
  }
  if (end_ - pos_ - kFrameHeaderBytes < len) return Result::kNeedMore;
  *payload = buf_.get() + pos_ + kFrameHeaderBytes;
  *size = len;
  pos_ += kFrameHeaderBytes + len;
  return Result::kFrame;
}

void FrameReader::Reset() {
  pos_ = end_ = 0;
  corrupt_ = false;
}

void NodeHello::EncodeBody(Encoder& enc) const { enc.PutU32(sender); }

Status NodeHello::DecodeBody(Decoder& dec, MessagePtr* out) {
  auto m = MessagePool::Make<NodeHello>();
  Status s = dec.GetU32(&m->sender);
  if (!s.ok()) return s;
  *out = std::move(m);
  return Status::Ok();
}

std::string NodeHello::DebugString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "NodeHello{from=%u}", sender);
  return buf;
}

void RegisterFrameMessages() {
  RegisterMessageDecoder(MsgType::kNodeHello, &NodeHello::DecodeBody);
}

}  // namespace pig::net
