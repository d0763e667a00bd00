// Length-prefixed message framing for byte-stream transports.
//
// A frame is a 4-byte little-endian payload length followed by the
// payload (type tag + body, exactly what EncodeMessageTo produces).
// AppendFrame writes through the existing counting-sizer + external-mode
// Encoder straight into a caller-owned buffer, so the send path reuses
// per-connection output buffers and allocates nothing at steady state.
// FrameReader reassembles frames from arbitrary read() chunks: torn
// frames and short reads yield kNeedMore, an implausible length prefix
// (stream desync / garbage) yields kCorrupt and the connection should be
// dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "consensus/message.h"

namespace pig::net {

using pig::Decoder;
using pig::Encoder;
using pig::Message;
using pig::MessagePtr;
using pig::MsgType;
using pig::NodeId;
using pig::Status;

/// Hard upper bound on a frame payload. Anything above this is treated as
/// stream corruption, not a huge message: the largest legitimate payload
/// (a LogSync snapshot) stays orders of magnitude below it.
inline constexpr size_t kMaxFramePayload = 64u * 1024 * 1024;

/// Bytes of framing overhead per message.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Appends one frame for `msg` to `*out` WITHOUT clearing it, so several
/// messages can be coalesced into one connection buffer and flushed with
/// a single write.
void AppendFrame(const Message& msg, std::vector<uint8_t>* out);

/// Appends one frame holding an opaque payload (no message tag). The WAL
/// (storage/) persists records through this so the on-disk segment format
/// is literally the stream framing: [u32 LE length][payload], replayed
/// with the same FrameReader that reassembles socket reads.
void AppendRawFrame(const uint8_t* payload, size_t size,
                    std::vector<uint8_t>* out);

/// Incremental frame extractor over a stream of read() chunks.
///
///   size_t room;                                // socket: read in place
///   uint8_t* dst = reader.WriteSpace(4096, &room);
///   ssize_t n = recv(fd, dst, room, 0);
///   if (n > 0) reader.Commit(n);                // (or Append(bytes, n))
///   const uint8_t* payload; size_t size;
///   while (reader.Next(&payload, &size) == FrameReader::Result::kFrame) {
///     DecodeMessage(payload, size, ...);        // view into the reader;
///   }                                           // valid until next write
class FrameReader {
 public:
  enum class Result { kFrame, kNeedMore, kCorrupt };

  /// Copies `size` bytes to the end of the buffered stream.
  void Append(const uint8_t* data, size_t size);

  /// Returns room for at least `min` bytes after the buffered ones, so a
  /// read() can land in place; `*room` gets the usable size. The space
  /// is left uninitialised, so pages a read never reaches stay
  /// untouched. Invalidates earlier payload views.
  uint8_t* WriteSpace(size_t min, size_t* room);

  /// Appends the first `n` bytes written into the last WriteSpace.
  void Commit(size_t n) { end_ += n; }

  /// Extracts the next complete frame. The payload view stays valid until
  /// the next Append/WriteSpace/Reset. Once kCorrupt is returned the
  /// stream cannot be resynchronized; drop the connection.
  Result Next(const uint8_t** payload, size_t* size);

  /// Drops all buffered bytes (reconnect reuses the reader).
  void Reset();

  size_t buffered() const { return end_ - pos_; }

 private:
  std::unique_ptr<uint8_t[]> buf_;
  size_t cap_ = 0;
  size_t pos_ = 0;  // first unconsumed byte
  size_t end_ = 0;  // one past the last buffered byte
  bool corrupt_ = false;
};

/// First frame on every outbound connection: identifies the dialing node
/// so the accepting side can route replies over the same socket (clients
/// are not in the static peer map). Consumed by the transport layer,
/// never dispatched to actors.
struct NodeHello final : Message {
  NodeId sender = kInvalidNode;

  MsgType type() const override { return MsgType::kNodeHello; }
  void EncodeBody(Encoder& enc) const override;
  static Status DecodeBody(Decoder& dec, MessagePtr* out);
  std::string DebugString() const override;
};

/// Registers the transport-level decoders (NodeHello).
void RegisterFrameMessages();

}  // namespace pig::net
