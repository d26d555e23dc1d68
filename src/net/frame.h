// Length-prefixed binary framing for the TCP log service.
//
// Every request and reply travels as one frame: a fixed header followed by
// `body_size` bytes of body (the request/reply bodies of src/ipc/codec.h).
// The header starts with a 24-byte prefix shared by every version,
// little-endian:
//
//   offset  size  field
//   0       4     magic      0x474F4C43 ("CLOG")
//   4       2     version    1 or 2
//   6       2     flags      reserved, must be 0
//   8       4     op         LogOp on requests; echoed on replies
//   12      8     request id client-chosen; echoed on the matching reply
//   20      4     body size  bytes of body that follow
//
// Version 2 extends the prefix with a tracing extension before the body:
//
//   24      8     trace id   request-tracing id (src/obs/trace.h); 0 when
//                            the sender does not trace
//
// Both directions are backward compatible: a v1 request (24-byte header,
// no trace id) is accepted with trace_id 0, and the server echoes the
// request's version in its reply, so a strict v1 client — which rejects
// any other version and reads exactly 24 header bytes — keeps working
// against a v2 server. Endpoints read the 24-byte prefix first, learn the
// version,
// then read FrameExtensionSize(version) more header bytes — the prefix is
// validated before any further byte is read, so a server can reject
// garbage (bad magic/version) or resource abuse (oversized body) without
// allocating or crashing. Framing after a bad header is untrustworthy: the
// connection is closed, never resynchronized.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

constexpr uint32_t kFrameMagic = 0x474F4C43;  // "CLOG" on the wire
constexpr uint16_t kFrameVersionLegacy = 1;   // 24-byte header, no trace id
constexpr uint16_t kFrameVersion = 2;         // + 8-byte trace-id extension
// The version-independent prefix every endpoint reads first.
constexpr size_t kFrameHeaderSize = 24;
// The v2 tracing extension that follows the prefix.
constexpr size_t kFrameTraceExtSize = 8;
// Full header size of a v2 frame (prefix + trace extension).
constexpr size_t kFrameHeaderSizeV2 = kFrameHeaderSize + kFrameTraceExtSize;
// Default cap on frame bodies. Appends are bounded by what a volume block
// chain can hold long before this; the cap exists to bound what a
// malicious or confused peer can make the server allocate.
constexpr uint32_t kMaxFrameBodySize = 16u << 20;

struct FrameHeader {
  uint32_t op = 0;
  uint64_t request_id = 0;
  uint32_t body_size = 0;
  uint64_t trace_id = 0;
  // Set by the decoder on decode; on encode it selects the wire layout, so
  // a reply can echo the request's version back to a legacy peer.
  uint16_t version = kFrameVersion;
};

// Header bytes that follow the 24-byte prefix for `version` (0 for v1,
// 8 for v2).
constexpr size_t FrameExtensionSize(uint16_t version) {
  return version >= kFrameVersion ? kFrameTraceExtSize : 0;
}

// Encodes header + body into one contiguous wire frame laid out per
// `header.version`: a v2 header occupies kFrameHeaderSizeV2 bytes, a v1
// header the bare 24-byte prefix (its trace_id is not encoded).
Bytes EncodeFrame(const FrameHeader& header, std::span<const std::byte> body);

// Header bytes only, with header.body_size announcing a body the caller
// sends separately (the event-loop server's scatter reply path, which
// writev()s the header alongside borrowed body slices).
Bytes EncodeFrameHeaderOnly(const FrameHeader& header);

// Validates and decodes the 24-byte header prefix. `data` needs only the
// prefix; for a v2 header the caller then reads
// FrameExtensionSize(header.version) more bytes and passes them to
// DecodeFrameExtension. `max_body_size` bounds the body this endpoint is
// willing to receive.
Result<FrameHeader> DecodeFramePrefix(std::span<const std::byte> data,
                                      uint32_t max_body_size
                                      = kMaxFrameBodySize);

// Decodes the version-specific extension bytes into `header` (a no-op for
// v1 headers, whose extension is empty).
Status DecodeFrameExtension(std::span<const std::byte> data,
                            FrameHeader* header);

// Whole-header decode for callers holding the complete header in memory:
// prefix plus (for v2) the trace extension.
Result<FrameHeader> DecodeFrameHeader(std::span<const std::byte> data,
                                      uint32_t max_body_size
                                      = kMaxFrameBodySize);

}  // namespace clio

#endif  // SRC_NET_FRAME_H_
