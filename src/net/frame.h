#ifndef TIGERVECTOR_NET_FRAME_H_
#define TIGERVECTOR_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"
#include "util/result.h"
#include "util/status.h"

namespace tigervector::net {

// ---------------------------------------------------------------------------
// Wire protocol: length-prefixed binary frames over TCP.
//
// Every message is one frame: a fixed 32-byte little-endian header followed
// by `payload_len` payload bytes.
//
//   offset  size  field
//   0       4     magic            0x54565750 ("TVWP")
//   4       2     version          kWireVersion
//   6       1     type             MsgType
//   7       1     flags            reserved, must be 0
//   8       8     request_id       client-chosen, echoed in the response
//   16      8     deadline_micros  remaining request budget (0 = server
//                                  default); the server converts it to an
//                                  absolute deadline on receipt and
//                                  propagates it into the executor
//   24      4     payload_len      bytes following the header
//   28      4     payload_crc      CRC-32 (IEEE) of the payload
//
// The checksum makes torn frames (peer died mid-send, injected faults)
// distinguishable from valid short messages: a reader either delivers a
// bit-exact payload or a typed kIOError — never silently truncated bytes.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireMagic = 0x54565750;  // "TVWP"
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 32;
// Upper bound on a single payload; a larger length field means a corrupt or
// hostile header, not a real message.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class MsgType : uint8_t {
  kPing = 0,
  kPong = 1,
  // Request: a GSQL script + parameter bindings. Response: kResult with an
  // encoded ScriptResult, kError with an encoded Status, or kRetryLater.
  kQuery = 2,
  kResult = 3,
  kError = 4,
  // Admission-control fast-reject: the server is saturated; the request was
  // NOT executed and an idempotent client may retry after backoff.
  kRetryLater = 5,
  // Request the server's metrics registry / flight recorder rendering;
  // response is kText.
  kMetrics = 6,
  kFlightRec = 7,
  kText = 8,
};

const char* MsgTypeName(MsgType type);

struct Frame {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  uint64_t deadline_micros = 0;
  std::string payload;
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(const void* data, size_t len);

// Serializes and sends one frame. Transport errors come back typed.
Status WriteFrame(Socket& socket, const Frame& frame);

// Reads one frame, validating magic, version, length bound, and payload
// checksum; any violation is a typed kIOError naming the defect.
Result<Frame> ReadFrame(Socket& socket);

// ---------------------------------------------------------------------------
// Payload encoding primitives (little-endian, length-prefixed strings).
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF32(float v);
  void PutF64(double v);
  void PutString(const std::string& s);
  void PutFloatVec(const std::vector<float>& v);

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Bounds-checked reader; every getter fails with kIOError on underrun (a
// decode error on a checksummed payload means a protocol bug, not line
// noise, but it must still never read out of bounds).
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}
  // The reader borrows the buffer; binding a temporary would dangle.
  explicit WireReader(std::string&&) = delete;

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  Status GetF32(float* v);
  Status GetF64(double* v);
  Status GetString(std::string* s);
  Status GetFloatVec(std::vector<float>* v);

  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  Status Need(size_t n);
  const std::string& buf_;
  size_t pos_ = 0;
};

}  // namespace tigervector::net

#endif  // TIGERVECTOR_NET_FRAME_H_
