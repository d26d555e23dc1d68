#include "src/net/conn_state.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace clio {

ConnState::ReadOutcome ConnState::ReadStep() {
  while (true) {
    Bytes* buf = phase_ == Phase::kBody ? &body_ : &head_buf_;
    const size_t need = buf->size();
    if (pos_ < need) {
      auto io = socket_.RecvSome(
          std::span<std::byte>(buf->data() + pos_, need - pos_));
      if (!io.ok()) {
        return ReadOutcome::kError;
      }
      if (io->would_block) {
        return ReadOutcome::kNeedMore;
      }
      if (io->eof) {
        // Clean close only on a frame boundary; EOF with a frame underway
        // is indistinguishable from truncation and closes as bad framing,
        // exactly like the blocking server's short ReadFull.
        return (phase_ == Phase::kHeader && pos_ == 0)
                   ? ReadOutcome::kPeerClosed
                   : ReadOutcome::kBadFrame;
      }
      if (phase_ == Phase::kHeader && pos_ == 0) {
        frame_start_us_ = TraceNowUs();
      }
      pos_ += io->bytes;
      if (pos_ < need) {
        continue;  // level-triggered epoll may have more buffered
      }
    }
    switch (phase_) {
      case Phase::kHeader: {
        auto header = DecodeFramePrefix(head_buf_, max_frame_body_);
        if (!header.ok()) {
          return ReadOutcome::kBadFrame;
        }
        header_ = *header;
        const size_t ext = FrameExtensionSize(header_.version);
        if (ext > 0) {
          head_buf_.resize(kFrameHeaderSize + ext);
          phase_ = Phase::kExt;
          continue;  // pos_ keeps counting into the grown buffer
        }
        [[fallthrough]];
      }
      case Phase::kExt: {
        if (phase_ == Phase::kExt) {
          auto tail = std::span<const std::byte>(head_buf_).subspan(
              kFrameHeaderSize);
          if (!DecodeFrameExtension(tail, &header_).ok()) {
            return ReadOutcome::kBadFrame;
          }
        }
        body_.assign(header_.body_size, std::byte{0});
        pos_ = 0;
        phase_ = Phase::kBody;
        if (header_.body_size > 0) {
          continue;
        }
        return ReadOutcome::kFrame;
      }
      case Phase::kBody:
        return ReadOutcome::kFrame;
    }
  }
}

void ConnState::ResetRead() {
  phase_ = Phase::kHeader;
  head_buf_.resize(kFrameHeaderSize);
  body_.clear();
  pos_ = 0;
  frame_start_us_ = 0;
}

void ConnState::BeginReply(const FrameHeader& reply_header, WireMessage body) {
  head_out_ = EncodeFrameHeaderOnly(reply_header);
  out_ = std::move(body);
  head_sent_ = 0;
  slice_index_ = 0;
  slice_offset_ = 0;
  reply_bytes_ = head_out_.size() + out_.total_bytes();
  reply_bytes_remaining_ = reply_bytes_;
}

ConnState::FlushOutcome ConnState::FlushStep() {
  const auto& slices = out_.slices();
  while (reply_bytes_remaining_ > 0) {
    iovec iov[kMaxIov];
    size_t count = 0;
    if (head_sent_ < head_out_.size()) {
      iov[count++] = {head_out_.data() + head_sent_,
                      head_out_.size() - head_sent_};
    }
    for (size_t i = slice_index_; i < slices.size() && count < kMaxIov; ++i) {
      auto view = slices[i].view();
      const size_t off = i == slice_index_ ? slice_offset_ : 0;
      if (view.size() == off) {
        continue;
      }
      iov[count++] = {const_cast<std::byte*>(view.data() + off),
                      view.size() - off};
    }
    auto io = socket_.SendmsgSome(std::span<const iovec>(iov, count));
    if (!io.ok()) {
      return FlushOutcome::kError;
    }
    if (io->would_block) {
      return FlushOutcome::kAgain;
    }
    // Advance the cursor across whatever prefix of the iovec landed.
    size_t n = io->bytes;
    reply_bytes_remaining_ -= n;
    if (head_sent_ < head_out_.size()) {
      const size_t took = std::min(n, head_out_.size() - head_sent_);
      head_sent_ += took;
      n -= took;
    }
    while (n > 0) {
      const WireSlice& slice = slices[slice_index_];
      const size_t len = slice.view().size();
      const size_t took = std::min(n, len - slice_offset_);
      slice_offset_ += took;
      n -= took;
      if (slice_offset_ == len) {
        ++slice_index_;
        slice_offset_ = 0;
      }
    }
  }
  // Fully flushed: releasing the message drops the slices' block images,
  // which unpins their frames.
  out_ = WireMessage();
  head_out_.clear();
  head_sent_ = 0;
  slice_index_ = 0;
  slice_offset_ = 0;
  return FlushOutcome::kDone;
}

}  // namespace clio
