#include "src/trace/cursor.h"

namespace mitt::trace {
namespace {

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Decodes and sanity-checks the 64-byte header.
bool DecodeHeader(const unsigned char buf[kHeaderBytes], TraceHeader* out, std::string* error) {
  if (LoadLe64(buf) != kTraceMagic) {
    return SetError(error, "bad magic (not a mitt trace, or a torn/unfinished write)");
  }
  out->version = LoadLe32(buf + 8);
  if (out->version != kTraceVersion) {
    return SetError(error, "unsupported version");
  }
  if (LoadLe32(buf + 12) != kHeaderBytes) {
    return SetError(error, "unexpected header size");
  }
  out->block_records = LoadLe32(buf + 16);
  out->num_streams = LoadLe32(buf + 20);
  out->record_count = LoadLe64(buf + 24);
  out->span_bytes = static_cast<int64_t>(LoadLe64(buf + 32));
  out->num_blocks = LoadLe64(buf + 40);
  if (LoadLe64(buf + 56) != Fnv1a(buf, 56)) {
    return SetError(error, "header checksum mismatch");
  }
  if (out->block_records == 0) {
    return SetError(error, "block_records is zero");
  }
  const uint64_t expect_blocks =
      (out->record_count + out->block_records - 1) / out->block_records;
  if (out->num_blocks != expect_blocks) {
    return SetError(error, "num_blocks disagrees with record_count");
  }
  return true;
}

}  // namespace

std::unique_ptr<FileTraceCursor> FileTraceCursor::Open(const std::string& path,
                                                       std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open: " + path);
    return nullptr;
  }
  auto fail = [&](const std::string& message) -> std::unique_ptr<FileTraceCursor> {
    SetError(error, message + " (" + path + ")");
    std::fclose(file);
    return nullptr;
  };

  if (std::fseek(file, 0, SEEK_END) != 0) {
    return fail("seek failed");
  }
  const long file_size = std::ftell(file);
  if (file_size < static_cast<long>(kHeaderBytes + kFooterBytes)) {
    return fail("file too small for header + footer");
  }

  unsigned char header_bytes[kHeaderBytes];
  if (std::fseek(file, 0, SEEK_SET) != 0 ||
      std::fread(header_bytes, 1, kHeaderBytes, file) != kHeaderBytes) {
    return fail("short read (header)");
  }
  TraceHeader header;
  std::string header_error;
  if (!DecodeHeader(header_bytes, &header, &header_error)) {
    return fail(header_error);
  }
  if (static_cast<uint64_t>(file_size) != header.FileBytes()) {
    return fail("file size mismatch (truncated or trailing garbage)");
  }

  // Footer: magic and count agreement with the header.
  unsigned char footer[kFooterBytes];
  if (std::fseek(file, -static_cast<long>(kFooterBytes), SEEK_END) != 0 ||
      std::fread(footer, 1, kFooterBytes, file) != kFooterBytes) {
    return fail("short read (footer)");
  }
  if (LoadLe64(footer + 24) != kFooterMagic) {
    return fail("bad footer magic");
  }
  if (LoadLe64(footer + 8) != header.record_count ||
      LoadLe64(footer + 16) != header.num_blocks) {
    return fail("footer counts disagree with header");
  }

  // Index checksum, streamed through a fixed chunk so validation stays
  // constant-memory on billion-record traces.
  const uint64_t index_bytes = header.num_blocks * kIndexEntryBytes;
  if (std::fseek(file, static_cast<long>(header.IndexOffset()), SEEK_SET) != 0) {
    return fail("seek failed (index)");
  }
  uint64_t checksum = 0xCBF29CE484222325ULL;
  unsigned char chunk[4096];
  uint64_t remaining = index_bytes;
  while (remaining > 0) {
    const size_t want = remaining < sizeof(chunk) ? static_cast<size_t>(remaining) : sizeof(chunk);
    if (std::fread(chunk, 1, want, file) != want) {
      return fail("short read (index)");
    }
    checksum = Fnv1a(chunk, want, checksum);
    remaining -= want;
  }
  if (checksum != LoadLe64(footer + 0)) {
    return fail("index checksum mismatch");
  }

  auto cursor = std::unique_ptr<FileTraceCursor>(new FileTraceCursor(file, header));
  return cursor;
}

FileTraceCursor::FileTraceCursor(std::FILE* file, const TraceHeader& header)
    : file_(file), header_(header), exhausted_(header.record_count == 0) {
  const size_t cap = header_.block_records;
  raw_.resize(cap * kRecordBytes);
  arrival_us_.resize(cap);
  offset_.resize(cap);
  len_.resize(cap);
  op_.resize(cap);
  stream_.resize(cap);
}

FileTraceCursor::~FileTraceCursor() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool FileTraceCursor::LoadBlock(uint64_t block) {
  const uint32_t n = header_.RecordsInBlock(block);
  const size_t bytes = static_cast<size_t>(n) * kRecordBytes;
  if (std::fseek(file_, static_cast<long>(header_.BlockFileOffset(block)), SEEK_SET) != 0 ||
      std::fread(raw_.data(), 1, bytes, file_) != bytes) {
    // Open() verified the exact file size, so this only fires if the file
    // shrank underneath us; treat it as end-of-trace rather than corrupting
    // the replay with stale scratch.
    exhausted_ = true;
    block_n_ = 0;
    pos_ = 0;
    return false;
  }
  const unsigned char* p = raw_.data();
  for (uint32_t i = 0; i < n; ++i, p += 8) {
    arrival_us_[i] = LoadLe64(p);
  }
  for (uint32_t i = 0; i < n; ++i, p += 8) {
    offset_[i] = static_cast<int64_t>(LoadLe64(p));
  }
  for (uint32_t i = 0; i < n; ++i, p += 4) {
    len_[i] = LoadLe32(p);
  }
  for (uint32_t i = 0; i < n; ++i, ++p) {
    op_[i] = *p;
  }
  for (uint32_t i = 0; i < n; ++i, p += 4) {
    stream_[i] = LoadLe32(p);
  }
  block_n_ = n;
  pos_ = 0;
  return true;
}

bool FileTraceCursor::Next(TraceEvent* out) {
  if (exhausted_) {
    return false;
  }
  while (pos_ == block_n_) {
    if (next_block_ >= header_.num_blocks) {
      exhausted_ = true;
      return false;
    }
    if (!LoadBlock(next_block_++)) {
      return false;
    }
  }
  out->at = static_cast<TimeNs>(arrival_us_[pos_]) * 1000;
  out->offset = offset_[pos_];
  out->len = len_[pos_];
  out->op = op_[pos_];
  out->stream = stream_[pos_];
  ++pos_;
  ++yielded_;
  return true;
}

bool FileTraceCursor::ReadIndexEntry(uint64_t block, BlockIndexEntry* out) {
  unsigned char buf[kIndexEntryBytes];
  if (std::fseek(file_, static_cast<long>(header_.IndexOffset() + block * kIndexEntryBytes),
                 SEEK_SET) != 0 ||
      std::fread(buf, 1, kIndexEntryBytes, file_) != kIndexEntryBytes) {
    return false;
  }
  out->first_arrival_us = LoadLe64(buf);
  out->last_arrival_us = LoadLe64(buf + 8);
  return true;
}

bool FileTraceCursor::SeekToTimeUs(uint64_t us) {
  // First block whose last arrival >= us; every earlier block is entirely
  // before the target.
  uint64_t lo = 0;
  uint64_t hi = header_.num_blocks;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    BlockIndexEntry entry;
    if (!ReadIndexEntry(mid, &entry)) {
      exhausted_ = true;
      return false;
    }
    if (entry.last_arrival_us < us) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  yielded_ = 0;
  if (lo >= header_.num_blocks) {
    exhausted_ = true;
    block_n_ = 0;
    pos_ = 0;
    next_block_ = header_.num_blocks;
    return false;
  }
  exhausted_ = false;
  if (!LoadBlock(lo)) {
    return false;
  }
  next_block_ = lo + 1;
  while (pos_ < block_n_ && arrival_us_[pos_] < us) {
    ++pos_;
  }
  return true;
}

}  // namespace mitt::trace
