#include "persist/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/fault.h"
#include "obs/metrics.h"

namespace progidx {
namespace persist {
namespace {

// Publication counters (docs/observability.md): bytes made durable
// through the crash-atomic temp+fsync+rename path, and how many
// publishes (≈ 2 fsyncs each: file + parent directory) happened.
const obs::Counter& PublishedBytesCounter() {
  static const obs::Counter c("persist.published_bytes");
  return c;
}
const obs::Counter& PublishesCounter() {
  static const obs::Counter c("persist.publishes");
  return c;
}

constexpr char kMagic[8] = {'P', 'I', 'D', 'X', 'S', 'N', 'P', '1'};
/// Frames cap at 1 MiB so a corrupt length field can never drive a
/// gigabyte allocation before the CRC check rejects the file.
constexpr size_t kMaxFrame = size_t{1} << 20;

const uint32_t* CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

/// Fsyncs the directory containing `path` so the rename itself is
/// durable, not just the file contents.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool WriteAll(FILE* f, const void* p, size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const uint32_t* table = CrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; i++) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Writer::WriteRaw(const void* p, size_t n) {
  payload_.append(static_cast<const char*>(p), n);
}

void Writer::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Writer::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
  // Pad to an 8-byte boundary so later value runs stay aligned.
  static const char kZeros[8] = {};
  WriteRaw(kZeros, (8 - s.size() % 8) % 8);
}

void Writer::WriteValues(const value_t* p, size_t n) {
  WriteU64(n);
  WriteRaw(p, n * sizeof(value_t));
}

bool Writer::Publish(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;

  bool ok = WriteAll(f, kMagic, sizeof(kMagic));
  for (size_t off = 0; ok && off < payload_.size(); off += kMaxFrame) {
    const uint32_t len =
        static_cast<uint32_t>(std::min(kMaxFrame, payload_.size() - off));
    const uint32_t crc = Crc32(payload_.data() + off, len);
    ok = WriteAll(f, &len, sizeof(len)) && WriteAll(f, &crc, sizeof(crc)) &&
         WriteAll(f, payload_.data() + off, len);
  }
  if (ok) {
    const uint32_t zero = 0;
    const uint32_t total = Crc32(payload_.data(), payload_.size());
    ok = WriteAll(f, &zero, sizeof(zero)) && WriteAll(f, &total, sizeof(total));
  }
  ok = ok && std::fflush(f) == 0;
  if (ok) {
    if (fault::Fires(fault::Mode::kFsyncFail, fault::Site::kPersistFsync)) {
      // Simulated fsync failure: the bytes may never reach disk, so
      // the publication must be abandoned, not renamed into place.
      ok = false;
    } else {
      ok = ::fsync(fileno(f)) == 0;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }

  if (fault::Fires(fault::Mode::kCrashPreRename, fault::Site::kPersistRename)) {
    // Simulated crash between the durable temp write and the publish
    // rename: the temp file is left behind exactly as a real crash
    // would leave it, and `path` keeps its previous content.
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  FsyncParentDir(path);
  PublishedBytesCounter().Add(payload_.size());
  PublishesCounter().Add();

  if (fault::Fires(fault::Mode::kSnapshotTorn, fault::Site::kPersistTorn)) {
    // Simulated torn publish: the rename reached disk but the tail of
    // the data did not. Returns true — the writer believes it
    // succeeded — so recovery must detect the damage on its own.
    const off_t full =
        static_cast<off_t>(sizeof(kMagic) + payload_.size() + 16);
    ::truncate(path.c_str(), full / 2);
  }
  return true;
}

Reader Reader::FromFile(const std::string& path) {
  Reader r;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    r.ok_ = false;
    return r;
  }
  std::string file;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) file.append(buf, got);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);

  if (!read_ok || file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    r.ok_ = false;
    return r;
  }
  size_t pos = sizeof(kMagic);
  bool terminated = false;
  while (pos + 8 <= file.size()) {
    uint32_t len, crc;
    std::memcpy(&len, file.data() + pos, 4);
    std::memcpy(&crc, file.data() + pos + 4, 4);
    pos += 8;
    if (len == 0) {
      // Terminator: whole-payload CRC, and nothing may follow it.
      terminated =
          crc == Crc32(r.payload_.data(), r.payload_.size()) &&
          pos == file.size();
      break;
    }
    if (len > kMaxFrame || pos + len > file.size() ||
        crc != Crc32(file.data() + pos, len)) {
      break;
    }
    r.payload_.append(file.data() + pos, len);
    pos += len;
  }
  if (!terminated) {
    r.payload_.clear();
    r.ok_ = false;
  }
  return r;
}

Reader Reader::FromPayload(std::string payload) {
  Reader r;
  r.payload_ = std::move(payload);
  return r;
}

bool Reader::ReadRaw(void* p, size_t n) {
  if (!ok_ || pos_ + n > payload_.size()) {
    ok_ = false;
    std::memset(p, 0, n);
    return false;
  }
  std::memcpy(p, payload_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint64_t Reader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

int64_t Reader::ReadI64() {
  int64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

double Reader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::ReadString() {
  const uint64_t n = ReadU64();
  const uint64_t padded = n + (8 - n % 8) % 8;
  if (!ok_ || n > payload_.size() || pos_ + padded > payload_.size()) {
    ok_ = false;
    return std::string();
  }
  std::string s(payload_.data() + pos_, n);
  pos_ += padded;
  return s;
}

const value_t* Reader::ReadValueRun(size_t* n) {
  *n = 0;
  const uint64_t count = ReadU64();
  // Compare counts, not byte sizes: count * 8 wraps for a hostile count.
  if (!ok_ || count > (payload_.size() - pos_) / sizeof(value_t)) {
    ok_ = false;
    return nullptr;
  }
  const size_t bytes = static_cast<size_t>(count) * sizeof(value_t);
  const value_t* p = reinterpret_cast<const value_t*>(payload_.data() + pos_);
  pos_ += bytes;
  *n = static_cast<size_t>(count);
  return p;
}

bool Reader::ReadValueVector(std::vector<value_t>* out) {
  size_t n = 0;
  const value_t* p = ReadValueRun(&n);
  if (p == nullptr) {
    out->clear();
    return false;
  }
  out->assign(p, p + n);
  return true;
}

}  // namespace persist
}  // namespace progidx
